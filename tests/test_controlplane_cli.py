"""The ``concordd`` CLI scenario — the PR's end-to-end acceptance run."""

import os
import subprocess
import sys

import pytest

import repro
from repro.tools import concordd

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def _python(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, env=env, check=False
    )


def test_rollout_scenario_passes(capsys):
    # Smaller than the CLI defaults but the same calibrated shape:
    # exit 0 means bad-numa ROLLED_BACK, numa-good ACTIVE, no stalls.
    code = concordd.main(
        [
            "rollout",
            "--locks",
            "2",
            "--tasks-per-lock",
            "4",
            "--duration-ms",
            "2",
            "--audit",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0, out
    assert "bad policy  : ROLLED_BACK" in out
    assert "good policy : ACTIVE" in out
    assert "0 stalled" in out
    # --audit prints the full transition history.
    assert "SUBMITTED" in out and "ROLLED_BACK" in out


def test_drill_scenario_passes(capsys, tmp_path):
    # The crash-recovery drill: kill mid-canary under an adversarial
    # fault plan, restart over the journal, recover, then trip the
    # circuit breaker.  Exit 0 means every drill check held.
    journal = str(tmp_path / "journal.jsonl")
    code = concordd.main(
        [
            "drill",
            "--duration-ms",
            "2",
            "--journal",
            journal,
            "--audit",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0, out
    assert "drill passed" in out
    assert "[FAIL]" not in out
    # The journal the drill recovered from is on disk and readable.
    from repro.controlplane import PolicyJournal

    states = [
        e["to"]
        for e in PolicyJournal(journal).entries()
        if e.get("kind") == "transition" and e["policy"] == "steady"
    ]
    assert states[-1] == "ROLLED_BACK"  # the fail-open ending
    assert "ACTIVE" in states


def test_adapt_scenario_passes(capsys, tmp_path):
    # The adaptive overload defense acceptance run, all three phases:
    # fleet-wide detect on pooled evidence -> kept cull, crash at the
    # propose checkpoint -> recovery resolves and re-proposes, and an
    # over-aggressive cap tripping the fairness guard -> rolled back.
    code = concordd.main(
        ["adapt", "--journal-dir", str(tmp_path), "--audit"]
    )
    out = capsys.readouterr().out
    assert code == 0, out
    assert "adapt scenario PASSED" in out
    assert "[FAIL]" not in out
    assert "collapse-detected" in out  # --audit prints the decision log
    # The fleet journal on disk carries the judged adaptation history.
    from repro.controlplane import PolicyJournal

    events = [
        e["event"]
        for e in PolicyJournal(str(tmp_path / "adapt.fleet.jsonl")).entries()
        if e.get("kind") == "adaptation"
    ]
    assert events == ["collapse-detected", "cull-proposed", "cull-kept"]


def test_rejects_nonpositive_duration(capsys):
    assert concordd.main(["rollout", "--duration-ms", "0"]) == 2
    assert "must be positive" in capsys.readouterr().err


def test_requires_a_scenario():
    with pytest.raises(SystemExit):
        concordd.main([])


def test_bad_numa_submission_is_a_two_spec_bundle():
    sub = concordd.bad_numa_submission("svc.*.lock")
    assert [s.hook for s in sub.specs] == ["cmp_node", "lock_acquired"]
    assert sub.name == "bad-numa"
    assert {s.lock_selector for s in sub.specs} == {"svc.*.lock"}


def test_importing_the_library_does_not_load_the_cli():
    probe = _python(
        "-c",
        "import sys, repro; print('repro.tools.concordd' in sys.modules)",
    )
    assert probe.returncode == 0, probe.stderr
    assert probe.stdout.strip() == "False"


def test_module_entry_point_runs_without_runpy_warning():
    # ``-W error`` turns runpy's "found in sys.modules" warning into a
    # crash, so exit 2 proves the usage error was reached warning-free.
    run = _python(
        "-W", "error::RuntimeWarning", "-m", "repro.tools.concordd",
        "rollout", "--kernels", "0",
    )
    assert run.returncode == 2, run.stderr
    assert "RuntimeWarning" not in run.stderr
    assert run.stderr.startswith("error: rollout scenario needs --kernels >= 1")
