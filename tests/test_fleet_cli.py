"""The ``concordd fleet`` scenario and the ``--kernels`` flag.

Two contracts live here: the fleet acceptance run (three kernels, two
waves, halt-and-revert, mid-wave crash recovery) exits 0, and adding
``--kernels`` to the existing ``rollout``/``drill`` scenarios leaves
the single-kernel output byte-identical — N=1 stays the default and
prints exactly what it printed before the flag existed.
"""

from pathlib import Path

import pytest

from repro.tools import concordd

GOLDEN = Path(__file__).parent / "golden" / "concordd"

ROLLOUT_ARGS = [
    "rollout",
    "--locks",
    "2",
    "--tasks-per-lock",
    "4",
    "--duration-ms",
    "2",
]


def test_fleet_scenario_passes(capsys, tmp_path):
    code = concordd.main(
        [
            "fleet",
            "--duration-ms",
            "4",
            "--journal-dir",
            str(tmp_path),
        ]
    )
    out = capsys.readouterr().out
    assert code == 0, out
    assert "fleet of 3 kernels" in out
    # Two waves, quiet kernel canaries first.
    assert "wave 0 (canary): k0" in out
    assert "wave 1 (cohort): k1, k2" in out
    # Phase 1: the cross-kernel breach halts and reverts.
    assert "FAIL" in out and "HALTED" in out
    assert "[ok] every patched kernel reverted to stock" in out
    # Phase 2: fleet-wide ACTIVE.
    assert "[ok] numa-good ACTIVE on every kernel" in out
    # Phase 3: crash between waves, journal-driven resume.
    assert "[ok] recovery resumed from wave 1 (completed wave trusted)" in out
    assert "[ok] steady ACTIVE on every kernel — no split fleet" in out
    assert "[FAIL]" not in out
    assert "fleet scenario passed" in out
    # The journals the recovery read are real files on disk.
    assert (tmp_path / "fleet.jsonl").exists()
    assert (tmp_path / "journal.k0.jsonl").exists()


def test_fleet_requires_three_kernels(capsys):
    assert concordd.main(["fleet", "--kernels", "2"]) == 2
    assert "needs --kernels >= 3" in capsys.readouterr().err


@pytest.mark.parametrize("scenario", ["rollout", "drill"])
def test_per_kernel_scenarios_require_a_kernel(capsys, scenario):
    # Zero kernels would run nothing and pass vacuously.
    assert concordd.main([scenario, "--kernels", "0"]) == 2
    err = capsys.readouterr().err
    assert f"error: {scenario} scenario needs --kernels >= 1" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["rollout", "--cores", "0"],
        ["rollout", "--sockets", "0"],
        ["rollout", "--locks", "0"],
        ["rollout", "--tasks-per-lock", "0"],
        ["fleet", "--max-concurrent-kernels", "0"],
        ["fleet-degraded", "--quorum", "1.5"],
        ["fleet-degraded", "--quorum", "0"],
    ],
)
def test_out_of_range_options_are_usage_errors(capsys, argv):
    # Rejected by the parser, before any world is built: exit 2 and an
    # error line, not a traceback from deep inside the scenario.
    with pytest.raises(SystemExit) as exc:
        concordd.main(argv)
    assert exc.value.code == 2
    assert f"error: argument {argv[1]}: " in capsys.readouterr().err


def test_fleet_degraded_scenario_passes(capsys, tmp_path):
    # At the CLI defaults the transcript is the golden file.
    code = concordd.main(
        [
            "fleet-degraded",
            "--duration-ms",
            "8",
            "--journal-dir",
            str(tmp_path),
        ]
    )
    out = capsys.readouterr().out
    assert code == 0, out
    assert out.replace(str(tmp_path), "<TMP>") == (GOLDEN / "fleet-degraded.txt").read_text()
    assert (tmp_path / "fleet.jsonl").exists()


def test_fleet_degraded_requires_four_kernels(capsys):
    assert concordd.main(["fleet-degraded", "--kernels", "3"]) == 2
    assert "needs --kernels >= 4" in capsys.readouterr().err


def test_rollout_single_kernel_output_is_unchanged(capsys):
    # ``--kernels 1`` (and the flag's default) must be byte-identical
    # to the pre-flag scenario: no per-kernel headers, same verdicts.
    code = concordd.main(ROLLOUT_ARGS)
    baseline = capsys.readouterr().out
    assert code == 0, baseline

    code = concordd.main(ROLLOUT_ARGS + ["--kernels", "1"])
    flagged = capsys.readouterr().out
    assert code == 0, flagged
    assert flagged == baseline
    assert "=== kernel" not in baseline


def test_rollout_many_kernels_runs_each_seed(capsys):
    code = concordd.main(ROLLOUT_ARGS + ["--kernels", "2", "--seed", "7"])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "=== kernel k0 (seed 7) ===" in out
    assert "=== kernel k1 (seed 8) ===" in out
    assert out.count("bad policy  : ROLLED_BACK") == 2
    assert out.count("good policy : ACTIVE") == 2


def test_drill_many_kernels_gets_separate_journals(capsys, tmp_path):
    journal = str(tmp_path / "journal.jsonl")
    code = concordd.main(
        [
            "drill",
            "--duration-ms",
            "2",
            "--journal",
            journal,
            "--kernels",
            "2",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0, out
    assert "=== kernel k0" in out and "=== kernel k1" in out
    assert out.count("drill passed") == 2
    # Each kernel drills against its own journal file.
    assert (tmp_path / "journal.jsonl.k0").exists()
    assert (tmp_path / "journal.jsonl.k1").exists()
