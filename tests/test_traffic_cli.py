"""The ``concordd traffic`` acceptance scenario.

The contract: the same benign policy, seed, tenants, and budgets reach
*opposite* pooled-guard verdicts depending only on the load schedule —
COMPLETE under the steady trace, HALTED with a journaled, attributed
pooled breach under the burst trace — and the Malthusian sweep shows a
real knee.  That is the load-dependent-verdict acceptance criterion.
"""

from pathlib import Path

from repro.tools import concordd

GOLDEN = Path(__file__).parent / "golden" / "concordd"


def test_traffic_scenario_passes(capsys, tmp_path):
    # At the CLI defaults the transcript is the golden file.
    code = concordd.main(["traffic", "--journal-dir", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0, out
    assert out.replace(str(tmp_path), "<TMP>") == (GOLDEN / "traffic.txt").read_text()
    # Both fleets journaled to real files.
    assert (tmp_path / "fleet.steady.jsonl").exists()
    assert (tmp_path / "fleet.burst.jsonl").exists()


def test_traffic_rejects_bad_duration(capsys):
    assert concordd.main(["traffic", "--duration-ms", "0"]) == 2
    assert "--duration-ms must be positive" in capsys.readouterr().err
