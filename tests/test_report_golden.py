"""Regression fixture: a full ``report`` at n = 4096 against stored values.

The golden file is written by running this module as a script
(``PYTHONPATH=src python tests/test_report_golden.py``), so a later change
shows its drift against it instead of asserting it away. It was last
written when both calibrations became Newton fits on the exact slope of
the ensemble mean, which end at other points within the same 0.05 GHz
tolerance; the operating temperatures of ``top_vs_gss.csv`` did not
move. The tolerances are fixed here, not fitted to any drift:

- operating temperatures (``top_vs_gss.csv``): 1e-5 K absolute;
- operability fractions (``operability.csv`` and the ``p_*`` summary
  keys): one emitter, 1/n;
- every other summary number (calibrated sigma and stress, means, spreads):
  1e-9 relative.

Regenerate only when a change is meant to move these numbers beyond the
tolerances, and say why in CHANGES.md.
"""

import json
import math
import sys
from pathlib import Path

import pytest

from strainforge.cli import report
from strainforge.config import default_config

GOLDEN = Path(__file__).with_name("data") / "report_n4096.json"
N = 4096

TOP_ABS_K = 1e-5
FRACTION_ABS = 1.0 / N
SUMMARY_REL = 1e-9


def _csv_columns(path: Path) -> dict[str, list[float]]:
    header, *rows = path.read_text().splitlines()
    cols = list(zip(*(map(float, r.split(",")) for r in rows)))
    return {name: list(col) for name, col in zip(header.split(","), cols)}


def snapshot(out_dir: Path) -> dict:
    """The checked numbers of one report run, keyed like the golden file."""
    cfg = default_config()
    summary = report(cfg, cfg.default_seed, n=N, threads=1, out_dir=out_dir)
    top = _csv_columns(out_dir / "top_vs_gss.csv")
    oper = _csv_columns(out_dir / "operability.csv")
    return {
        "n": N,
        "seed": cfg.default_seed,
        "summary": {k: v for k, v in summary.items() if isinstance(v, float)},
        "top_vs_gss": {"gss_ghz": top["gss_ghz"], "t_op_k": top["t_op_k"]},
        "operability": oper,
    }


@pytest.fixture(scope="module")
def pair(tmp_path_factory):
    golden = json.loads(GOLDEN.read_text())
    return golden, snapshot(tmp_path_factory.mktemp("golden_report"))


def _worst(a, b) -> float:
    assert len(a) == len(b)
    return max(abs(x - y) for x, y in zip(a, b))


def test_run_matches_fixture_inputs(pair):
    golden, got = pair
    assert (got["n"], got["seed"]) == (golden["n"], golden["seed"])
    assert got["top_vs_gss"]["gss_ghz"] == golden["top_vs_gss"]["gss_ghz"]
    assert got["operability"]["temp_k"] == golden["operability"]["temp_k"]
    assert sorted(got["summary"]) == sorted(golden["summary"])


def test_operating_temperatures(pair):
    golden, got = pair
    worst = _worst(got["top_vs_gss"]["t_op_k"], golden["top_vs_gss"]["t_op_k"])
    assert worst <= TOP_ABS_K


@pytest.mark.parametrize("column", ["p_pre", "p_post"])
def test_operability_fractions(pair, column):
    golden, got = pair
    worst = _worst(got["operability"][column], golden["operability"][column])
    assert worst <= FRACTION_ABS * (1 + 1e-12)


def test_summary(pair):
    golden, got = pair
    for key, want in golden["summary"].items():
        have = got["summary"][key]
        if key.startswith(("p_", "pre_p_")):
            assert abs(have - want) <= FRACTION_ABS * (1 + 1e-12), key
        else:
            assert math.isclose(have, want, rel_tol=SUMMARY_REL, abs_tol=0.0), key


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        data = snapshot(Path(tmp))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    sys.stdout.write(f"wrote {GOLDEN}\n")
