"""benchmarks/output_digest.py: one digest per output of every command."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "benchmarks" / "output_digest.py"
REPORT_FILES = ["out/gss_pdf.csv", "out/operability.csv", "out/summary.json",
                "out/top_vs_gss.csv", "stdout"]


def test_output_digest_smoke():
    out = subprocess.run([sys.executable, str(TOOL), "--n", "2000"],
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    digests = {}
    for line in out.stdout.splitlines():
        digest, name = line.split("  ")
        assert len(digest) == 64 and set(digest) <= set("0123456789abcdef")
        digests[name] = digest
    assert list(digests) == [
        *(f"report-threads{t}/{f}" for t in (1, 2) for f in REPORT_FILES),
        "sample-pre/samples.csv", "sample-pre/stdout",
        "sample-post/samples.csv", "sample-post/stdout",
        "calibrate-sigma/stdout", "calibrate-stress/stdout",
        "mechanics-file/profile.csv", "mechanics-file/stdout", "mechanics-stdout/stdout",
        "top/stdout",
    ]
    for f in REPORT_FILES:  # byte identity across thread counts
        assert digests[f"report-threads1/{f}"] == digests[f"report-threads2/{f}"]
    assert digests["mechanics-file/profile.csv"] == digests["mechanics-stdout/stdout"]
