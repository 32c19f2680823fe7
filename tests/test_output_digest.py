"""benchmarks/output_digest.py: one digest per output of every command."""

import hashlib
import subprocess
import sys
from pathlib import Path

import numpy as np

from conftest import synth_spectrum, write_spectrum
from strainforge.cli import run

TOOL = Path(__file__).resolve().parents[1] / "benchmarks" / "output_digest.py"
REPORT_FILES = ["out/calibrated_config.json", "out/gss_pdf.csv", "out/operability.csv",
                "out/summary.json", "out/top_vs_gss.csv", "stdout"]
SPECTRA_FILES = ["stats.json", "stats_pooled.csv"]


def test_output_digest_smoke(tmp_path, monkeypatch, capsys):
    spec_dir = tmp_path / "specs"
    spec_dir.mkdir()
    rng = np.random.default_rng(11)
    for i in range(2):  # two single emitters, so the batch has splitting statistics
        write_spectrum(synth_spectrum(rng, [406600.0, 406900.0 + 50.0 * i], fwhm_ghz=15.0,
                                      snr=30.0), spec_dir / f"s{i}.csv")
    out = subprocess.run([sys.executable, str(TOOL), "--n", "2000", "--spectra-dir",
                          str(spec_dir)], capture_output=True, text=True, timeout=120)
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
        "mechanics-file/profile.csv", "mechanics-file/stdout", "mechanics-stdout/stdout",
        "top/stdout", *(f"spectra/{f}" for f in SPECTRA_FILES), "spectra/stdout",
    ]
    for f in REPORT_FILES:  # byte identity across thread counts
        assert digests[f"report-threads1/{f}"] == digests[f"report-threads2/{f}"]
    assert digests["mechanics-file/profile.csv"] == digests["mechanics-stdout/stdout"]

    # the spectra digests are those of the bytes the command writes
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    assert run(["spectra", "--dir", str(spec_dir.resolve()), "--batch-tag", "digest",
                "--out", "stats.json"]) == 0
    for f in SPECTRA_FILES:
        assert hashlib.sha256((work / f).read_bytes()).hexdigest() == digests[f"spectra/{f}"]
    stdout = capsys.readouterr().out.encode()
    assert hashlib.sha256(stdout).hexdigest() == digests["spectra/stdout"]
    assert b'"n_single_emitters": 2' in (work / "stats.json").read_bytes()
