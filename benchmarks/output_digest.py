"""Print a SHA-256 digest of every output of the strainforge command line,
so that two checkouts can be shown to write the same bytes.

Each command runs as a child process (``python -m strainforge.cli``, with
the ``src/`` beside this script first on the path and no
STRAINFORGE_CONFIG) in a fresh temporary directory, with relative output
paths, so the paths a command echoes on stdout are the same in any
checkout. The commands are ``report`` at --threads 1 and 2, ``sample``
before and after deposition, ``mechanics --depth-profile`` to a file and
to stdout, ``top``, and ``spectra`` on DIR when --spectra-dir is given.
One ``sha256  name`` line is printed per output file (``command/file``)
and per stdout (``command/stdout``), in a fixed order; diff the output of
two trees to compare them.

    python benchmarks/output_digest.py [--n N] [--seed S] [--spectra-dir DIR]
"""

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def commands(n, seed, spectra_dir):
    """(name, argv) of each command, in output order."""
    mc = ["--n", str(n), "--seed", str(seed)]
    yield "report-threads1", ["report", *mc, "--threads", "1", "--out-dir", "out"]
    yield "report-threads2", ["report", *mc, "--threads", "2", "--out-dir", "out"]
    for phase in ("pre", "post"):
        yield f"sample-{phase}", ["sample", "--phase", phase, *mc, "--threads", "2",
                                  "--out", "samples.csv"]
    yield "mechanics-file", ["mechanics", "--depth-profile", "--out", "profile.csv"]
    yield "mechanics-stdout", ["mechanics", "--depth-profile"]
    yield "top", ["top", "--gss-ghz", "700"]
    if spectra_dir is not None:
        yield "spectra", ["spectra", "--dir", str(Path(spectra_dir).resolve()),
                          "--batch-tag", "digest", "--out", "stats.json"]


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def digests(name, argv, env):
    """(digest, label) of each file ``argv`` writes, sorted by path, then
    of its stdout; a failed command raises SystemExit with its stderr."""
    with tempfile.TemporaryDirectory(prefix="sf-digest-") as tmp:
        proc = subprocess.run([sys.executable, "-m", "strainforge.cli", *argv], cwd=tmp,
                              env=env, capture_output=True)
        if proc.returncode:
            raise SystemExit(f"{name}: exit {proc.returncode}: {proc.stderr.decode().strip()}")
        for path in sorted(p for p in Path(tmp).rglob("*") if p.is_file()):
            yield sha256_file(path), f"{name}/{path.relative_to(tmp).as_posix()}"
    yield hashlib.sha256(proc.stdout).hexdigest(), f"{name}/stdout"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--n", type=int, default=200_000, help="ensemble size (default 200000)")
    ap.add_argument("--seed", type=int, default=20260809, help="seed (default 20260809)")
    ap.add_argument("--spectra-dir", help="directory of spectrum CSV files for `spectra`")
    args = ap.parse_args(argv)
    env = {k: v for k, v in os.environ.items() if k != "STRAINFORGE_CONFIG"}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    for name, cli in commands(args.n, args.seed, args.spectra_dir):
        for digest, label in digests(name, cli, env):
            print(f"{digest}  {label}", flush=True)


if __name__ == "__main__":
    main()
