"""strainforge benchmark: time CLI workloads end to end, per layer from outside.

    python3 perfbench/run.py --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --smoke

The package is taken from src/ next to this directory. Each operation is
one fresh `strainforge` process, one client in a closed loop. Operations
repeat while their own time stays within --seconds (at least one), and
each one's outputs are checked after it, outside the timed section.

--trace 0 prints the end-to-end metrics: wall_s, items_per_s, peak_rss_mb
(medians over operations) and setup_s (median of fresh-process
`import strainforge` + `load_config`). --trace 1 runs one untraced
operation and one with every layer wrapped in spans (perfbench/traced.py),
and prints the per-layer metrics and the tracing overhead. `.s` metrics are
inclusive time summed over calls; `.self_s` excludes time in nested spans.
Layers a workload does not run read 0.

--smoke runs every workload at a tiny size, traced and untraced, and then
corrupts each output to show that the checks count it as failed.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics. fail_ratio is failed / attempted; it is printed with the metrics
but carried in the JSON by those two counts.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, nproc  # noqa: E402

SETUP_PROBES = 3
CHILD_TIMEOUT_S = 170.0
DEFAULT_SEED = 20260809  # monte_carlo.seed of the default config

SETUP_PROBE = """
import time
t0 = time.perf_counter()
import strainforge
strainforge.load_config()
setup_s = time.perf_counter() - t0
import json, sys, numpy, scipy
backend = getattr(strainforge, "active_backend", None)
print(json.dumps({"setup_s": setup_s, "python": sys.version.split()[0],
                  "numpy": numpy.__version__, "scipy": scipy.__version__,
                  "backend": backend() if backend else None}))
"""


class Child:
    """Fresh interpreter with ./src on its path, timed from spawn to exit."""

    def __init__(self, work: Path):
        self.work = work
        path = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))

    def run(self, args: list) -> tuple[float, float, int, str, str]:
        """(wall s, peak RSS MB, exit code, stdout, stderr) of one process."""
        with tempfile.TemporaryFile(dir=self.work) as out, \
                tempfile.TemporaryFile(dir=self.work) as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *args], stdout=out, stderr=err,
                                    env=self.env, cwd=self.work)
            killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            return (wall, usage.ru_maxrss / 1024.0, proc.returncode,
                    out.read().decode(), err.read().decode())


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, name: str, problems: list) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"# FAIL {name}: " + "; ".join(problems[:5]), file=sys.stderr)
        return not problems


def run_op(child: Child, wl, inp, out: Path, traced_spans: Path | None = None):
    """One operation plus its checks: (wall, rss_mb, problems, stdout)."""
    out.mkdir(parents=True)
    cli = wl.argv(inp, out)
    args = ([str(HERE / "traced.py"), str(traced_spans), *cli] if traced_spans
            else ["-m", "strainforge.cli", *cli])
    wall, rss, rc, stdout, stderr = child.run(args)
    if rc:
        return wall, rss, [f"exit {rc}: {stderr.strip()[-300:]}"], stdout
    try:
        problems = wl.check(inp, out, stdout)
    except (KeyError, TypeError, ValueError, IndexError) as exc:  # malformed output
        problems = [f"check raised {exc!r}"]
    return wall, rss, problems, stdout


def setup_probe(child: Child) -> dict:
    _, _, rc, stdout, stderr = child.run(["-c", SETUP_PROBE])
    if rc:
        raise RuntimeError(f"cannot import strainforge from {SRC}: {stderr.strip()}")
    return json.loads(stdout)


def measure(child, wl, inp, work: Path, seconds: float, tally: Tally) -> tuple[list, list]:
    """Untraced operations until their own time would pass `seconds` (checks
    not counted; at least one): ([(wall, rss)] of those that passed their
    checks, or of all if none did; every wall)."""
    ops, passed = [], []
    while True:
        out = work / f"op{len(ops)}"
        wall, rss, problems, _ = run_op(child, wl, inp, out)
        ops.append((wall, rss))
        if tally.record(wl.name, problems):
            passed.append((wall, rss))
        shutil.rmtree(out)
        walls = [w for w, _ in ops]
        if sum(walls) + statistics.median(walls) > seconds:
            return passed or ops, walls


# --------------------------------------------------------------------------
# per-layer metrics from spans
# --------------------------------------------------------------------------

def _union(intervals) -> float:
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b > end:
            total += b - max(a, end)
            end = b
    return total


def layer_metrics(trace: dict) -> dict:
    spans = [dict(zip(("id", "parent", "name", "t0", "t1", "work"), s))
             for s in trace["spans"]]
    by_id = {s["id"]: s for s in spans}
    kids = defaultdict(list)
    for s in spans:
        kids[s["parent"]].append(s)

    def named(name):
        return [s for s in spans if s["name"] == name]

    def total(name):
        return sum(s["t1"] - s["t0"] for s in named(name))

    def work(name, key):
        return sum(s["work"].get(key, 0) for s in named(name))

    def under(s, ancestor):
        while s["parent"] in by_id:
            s = by_id[s["parent"]]
            if s["name"] == ancestor:
                return True
        return False

    def ratio(a, b):
        return a / b if b else 0.0

    m = {"setup.import_s": (trace["import_s"], "s"),
         "config.load_s": (total("config.load_config"), "s")}
    m["mechanics.solve.calls"] = (len(named("mechanics.solve_beam_state")), "count")
    m["mechanics.solve.s"] = (total("mechanics.solve_beam_state"), "s")

    draws = named("population.sample_pre_deposition") + named("population.sample_post_deposition")
    drawn = sum(s["work"]["emitters"] for s in draws)
    final = sum(s["work"]["emitters"] for s in draws
                if not (under(s, "population.calibrate_sigma")
                        or under(s, "population.calibrate_film_stress")))
    for short, fn, draw in (("sigma", "calibrate_sigma", "sample_pre_deposition"),
                            ("stress", "calibrate_film_stress", "sample_post_deposition")):
        m[f"population.calibrate_{short}.s"] = (total(f"population.{fn}"), "s")
        m[f"population.calibrate_{short}.evals"] = (
            sum(under(s, f"population.{fn}") for s in named(f"population.{draw}")), "count")
    m["population.sample_pre.s"] = (total("population.sample_pre_deposition"), "s")
    m["population.sample_post.s"] = (total("population.sample_post_deposition"), "s")
    m["population.summarize.s"] = (total("population.summarize"), "s")
    m["population.emitters_drawn"] = (drawn, "count")
    m["population.draw_useful_ratio"] = (ratio(final, drawn), "ratio")

    for short in ("pre", "post", "top"):
        name = f"kernels.{'top_block' if short == 'top' else f'sample_{short}_block'}"
        busy = total(name)
        m[f"kernels.{short}_block.s"] = (busy, "s")
        m[f"kernels.{short}_block.calls"] = (len(named(name)), "count")
        m[f"kernels.{short}_block.samples_per_s"] = (ratio(work(name, "samples"), busy), "1/s")
    m["kernels.bytes_out_computed"] = (
        sum(s["work"].get("bytes", 0) for s in spans if s["name"].startswith("kernels.")), "B")

    batches = named("thermal.operational_temperature_batch")
    solved = sum(s["work"]["values"] for s in batches)
    needed = sum(s["work"]["values"] for s in batches
                 if not under(s, "thermal.operability_curve"))
    m["thermal.top_batch.s"] = (total("thermal.operational_temperature_batch"), "s")
    m["thermal.top_values"] = (solved, "count")
    m["thermal.top_useful_ratio"] = (ratio(needed, solved), "ratio")
    m["thermal.operability_curve.s"] = (total("thermal.operability_curve"), "s")

    load_s = total("spectra.load_spectrum")
    detects = len(named("spectra.detect_peaks"))
    m["spectra.load.s"] = (load_s, "s")
    m["spectra.load.mb_per_s"] = (ratio(work("spectra.load_spectrum", "bytes") / 1e6, load_s), "MB/s")
    m["spectra.detect.s"] = (total("spectra.detect_peaks"), "s")
    m["spectra.detect.calls"] = (detects, "count")
    m["spectra.detect_per_spectrum"] = (ratio(detects, len(named("spectra.load_spectrum"))), "ratio")
    m["spectra.batch_stats.s"] = (total("spectra.batch_gss_stats"), "s")
    m["spectra.pool.s"] = (total("spectra.pool_transitions"), "s")

    m["cli.write.s"] = (total("cli._write_atomic"), "s")
    m["cli.write.bytes"] = (work("cli._write_atomic", "bytes"), "B")

    self_s = defaultdict(float)
    for s in spans:
        inner = [(max(k["t0"], s["t0"]), min(k["t1"], s["t1"])) for k in kids[s["id"]]]
        self_s[s["name"].split(".")[0]] += s["t1"] - s["t0"] - _union(inner)
    for layer in ("config", "mechanics", "population", "kernels", "thermal", "spectra", "cli"):
        m[f"{layer}.self_s"] = (self_s[layer], "s")
    return m


RESULT_UNITS = {"result.pre_mean_err_ghz": "GHz", "result.post_mean_err_ghz": "GHz",
                "result.c7_margin": "ratio"}


def traced_op(child, wl, inp, work: Path, untraced_wall: float, tally: Tally) -> dict:
    spans_path, out = work / "spans.json", work / "traced"
    wall, _, problems, _ = run_op(child, wl, inp, out, traced_spans=spans_path)
    tally.record(wl.name + " (traced)", problems)
    trace = (json.loads(spans_path.read_text()) if spans_path.exists()
             else {"import_s": 0.0, "spans": []})
    m = layer_metrics(trace)
    results = wl.results(out) if wl.results and not problems else {}
    for name, unit in RESULT_UNITS.items():
        m[name] = (results.get(name, 0.0), unit)
    m["trace.wall_s"] = (wall, "s")
    m["trace.overhead_s"] = (wall - untraced_wall, "s")
    return m


# --------------------------------------------------------------------------
# driver
# --------------------------------------------------------------------------

def run_workload(wl, seed: int, seconds: float, trace: bool, smoke: bool, work: Path):
    """One run of one workload: (tally, metrics {name: (value, unit)}, meta)."""
    work.mkdir(parents=True)
    child = Child(work)
    tally = Tally()
    size = wl.smoke_size if smoke else wl.full_size
    probes = [setup_probe(child) for _ in range(1 if trace else SETUP_PROBES)]
    meta = {k: probes[0][k] for k in ("python", "numpy", "scipy", "backend")}
    meta.update(workload=wl.name, size=size, seed=seed, nproc=nproc(),
                machine=platform.machine(), trace=int(trace))
    inp = wl.prepare(work, seed, size)
    # a traced run needs one untraced operation, to measure the tracing overhead
    passed, walls = measure(child, wl, inp, work, 0.0 if trace else seconds, tally)
    wall = statistics.median(w for w, _ in passed)
    if trace:
        metrics = traced_op(child, wl, inp, work, wall, tally)
    else:
        metrics = {
            "wall_s": (wall, "s"),
            "items_per_s": (statistics.median(size / w for w, _ in passed), "1/s"),
            "setup_s": (statistics.median(p["setup_s"] for p in probes), "s"),
            "peak_rss_mb": (statistics.median(r for _, r in passed), "MB"),
        }
    meta.update(items=f"{size} {wl.unit}", op_walls_s=[round(w, 3) for w in walls])
    return tally, metrics, meta


def emit(results: list) -> dict:
    """Print one line per metric, then return the JSON result."""
    attempted = sum(t.attempted for _, t, _, _ in results)
    failed = sum(t.failed for _, t, _, _ in results)
    out = {}
    for wl, tally, metrics, meta in results:
        prefix = f"{wl.name}." if len(results) > 1 else ""
        print(f"# meta {json.dumps(meta, sort_keys=True)}")
        for name, (value, unit) in metrics.items():
            print(f"{wl.name:16s} {name:40s} {value:.6g} {unit}")
            out[prefix + name] = {"value": value, "unit": unit}
        print(f"{wl.name:16s} {'fail_ratio':40s} {tally.failed / max(tally.attempted, 1):.6g} "
              f"({tally.failed}/{tally.attempted})")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": out}


def smoke(root_work: Path) -> int:
    """Tiny sizes, untraced and traced; a corrupted output must fail its checks,
    and the metric names and units must be the ones BENCHMARK.json declares."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {t: {m["name"]: m["unit"] for m in spec[key]}
                for t, key in ((False, "end_to_end"), (True, "per_layer"))}
    results, ok = [], True
    for wl in WORKLOADS.values():
        for trace in (False, True):
            run = run_workload(wl, DEFAULT_SEED, 0.0, trace, True,
                               root_work / f"{wl.name}-trace{int(trace)}")
            results.append((wl, *run))
            names = {k: unit for k, (_, unit) in run[1].items()}
            if names != declared[trace]:
                print(f"# {wl.name} trace {int(trace)}: metrics differ from BENCHMARK.json: "
                      f"{sorted(set(names.items()) ^ set(declared[trace].items()))}")
                ok = False
            ok = ok and run[0].failed == 0
        work = root_work / wl.name / "negative"
        inp = wl.prepare(work, DEFAULT_SEED, wl.smoke_size)
        _, _, problems, stdout = run_op(Child(work), wl, inp, work / "out")
        wl.corrupt(work / "out")
        corrupted = Tally()
        corrupted.record(f"{wl.name} (corrupted on purpose)", wl.check(inp, work / "out", stdout))
        caught = not problems and corrupted.failed == 1
        print(f"# negative check {wl.name}: fail_ratio {corrupted.failed}/"
              f"{corrupted.attempted} after corruption -> {'ok' if caught else 'NOT CAUGHT'}")
        ok = ok and caught
    print(json.dumps(emit(results)))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not args.smoke and not args.workload:
        parser.error("--workload or --smoke is required")
    if not (SRC / "strainforge" / "cli.py").is_file():
        print(f"error: no strainforge sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    root_work = Path(tempfile.mkdtemp(dir=ROOT / ".perfbench_work"))
    try:
        if args.smoke:
            return smoke(root_work)
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        results = [(WORKLOADS[n], *run_workload(WORKLOADS[n], args.seed, args.seconds,
                                                bool(args.trace), False, root_work / n))
                   for n in names]
        print(json.dumps(emit(results)))
        return 0
    finally:
        shutil.rmtree(root_work, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            root_work.parent.rmdir()


if __name__ == "__main__":
    sys.exit(main())
