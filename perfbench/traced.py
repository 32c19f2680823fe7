"""Run one `strainforge` CLI command with every layer wrapped in spans.

Usage: python traced.py SPANS_JSON CLI_ARG...

The wrappers live here, not in the package: each public function of a
layer module is replaced by a timing wrapper, in its own module and in
every other strainforge module that imported it by name (cli binds
calibrate_sigma and friends at import time, population binds
solve_beam_state). Spans stay in memory and are written to SPANS_JSON
when the command returns.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import os
import sys
import threading
import time

# module -> layer name; core is left out on purpose: the kernels inline it,
# so it has no entry point on any timed path.
LAYERS = {
    "strainforge.config": "config",
    "strainforge.mechanics": "mechanics",
    "strainforge.population": "population",
    "strainforge._kernels": "kernels",
    "strainforge.thermal": "thermal",
    "strainforge.spectra": "spectra",
    "strainforge.cli": "cli",
}
# private functions that are layer boundaries all the same
EXTRA = {"strainforge.cli": ["_write_atomic"]}


def _kernel_work(lo_at: int, n_out: int):
    """(samples, bytes written) of a block kernel, from its arguments."""
    def work(args, kwargs, result):
        lo, hi = int(args[lo_at]), int(args[lo_at + 1])
        row_bytes = sum(a.nbytes // len(a) for a in args[:n_out])
        return {"samples": hi - lo, "bytes": row_bytes * (hi - lo)}
    return work


def _size_of_path(args, kwargs, result):
    path = args[0] if args else kwargs.get("path", kwargs.get("source"))
    try:
        return {"bytes": os.path.getsize(path)}
    except (TypeError, OSError):
        return {"bytes": 0}


def _values(args, kwargs, result):
    import numpy as np

    return {"values": int(np.size(args[0]))}


# extra counts taken at the boundary, keyed by span name
WORK = {
    "population.sample_pre_deposition": lambda a, k, r: {"emitters": int(a[0])},
    "population.sample_post_deposition": lambda a, k, r: {"emitters": int(a[0])},
    "kernels.sample_pre_block": _kernel_work(3, 3),
    "kernels.sample_post_block": _kernel_work(6, 6),
    "kernels.top_block": _kernel_work(2, 1),
    "thermal.operational_temperature_batch": _values,
    "spectra.load_spectrum": _size_of_path,
    "cli._write_atomic": _size_of_path,
}


class Recorder:
    """Spans as tuples (id, parent, name, start, end, work)."""

    def __init__(self):
        self.spans = []
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()

    def _stack(self):
        if threading.current_thread() is self._main:
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def wrap(self, name, fn):
        work = WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            # a worker thread's first span was caused by whatever the main
            # thread is inside (run_blocks hands chunks to the pool)
            parent = stack[-1] if stack else (
                self._main_stack[-1] if self._main_stack else 0)
            with self._lock:
                sid = next(self._ids)
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
            extra = work(args, kwargs, result) if work else {}
            self.spans.append((sid, parent, name, t0, t1, extra))
            return result

        return traced


def install(recorder: Recorder) -> None:
    """Wrap every layer boundary, wherever a strainforge module binds it."""
    mods = {n: m for n, m in sys.modules.items()
            if n == "strainforge" or n.startswith("strainforge.")}
    for modname, layer in LAYERS.items():
        mod = mods[modname]
        names = list(getattr(mod, "__all__", [])) + EXTRA.get(modname, [])
        for attr in names:
            fn = getattr(mod, attr)
            if not inspect.isfunction(fn) or fn.__module__ != modname:
                continue
            wrapper = recorder.wrap(f"{layer}.{attr}", fn)
            for other in mods.values():
                for key, value in list(vars(other).items()):
                    if value is fn:
                        setattr(other, key, wrapper)


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    t0 = time.perf_counter()
    import strainforge  # noqa: F401  (imports every layer)
    import strainforge.cli as cli

    import_s = time.perf_counter() - t0
    recorder = Recorder()
    install(recorder)
    rc = cli.run(cli_args)
    with open(spans_path, "w") as fh:
        json.dump({"import_s": import_s, "rc": rc, "spans": recorder.spans}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
