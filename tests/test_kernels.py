import contextlib
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import strainforge._kernels as kernels
import strainforge.population as pop
from strainforge.errors import DegenerateGeometry, InvalidParameter


class TestCounterRng:
    def test_seed_root_deterministic(self):
        assert kernels.seed_root(42) == kernels.seed_root(42)
        assert kernels.seed_root(42) != kernels.seed_root(43)

    def test_seed_root_is_one_splitmix64_step(self):
        # the first output of SplitMix64 seeded with 0 (Steele et al., OOPSLA 2014)
        assert kernels.seed_root(0) == np.uint64(0xE220A8397B1DCDAF)

    def test_negative_and_huge_seeds(self):
        for seed in (-1, -(2 ** 40), 2 ** 63, 2 ** 64 + 5):
            root = kernels.seed_root(seed)
            assert isinstance(root, np.uint64)

    def test_uniforms_in_unit_interval_and_unbiased(self):
        root = kernels.seed_root(7)
        counters = np.arange(200_000, dtype=np.uint64)
        u = kernels._u01_np(root, counters)
        assert np.all(u >= 0.0) and np.all(u < 1.0)
        assert abs(u.mean() - 0.5) < 0.005
        assert abs(u.std() - np.sqrt(1.0 / 12.0)) < 0.005
        # lag-1 serial correlation of a counter stream
        corr = np.corrcoef(u[:-1], u[1:])[0, 1]
        assert abs(corr) < 0.01

    def test_streams_disjoint_across_seeds(self):
        counters = np.arange(1000, dtype=np.uint64)
        a = kernels._u01_np(kernels.seed_root(1), counters)
        b = kernels._u01_np(kernels.seed_root(2), counters)
        assert not np.array_equal(a, b)


class TestRunBlocks:
    def test_covers_range_once(self):
        n = 200_001
        sizes = [min(kernels.CHUNK, n - lo) for lo in range(0, n, kernels.CHUNK)]
        for threads in (None, 1, 3):
            seen = np.zeros(n, dtype=int)

            def fn(lo, hi):
                seen[lo:hi] += 1
                return hi - lo

            assert list(kernels.run_blocks(n, fn, threads=threads)) == sizes
            assert np.all(seen == 1)

    def test_results_in_chunk_order_when_chunks_finish_out_of_order(self):
        # four chunks on three threads; the earlier a chunk, the longer it sleeps
        n = 3 * kernels.CHUNK + 5
        finished = []
        lock = threading.Lock()

        def fn(lo, hi):
            k = lo // kernels.CHUNK
            time.sleep(0.1 * (3 - k))
            with lock:
                finished.append(k)
            return k

        assert list(kernels.run_blocks(n, fn, threads=3)) == [0, 1, 2, 3]
        assert finished != [0, 1, 2, 3]

    @pytest.mark.parametrize("threads", [None, 1, 2, 3])
    def test_window_bounds_chunks_in_flight_behind_a_slow_consumer(self, threads):
        # a chunk is in flight from the start of fn until the consumer takes
        # it; chunks finish out of order (the later, the faster), and the
        # consumer is slower than any of them
        n = 7 * kernels.CHUNK + 1
        lock = threading.Lock()
        state = {"now": 0, "peak": 0}
        started = []

        def fn(lo, hi):
            k = lo // kernels.CHUNK
            with lock:
                started.append(k)
                state["now"] += 1
                state["peak"] = max(state["peak"], state["now"])
            time.sleep(0.004 * (7 - k))
            return k

        taken = []
        for k in kernels.run_blocks(n, fn, threads=threads):
            with lock:
                state["now"] -= 1
            taken.append(k)
            time.sleep(0.03)
        assert taken == list(range(8))
        assert sorted(started) == taken
        assert state["peak"] == (threads or 1)

    def test_chunk_error_raised_when_taken_in_chunk_order(self):
        # chunk 2 fails at once, chunk 1 later; chunk 0 is yielded first,
        # then chunk 1's error, whichever failed first
        n = 4 * kernels.CHUNK

        def fn(lo, hi):
            k = lo // kernels.CHUNK
            if k:
                time.sleep(0.05 * (k == 1))
                raise DegenerateGeometry(f"chunk {k}")
            return k

        chunks = kernels.run_blocks(n, fn, threads=3)
        assert next(chunks) == 0
        with pytest.raises(DegenerateGeometry, match="chunk 1"):
            next(chunks)

    def test_single_thread_path(self):
        calls = []
        list(kernels.run_blocks(10, lambda lo, hi: calls.append((lo, hi)), threads=None))
        assert calls == [(0, 10)]

    @pytest.mark.parametrize("threads", [None, 2])
    def test_chunk_bounds_are_built_as_they_are_taken(self, threads):
        # 2**18 chunks: a list of their bounds took 33 MB before the first chunk ran
        calls = []
        tracemalloc.start()
        try:
            chunks = kernels.run_blocks(2 ** 34, lambda lo, hi: calls.append(lo) or hi, threads)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20
        assert calls == []
        assert next(chunks) == kernels.CHUNK
        chunks.close()

    @pytest.mark.parametrize("threads", [0, -3])
    def test_threads_below_one_rejected(self, threads):
        # raised by the call itself, not when the first chunk is taken
        calls = []
        with pytest.raises(InvalidParameter, match="threads"):
            kernels.run_blocks(200_001, lambda lo, hi: calls.append(lo), threads=threads)
        assert calls == []


class TestChunkIndependence:
    # two of the ensemble's sub-blocks and a short third; cuts fall anywhere,
    # and often within a few emitters of the first sub-block edge
    N = 2 * pop._SUB + 5

    @given(
        cuts=st.lists(st.integers(pop._SUB - 3, pop._SUB + 3)
                      | st.integers(1, N - 1), max_size=6, unique=True),
        seed=st.integers(0, 2 ** 32),
    )
    @settings(max_examples=25, deadline=None)
    def test_post_block_values_do_not_depend_on_chunking(self, cuts, seed):
        from strainforge.config import default_config

        cfg = default_config()
        pos = cfg.position
        cs = cfg.stack.cross_section
        root = kernels.seed_root(seed)
        n = self.N

        def run(lo, hi):
            return kernels.draw_post_block(lo, hi, root, 3, cs, pos)

        edges = [0, *sorted(cuts), n]
        whole = run(0, n)
        parts = [run(lo, hi) for lo, hi in zip(edges, edges[1:])]
        for i in range(5):
            assert np.array_equal(whole[i], np.concatenate([p[i] for p in parts]))

    @pytest.mark.parametrize("seed", [0, 17])
    def test_ensemble_sub_blocks_equal_one_whole_draw(self, cfg, seed):
        # draw_ensemble draws _SUB emitters at a time: what it keeps is the
        # one-call draw of [0, N), bit for bit, across every sub-block edge
        _, _, depth, o, z = kernels.draw_post_block(0, self.N, kernels.seed_root(seed), 1,
                                                    cfg.stack.cross_section, cfg.position)
        s = pop._tables(cfg.stack, cfg.siv, maps=False)[2]
        draw = pop.draw_ensemble(self.N, cfg.stack, cfg.position, cfg.siv, seed)
        assert draw._depth.tobytes() == depth.tobytes()
        assert np.array_equal(draw._ori, o)
        assert draw._unit.tobytes() == (s[:, None] * z.T).tobytes()


class TestPairCount:
    """An ensemble kept for calibration draws one Box-Muller pair per
    emitter; it is the first pair of the sampler's three, at the same
    counters."""

    def test_post_pair_is_the_first_of_three(self, cfg):
        root = kernels.seed_root(5)
        one, three = (kernels.draw_post_block(10, 700, root, n_pairs,
                                              cfg.stack.cross_section, cfg.position)
                      for n_pairs in (1, 3))
        for i in range(4):
            assert np.array_equal(one[i], three[i])
        assert three[4].shape == (690, 6)
        assert np.array_equal(one[4], three[4][:, :2])


class TestCounterBudget:
    """Emitter i reads only counters [i, i + 1) * DRAWS_PER_SAMPLE, however
    many position attempts it takes: its draws depend on no other emitter,
    which is what makes them thread and chunk invariant."""

    @pytest.mark.parametrize("depth_mean_nm,depth_straggle_nm,fails", [
        # about one attempt-0 depth in five is above the surface
        pytest.param(35.0, 40.0, False, id="35.0-40.0"),
        # far below the apex: every attempt fails
        pytest.param(1e5, 0.0, True, id="100000.0-0.0"),
    ])
    def test_emitter_reads_only_its_own_counters(self, cfg, monkeypatch,
                                                 depth_mean_nm, depth_straggle_nm, fails):
        from strainforge.population import _TENSOR_PAIRS, PositionDistribution

        read = []
        u01 = kernels._u01_np

        def recorded(root, counters):
            read.append(counters.copy())
            return u01(root, counters)

        monkeypatch.setattr(kernels, "_u01_np", recorded)
        pos = PositionDistribution(depth_mean_nm=depth_mean_nm,
                                   depth_straggle_nm=depth_straggle_nm)
        root = kernels.seed_root(11)
        budget = kernels.DRAWS_PER_SAMPLE
        retried = 0
        # one emitter per block, so every counter read belongs to it
        for i in range(1000, 1100):
            read.clear()
            with pytest.raises(DegenerateGeometry) if fails else contextlib.nullcontext():
                kernels.draw_post_block(i, i + 1, root, _TENSOR_PAIRS,
                                        cfg.stack.cross_section, pos)
            counters = np.concatenate(read)
            assert np.all(counters >= np.uint64(i * budget))
            assert np.all(counters < np.uint64((i + 1) * budget))
            offsets = counters - np.uint64(i * budget)
            retried += bool(np.any((offsets >= 4) & (offsets < 4 * kernels.MAX_POSITION_ATTEMPTS)))
        assert retried > 0


def test_containment_failure_names_its_chunk(cfg):
    from strainforge.population import PositionDistribution

    pos = PositionDistribution(depth_mean_nm=1e5, depth_straggle_nm=0.0)
    with pytest.raises(DegenerateGeometry) as exc:
        kernels.draw_post_block(5, 8, kernels.seed_root(3), 1, cfg.stack.cross_section, pos)
    assert str(exc.value) == ("3 of emitters [5, 8) failed substrate containment "
                              f"after {kernels.MAX_POSITION_ATTEMPTS} attempts each")


def _child_env():
    env = dict(os.environ)
    pkg_root = str(Path(kernels.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (pkg_root, env.get("PYTHONPATH")) if p
    )
    return env


def test_cli_import_loads_no_thread_pool_or_csv():
    # the pool is imported when a run takes two threads, csv when a
    # spectrum needs the row-by-row parse
    code = ("import sys, strainforge.cli\n"
            "print([m for m in ('concurrent.futures', 'csv') if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], env=_child_env(),
                         capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"


def test_kernel_micro_benchmark_runs():
    # benchmarks/bench_kernels.py reaches into private sampler helpers; keep it runnable
    bench = Path(__file__).resolve().parents[1] / "benchmarks" / "bench_kernels.py"
    out = subprocess.run(
        [sys.executable, str(bench), "--n", "2000", "--repeats", "1"],
        env=_child_env(), capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    headers = [line for line in out.stdout.splitlines() if line and not line.startswith(" ")]
    assert [h.split(" (")[0].split(":")[0] for h in headers] == [
        "one ensemble", "mean gss at 700 MPa", "sample CSV text"]
