import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import strainforge._kernels as kernels


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
        seen = np.zeros(200_001, dtype=int)

        def fn(lo, hi):
            seen[lo:hi] += 1
            return hi - lo

        total = kernels.run_blocks(200_001, fn, threads=3)
        assert total == 200_001
        assert np.all(seen == 1)

    def test_single_thread_path(self):
        calls = []
        kernels.run_blocks(10, lambda lo, hi: calls.append((lo, hi)), threads=None)
        assert calls == [(0, 10)]

    @pytest.mark.parametrize("threads", [0, -3])
    def test_threads_below_one_rejected(self, threads):
        calls = []
        with pytest.raises(ValueError, match="threads"):
            kernels.run_blocks(200_001, lambda lo, hi: calls.append(lo), threads=threads)
        assert calls == []


class TestChunkIndependence:
    @given(
        cuts=st.lists(st.integers(1, 599), max_size=6, unique=True),
        seed=st.integers(0, 2 ** 32),
    )
    @settings(max_examples=25, deadline=None)
    def test_post_block_values_do_not_depend_on_chunking(self, cuts, seed):
        from strainforge.config import default_config

        cfg = default_config()
        pos = cfg.position
        cs = cfg.stack.cross_section
        root = kernels.seed_root(seed)
        n = 600

        def run(lo, hi):
            return kernels.draw_post_block(
                lo, hi, root, 3,
                np.ascontiguousarray(cs.vertices_nm[:, 0]),
                np.ascontiguousarray(cs.vertices_nm[:, 1]), cs.z_top_nm,
                pos.aperture_x_nm, pos.aperture_y_nm,
                pos.depth_mean_nm, pos.depth_straggle_nm,
            )

        edges = [0, *sorted(cuts), n]
        whole = run(0, n)
        parts = [run(lo, hi) for lo, hi in zip(edges, edges[1:])]
        assert whole[-1] == sum(p[-1] for p in parts)
        for i in range(5):
            joined = np.concatenate([p[i] for p in parts])
            assert np.array_equal(whole[i], joined, equal_nan=True)


class TestPairCount:
    """An ensemble kept for calibration draws one Box-Muller pair per
    emitter; it is the first pair of the sampler's three, at the same
    counters."""

    def test_post_pair_is_the_first_of_three(self, cfg):
        from strainforge.population import _draw_post

        one, three = (_draw_post(5, cfg.position, cfg.stack.cross_section, n_pairs)(10, 700)
                      for n_pairs in (1, 3))
        for i in (0, 1, 2, 3, 5):
            assert np.array_equal(one[i], three[i])
        assert three[4].shape == (690, 6)
        assert np.array_equal(one[4], three[4][:, :2])


def test_kernel_micro_benchmark_runs():
    # benchmarks/bench_kernels.py reaches into private sampler helpers; keep it runnable
    bench = Path(__file__).resolve().parents[1] / "benchmarks" / "bench_kernels.py"
    env = dict(os.environ)
    pkg_root = str(Path(kernels.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (pkg_root, env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, str(bench), "--n", "1000", "--repeats", "1"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
