import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

import strainforge
import strainforge._kernels as kernels


def _child_env(backend: str) -> dict[str, str]:
    """Environment for a fresh interpreter that selects ``backend``.

    Inherited from this process rather than built from scratch: the child
    must import the same ``strainforge`` package under test, whether it is
    reachable through ``PYTHONPATH`` (bare checkout) or an editable install.
    Only ``STRAINFORGE_BACKEND`` is overridden, and the directory holding
    the imported package goes first on ``PYTHONPATH``.
    """
    env = dict(os.environ)
    env["STRAINFORGE_BACKEND"] = backend
    pkg_root = str(Path(strainforge.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (pkg_root, env.get("PYTHONPATH")) if p
    )
    return env


class TestCounterRng:
    def test_seed_root_deterministic(self):
        assert kernels.seed_root(42) == kernels.seed_root(42)
        assert kernels.seed_root(42) != kernels.seed_root(43)

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


class TestBackend:
    def test_active_backend_valid(self):
        assert kernels.active_backend() in ("numba", "numpy")

    def test_env_flag_selects_numpy(self):
        code = (
            "import strainforge._kernels as k; print(k.active_backend())"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            env=_child_env("numpy"),
            capture_output=True, text=True, check=True,
        )
        assert out.stdout.strip() == "numpy"

    def test_bad_env_flag_rejected(self):
        code = "import strainforge._kernels"
        out = subprocess.run(
            [sys.executable, "-c", code],
            env=_child_env("fortran"),
            capture_output=True, text=True,
        )
        assert out.returncode != 0
        assert "ValueError" in out.stderr
        assert "STRAINFORGE_BACKEND" in out.stderr


class TestChunkIndependence:
    def test_pre_block_values_do_not_depend_on_chunking(self):
        from strainforge.core import SivParameters
        import strainforge.population as pop

        params = SivParameters()
        root = kernels.seed_root(5)
        n = 1000

        def run(split):
            gss = np.empty(n)
            eps = np.empty((n, 6))
            ori = np.empty(n, dtype=np.int64)
            for lo, hi in split:
                kernels._pre_block_numpy(
                    gss, eps, ori, lo, hi, root, 1e-5,
                    params.d_ghz_per_strain, params.f_ghz_per_strain,
                    params.lambda_so_ghz, pop._ROTS, False,
                )
            return gss, eps, ori

        a = run([(0, n)])
        b = run([(0, 137), (137, 612), (612, n)])
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    @given(
        cuts=st.lists(st.integers(1, 599), max_size=6, unique=True),
        include_intr=st.booleans(),
        seed=st.integers(0, 2 ** 32),
    )
    @settings(max_examples=25, deadline=None)
    def test_post_block_values_do_not_depend_on_chunking(
        self, cuts, include_intr, seed
    ):
        from strainforge.config import default_config
        from strainforge.mechanics import solve_beam_state
        import strainforge.population as pop

        cfg = default_config()
        params = cfg.siv_parameters()
        pos = cfg.position_distribution()
        field = solve_beam_state(cfg.layer_stack())
        cs = field.cross_section
        root = kernels.seed_root(seed)
        n = 600

        def run(split):
            out = (np.empty(n), np.empty((n, 6)), np.empty(n, dtype=np.int64),
                   np.empty(n), np.empty(n), np.empty(n))
            fails = 0
            for lo, hi in split:
                fails += kernels._post_block_numpy(
                    *out, lo, hi, root,
                    np.ascontiguousarray(cs.vertices_nm[:, 0]),
                    np.ascontiguousarray(cs.vertices_nm[:, 1]), cs.z_top_nm,
                    field.membrane_strain, field.curvature_per_nm,
                    field.neutral_axis_depth_nm, field.biaxiality_factor,
                    field.nu_substrate,
                    pos.aperture_x_nm, pos.aperture_y_nm,
                    pos.depth_mean_nm, pos.depth_straggle_nm,
                    pop.CRYSTAL_FROM_BEAM, pop._ROTS,
                    include_intr, 1.5e-5 if include_intr else 0.0,
                    params.d_ghz_per_strain, params.f_ghz_per_strain,
                    params.lambda_so_ghz,
                )
            return out, fails

        edges = [0, *sorted(cuts), n]
        a, fails_a = run([(0, n)])
        b, fails_b = run(list(zip(edges, edges[1:])))
        assert fails_a == fails_b
        for x, y in zip(a, b):
            assert np.array_equal(x, y, equal_nan=True)
