import json

import numpy as np
import pytest

import strainforge._kernels as kernels
import strainforge.cli as cli
import strainforge.population as pop
import strainforge.spectra as spectra
import strainforge.thermal as thermal
from conftest import csv_rows, splitting_from_strain, synth_spectrum, write_spectrum
from strainforge.cli import _write_atomic, run
from strainforge.config import default_config, load_config
from strainforge.core import ORIENTATIONS, Frame, StrainTensor
from strainforge.errors import DegenerateGeometry

FAST_CFG = {"monte_carlo": {"n": 20000, "seed": 5}}


def _sample(cfg, phase, n, seed):
    """The library's draw behind ``sample --phase``: the configured film
    stress after deposition, zero before it."""
    stress = cfg.film_stress_mpa if phase == "post" else 0.0
    return pop.sample_post_deposition(n, cfg.stack, cfg.position, cfg.siv, seed,
                                      sigma=cfg.sigma_unstrained, stress_mpa=stress)


@pytest.fixture
def fast_config(tmp_path):
    path = tmp_path / "fast.json"
    path.write_text(json.dumps(FAST_CFG))
    return str(path)


class TestExitCodes:
    def test_top_reference_point(self, capsys):
        assert run(["top", "--gss-ghz", "554"]) == 0
        assert capsys.readouterr().out == "1.5000 K\n"

    def test_top_tiny_reference_splitting(self, tmp_path, capsys):
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps({"thermal": {"gss_ref_ghz": 1e-15, "temp_ref_k": 300.0}}))
        assert run(["top", "--gss-ghz", "554", "--config", str(path)]) == 0
        assert capsys.readouterr().out == "0.3353 K\n"

    def test_top_underflowing_reference_splitting(self, tmp_path, capsys):
        # K*gss/T underflows to 0 at the reference: a temperature, no traceback
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps({"thermal": {"gss_ref_ghz": 1e-322, "temp_ref_k": 300.0}}))
        assert run(["top", "--gss-ghz", "554", "--config", str(path)]) == 0
        assert capsys.readouterr().out == "0.0178 K\n"

    def test_top_domain_error(self, capsys):
        assert run(["top", "--gss-ghz", "-5"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert len(err.strip().splitlines()) == 1

    def test_self_intersecting_polygon_in_config(self, tmp_path, capsys):
        path = tmp_path / "crossed.json"
        polygon = [[0, 0], [4, 0], [4, 4], [2, -1], [0, 4]]
        path.write_text(json.dumps({"mechanics": {"cross_section_polygon_nm": polygon}}))
        assert run(["mechanics", "--depth-profile", "--config", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: mechanics.cross_section_polygon_nm: polygon is self-intersecting\n")

    def test_unknown_subcommand_usage_error(self, capsys):
        assert run(["frobnicate"]) == 2

    def test_missing_required_flag(self, capsys):
        assert run(["top"]) == 2

    def test_no_arguments(self, capsys):
        assert run([]) == 2

    @pytest.mark.parametrize("argv", [["sample", "--phase", "pre"],
                                      ["calibrate", "--what", "sigma", "--target-ghz", "119"]])
    def test_pre_deposition_needs_placeable_emitters(self, tmp_path, capsys, argv):
        # before deposition is the same implanted emitters at zero film
        # stress, so an implantation depth past the section is an error
        path = tmp_path / "deep.json"
        path.write_text(json.dumps({"position": {"depth_mean_nm": 5000.0}}))
        out = ["--out", str(tmp_path / "s.csv")] if argv[0] == "sample" else []
        assert run([*argv, *out, "--n", "50", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert _one_line_error(err) and "substrate containment" in err

    def test_containment_failure_names_the_first_chunk_at_any_thread_count(
            self, tmp_path, capsys):
        # with two chunks, the short second one fails first on two threads
        path = tmp_path / "deep.json"
        path.write_text(json.dumps({"position": {"depth_mean_nm": 5000.0}}))
        n = kernels.CHUNK + 1
        for threads in ("1", "2"):
            out = tmp_path / f"s{threads}.csv"
            assert run(["sample", "--phase", "post", "--n", str(n), "--threads", threads,
                        "--out", str(out), "--config", str(path)]) == 1
            assert capsys.readouterr().err == (
                f"error: {kernels.CHUNK} of emitters [0, {kernels.CHUNK}) failed substrate "
                f"containment after {kernels.MAX_POSITION_ATTEMPTS} attempts each\n")
            assert not out.exists()

    @pytest.mark.parametrize("command", [["report", "--out-dir", "{out}"],
                                         ["calibrate", "--what", "sigma", "--target-ghz", "119"]])
    def test_ensemble_containment_failure_names_its_first_sub_block(self, tmp_path, capsys,
                                                                    command):
        # an ensemble is drawn _SUB emitters at a time, so its error names
        # the first sub-block of the first chunk at any thread count
        path = tmp_path / "deep.json"
        path.write_text(json.dumps({"position": {"depth_mean_nm": 5000.0}}))
        n = 2 * kernels.CHUNK + 1
        for threads in ("1", "2"):
            argv = [a.replace("{out}", str(tmp_path / f"r{threads}")) for a in command]
            assert run([*argv, "--n", str(n), "--threads", threads,
                        "--config", str(path)]) == 1
            assert capsys.readouterr().err == (
                f"error: {pop._SUB} of emitters [0, {pop._SUB}) failed substrate "
                f"containment after {kernels.MAX_POSITION_ATTEMPTS} attempts each\n")

    def test_n_beyond_the_counter_space_is_one_line(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        n = 2 ** 55 + 1
        assert run(["sample", "--phase", "pre", "--n", str(n), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: n must be <= {2 ** 55}, got {n}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        ["sample", "--phase", "pre", "--n", "5", "--out", "{out}"],
        ["calibrate", "--what", "sigma", "--target-ghz", "46", "--n", "5"],
        ["report", "--n", "10", "--out-dir", "{out}"],
    ])
    @pytest.mark.parametrize("seed", ["-1", str(2 ** 64 + 1)])
    def test_seed_outside_the_root_space_is_one_line(self, tmp_path, capsys,
                                                     command, seed):
        # seeds are read mod 2**64, so these would alias 2**64 - 1 and 1
        out = tmp_path / "out"
        argv = [a.format(out=out) for a in command] + ["--seed", seed]
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: seed must be in [0, 2**64), got {seed}\n"
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        ["sample", "--phase", "post", "--out", "{out}"],
        ["calibrate", "--what", "sigma", "--target-ghz", "119"],
        ["report", "--out-dir", "{out}"],
    ], ids=["sample", "calibrate", "report"])
    def test_allocation_beyond_memory_is_one_line(self, tmp_path, capsys, command):
        # the largest n the counter space allows: one float64 per emitter is
        # 2**58 bytes, beyond any 64-bit address space, so the allocation fails at once
        out = tmp_path / "out"
        argv = [a.format(out=out) for a in command] + ["--n", str(pop._MAX_N)]
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert captured.out == ""
        assert not out.exists()

    def test_bad_config_is_domain_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"unknown_section": {}}))
        assert run(["top", "--gss-ghz", "554", "--config", str(bad)]) == 1

    def test_strain_beyond_the_small_strain_regime_is_one_line(self, tmp_path, capsys):
        # the film stress loads fine; the beam's strain at the surface is rejected
        path = tmp_path / "hard.json"
        path.write_text(json.dumps({"mechanics": {"film": {"intrinsic_stress_mpa": 5e6}}}))
        out = tmp_path / "profile.csv"
        assert run(["mechanics", "--depth-profile", "--out", str(out),
                    "--config", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: |eps| must stay below 0.1 (small-strain regime)\n"
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("text, command, message", [
        ('{"population": {"sample_frame": "defect"}}', ["report", "--out-dir", "{out}"],
         "error: unknown key(s) at population: ['sample_frame']"),
        ('{"monte_carlo": {"n": Infinity}}',
         ["sample", "--phase", "pre", "--out", "{out}/s.csv"],
         "error: monte_carlo.n: expected a finite number"),
        ('{"monte_carlo": {"seed": -3}}',
         ["sample", "--phase", "pre", "--n", "5", "--out", "{out}/s.csv"],
         "error: monte_carlo.seed must be in [0, 2**64)"),
        (b"\xff\xfe{}", ["top", "--gss-ghz", "600"],
         "error: config {bad} is not valid JSON: 'utf-8' codec can't decode byte 0xff "
         "in position 0: invalid start byte"),
        ('{"population": {"sigma_unstrained": -1e-5}}',
         ["sample", "--phase", "post", "--n", "5", "--out", "{out}/s.csv"],
         "error: population.sigma_unstrained must be >= 0"),
    ])
    def test_config_value_error_is_one_line(self, tmp_path, capsys, text, command, message):
        bad = tmp_path / "bad.json"
        bad.write_bytes(text if isinstance(text, bytes) else text.encode())
        out = tmp_path / "out"
        argv = [a.format(out=out) for a in command] + ["--config", str(bad)]
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == message.format(bad=bad) + "\n"
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        ["sample", "--phase", "pre", "--n", "10", "--out", "{out}"],
        ["calibrate", "--what", "sigma", "--target-ghz", "119", "--n", "10"],
        ["report", "--n", "10", "--out-dir", "{out}"],
    ])
    @pytest.mark.parametrize("threads", ["0", "-3", "two"])
    def test_threads_not_positive_int_is_usage_error(self, tmp_path, capsys,
                                                      command, threads):
        out = tmp_path / "out"
        argv = [a.format(out=out) for a in command] + ["--threads", threads]
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--threads" in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        ["mechanics", "--depth-profile", "--out", "{out}"],
        ["top", "--gss-ghz", "554"],
        ["spectra", "--dir", "{out}", "--batch-tag", "t", "--out", "{out}/stats.json"],
    ])
    @pytest.mark.parametrize("flag", ["--seed", "--threads"])
    def test_deterministic_command_rejects_monte_carlo_flag(self, tmp_path, capsys,
                                                            command, flag):
        out = tmp_path / "out"
        argv = [a.format(out=out) for a in command] + [flag, "1"]
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unrecognized arguments: {flag} 1" in captured.err
        assert not out.exists()


def _one_line_error(err: str) -> bool:
    return err.startswith("error:") and len(err.strip().splitlines()) == 1


class TestWriteAtomic:
    def test_failed_replace_leaves_no_temp_file(self, tmp_path):
        target = tmp_path / "taken"
        target.mkdir()
        (target / "keep").write_text("x")
        with pytest.raises(OSError):
            _write_atomic(target, "data\n")
        assert list(tmp_path.glob("*.tmp*")) == []
        assert (target / "keep").read_text() == "x"

    def test_failed_write_leaves_no_temp_file(self, tmp_path):
        target = tmp_path / "out.txt"
        with pytest.raises(UnicodeEncodeError):
            _write_atomic(target, "unpaired surrogate \ud800\n")
        assert list(tmp_path.iterdir()) == []

    def test_chunks_are_joined(self, tmp_path):
        target = tmp_path / "out.txt"
        _write_atomic(target, iter(["a,b\n", "", "1,2\n"]))
        assert target.read_text() == "a,b\n1,2\n"

    def test_failing_chunk_stream_leaves_no_temp_file(self, tmp_path):
        def chunks():
            yield "header\n"
            raise RuntimeError("formatting failed")

        with pytest.raises(RuntimeError):
            _write_atomic(tmp_path / "out.txt", chunks())
        assert list(tmp_path.iterdir()) == []


class TestMechanicsCommand:
    def test_depth_profile_stdout(self, capsys):
        assert run(["mechanics", "--depth-profile"]) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0] == "depth_nm,eps_xx,eps_yy,eps_zz"
        assert len(lines) == 202
        first = [float(v) for v in lines[1].split(",")]
        assert first[0] == 0.0
        assert abs(first[2]) > 1e-4  # film stress leaves real strain at the top

    def test_depth_profile_file(self, tmp_path, capsys):
        out = tmp_path / "profile.csv"
        assert run(["mechanics", "--depth-profile", "--out", str(out)]) == 0
        assert out.exists()
        assert out.read_text().startswith("depth_nm,")

    def test_stdout_bytes_equal_file_bytes(self, tmp_path, capsysbinary):
        out = tmp_path / "profile.csv"
        assert run(["mechanics", "--depth-profile", "--out", str(out)]) == 0
        assert capsysbinary.readouterr().out == b""
        assert run(["mechanics", "--depth-profile"]) == 0
        assert capsysbinary.readouterr().out == out.read_bytes()

    def test_output_onto_directory_is_one_line_error(self, tmp_path, capsys):
        # an OS error while writing is a diagnostic, not a traceback
        target = tmp_path / "taken"
        target.mkdir()
        assert run(["mechanics", "--depth-profile", "--out", str(target)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err
        assert list(tmp_path.glob("*.tmp*")) == []


class TestSampleCommand:
    @pytest.mark.parametrize("phase", ["pre", "post"])
    def test_sample_writes_csv_and_summary(self, tmp_path, capsys, phase,
                                           fast_config):
        out = tmp_path / "samples.csv"
        code = run([
            "sample", "--phase", phase, "--n", "500", "--seed", "3",
            "--out", str(out), "--config", fast_config,
        ])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 501
        assert lines[0].split(",") == [
            "index", "x_nm", "y_nm", "depth_nm", "orientation_id",
            "eps_xx", "eps_yy", "eps_zz", "eps_xy", "eps_yz", "eps_zx",
            "gss_ghz",
        ]
        summary = json.loads(capsys.readouterr().out)
        assert summary["phase"] == phase
        assert summary["n"] == 500
        assert summary["mean_ghz"] >= 46.0

    @pytest.mark.parametrize("phase", ["pre", "post"])
    def test_sample_tensors_reproduce_each_splitting(self, tmp_path, capsys, phase,
                                                     fast_config):
        # each written crystal-frame tensor gives back its row's splitting
        # through the scalar core chain
        out = tmp_path / "samples.csv"
        assert run(["sample", "--phase", phase, "--n", "300", "--seed", "9",
                    "--out", str(out), "--config", fast_config]) == 0
        params = load_config(fast_config).siv
        for row in np.loadtxt(out, delimiter=",", skiprows=1):
            eps = StrainTensor(*row[5:11], frame=Frame.CRYSTAL)
            gss = splitting_from_strain(eps, ORIENTATIONS[int(row[4])], params)
            assert gss == pytest.approx(row[11], rel=1e-12)

    @pytest.mark.parametrize("phase", ["pre", "post"])
    def test_sample_csv_matches_per_value_formatting(self, tmp_path, capsys,
                                                     phase, fast_config):
        out = tmp_path / "samples.csv"
        assert run(["sample", "--phase", phase, "--n", "500", "--seed", "3",
                    "--out", str(out), "--config", fast_config]) == 0
        s = _sample(load_config(fast_config), phase, 500, 3)
        table = np.column_stack([
            np.arange(len(s), dtype=float), s.x_nm, s.y_nm, s.depth_nm,
            s.orientation_id.astype(float), s.eps_crystal, s.gss_ghz,
        ])
        fmt = ["%d", "%.17g", "%.17g", "%.17g", "%d"] + ["%.17g"] * 7
        rows = [",".join(f % v for f, v in zip(fmt, row)) for row in table]
        header = ("index,x_nm,y_nm,depth_nm,orientation_id,"
                  "eps_xx,eps_yy,eps_zz,eps_xy,eps_yz,eps_zx,gss_ghz")
        want = header + "\n" + "\n".join(rows) + "\n"
        assert out.read_bytes() == want.encode()

    @pytest.mark.parametrize("phase", ["pre", "post"])
    @pytest.mark.parametrize("seed", [3, 20260809])
    def test_sample_csv_equals_per_row_oracle(self, tmp_path, capsys, phase, seed):
        out = tmp_path / "samples.csv"
        assert run(["sample", "--phase", phase, "--n", "5000", "--seed", str(seed),
                    "--out", str(out)]) == 0
        s = _sample(load_config(None), phase, 5000, seed)
        header, body = out.read_bytes().split(b"\n", 1)
        assert header == (b"index,x_nm,y_nm,depth_nm,orientation_id,"
                          b"eps_xx,eps_yy,eps_zz,eps_xy,eps_yz,eps_zx,gss_ghz")
        assert body == csv_rows(
            [np.arange(len(s)), s.x_nm, s.y_nm, s.depth_nm, s.orientation_id,
             *s.eps_crystal.T, s.gss_ghz],
            "%d,%.17g,%.17g,%.17g,%d" + ",%.17g" * 7,
        )

    def test_pre_and_post_write_the_same_emitters(self, tmp_path, capsys, fast_config):
        # one draw serves both phases: deposition strains the emitters but
        # does not move or turn them
        columns = {}
        for phase in ("pre", "post"):
            out = tmp_path / f"{phase}.csv"
            assert run(["sample", "--phase", phase, "--n", "3000", "--seed", "11",
                        "--out", str(out), "--config", fast_config]) == 0
            columns[phase] = np.loadtxt(out, delimiter=",", skiprows=1)
        pre, post = columns["pre"], columns["post"]
        assert np.array_equal(pre[:, :5], post[:, :5])  # index, x, y, depth, orientation
        assert not np.array_equal(pre[:, 11], post[:, 11])

    def test_sample_deterministic_bytes(self, tmp_path, capsys, fast_config):
        # more than one chunk, so the threads split the draw
        n = str(kernels.CHUNK + 100)
        for phase in ("pre", "post"):
            a, b = tmp_path / f"{phase}1.csv", tmp_path / f"{phase}2.csv"
            for out, threads in ((a, "1"), (b, "2")):
                assert run(["sample", "--phase", phase, "--n", n, "--seed", "9", "--out",
                            str(out), "--config", fast_config, "--threads", threads]) == 0
            assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_failure_after_a_written_chunk_leaves_no_file(self, tmp_path, capsys,
                                                          monkeypatch, threads):
        # chunk 1 fails after chunk 0 was formatted and written: one error
        # line, no partial table, no temp file, and a table already at
        # --out is left as it was
        from strainforge import _csvtext

        draw, format_rows = kernels.draw_post_block, _csvtext.format_rows
        formatted = []

        def failing(lo, hi, *args):
            if lo == kernels.CHUNK:
                raise DegenerateGeometry("chunk 1 failed")
            return draw(lo, hi, *args)

        def counted(columns):
            formatted.append(len(columns[0]))
            return format_rows(columns)

        monkeypatch.setattr(kernels, "draw_post_block", failing)
        monkeypatch.setattr(_csvtext, "format_rows", counted)
        out = tmp_path / "samples.csv"
        for before in (None, b"an earlier table\n"):
            if before:
                out.write_bytes(before)
            formatted.clear()
            assert run(["sample", "--phase", "post", "--n", str(kernels.CHUNK + 10),
                        "--threads", threads, "--out", str(out)]) == 1
            assert capsys.readouterr().err == "error: chunk 1 failed\n"
            assert sum(formatted) == kernels.CHUNK
            assert [p.name for p in tmp_path.iterdir()] == (["samples.csv"] if before else [])
            if before:
                assert out.read_bytes() == before


class TestCalibrateCommand:
    def test_sigma_floor(self, capsys, fast_config):
        code = run(["calibrate", "--what", "sigma", "--target-ghz", "46",
                    "--config", fast_config])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["sigma_unstrained"] == 0.0

    @pytest.mark.parametrize("n", ["0", "-5"])
    def test_sigma_floor_with_bad_n_is_one_line_error(self, capsys, fast_config, n):
        code = run(["calibrate", "--what", "sigma", "--target-ghz", "46",
                    "--n", n, "--config", fast_config])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert _one_line_error(captured.err)

    def test_sigma_infeasible(self, capsys, fast_config):
        code = run(["calibrate", "--what", "sigma", "--target-ghz", "10",
                    "--config", fast_config])
        assert code == 1

    @pytest.mark.parametrize("what", ["sigma", "stress"])
    @pytest.mark.parametrize("target", ["nan", "inf"])
    def test_non_finite_target_is_one_line_error(self, capsys, fast_config,
                                                 what, target):
        code = run(["calibrate", "--what", what, "--target-ghz", target,
                    "--config", fast_config])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert _one_line_error(captured.err)
        assert "not finite" in captured.err

    def test_stress_target(self, capsys, fast_config):
        code = run(["calibrate", "--what", "stress", "--target-ghz", "608",
                    "--n", "20000", "--config", fast_config])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert 400.0 < payload["film_stress_mpa"] < 1000.0


class TestReportCommand:
    def test_report_outputs_and_determinism(self, tmp_path, capsys, fast_config):
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        assert run(["report", "--config", fast_config, "--out-dir", str(d1),
                    "--threads", "1"]) == 0
        assert run(["report", "--config", fast_config, "--out-dir", str(d2),
                    "--threads", "4"]) == 0
        names = ["gss_pdf.csv", "top_vs_gss.csv", "operability.csv", "summary.json"]
        for name in names:
            assert (d1 / name).exists()
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()
        summary = json.loads((d1 / "summary.json").read_text())
        assert summary["schema_version"] == 2
        assert "backend" not in summary
        assert abs(summary["pre_mean_ghz"] - 119.0) < 1.0
        assert abs(summary["post_mean_ghz"] - 608.0) < 1.0
        assert summary["p_top_ge_1p5k"] > 0.5
        assert summary["seed"] == 5

    def test_report_draws_each_ensemble_once(self, tmp_path, capsys,
                                             fast_config, monkeypatch):
        # both fits evaluate one ensemble and the report reuses what they
        # end on: no sampler call, and one draw call per sub-block of each
        # chunk of n, each with one orientation and one pair call
        def resampled(*args, **kwargs):
            raise AssertionError("report re-sampled an ensemble")

        calls = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                if name == "pairs":  # (name, pairs per emitter, emitters)
                    calls.append((name, args[3], len(args[1])))
                elif name == "draw_post_block":  # (name, lo, hi)
                    calls.append((name, args[0], args[1]))
                else:
                    calls.append(name)
                return fn(*args, **kwargs)
            return wrapper

        # sample_post_deposition joins the chunks of sample_chunks
        for module in (pop, cli):
            monkeypatch.setattr(module, "sample_chunks", resampled)
        for name in ("draw_post_block", "_orientation_np"):
            monkeypatch.setattr(kernels, name, counted(name, getattr(kernels, name)))
        monkeypatch.setattr(kernels, "_normal_pairs_np",
                            counted("pairs", kernels._normal_pairs_np))
        n = 2 * kernels.CHUNK + 5
        assert run(["report", "--config", fast_config, "--n", str(n),
                    "--out-dir", str(tmp_path)]) == 0
        # one Box-Muller pair per emitter, read once: the draw ranges tile
        # [0, n), and none crosses a chunk edge
        want = []
        for lo in range(0, n, kernels.CHUNK):
            hi = min(lo + kernels.CHUNK, n)
            for a in range(lo, hi, pop._SUB):
                b = min(a + pop._SUB, hi)
                want += [("draw_post_block", a, b), "_orientation_np", ("pairs", 1, b - a)]
        assert calls == want
        assert sum(c[2] for c in calls if c[0] == "pairs") == n
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["n"] == n

    def test_report_solves_each_operating_temperature_once(self, tmp_path, capsys,
                                                          fast_config, monkeypatch):
        # one T_op per emitter of each ensemble, plus the top_vs_gss curve;
        # the operability curves reuse the emitters' values
        solved = []
        solve = thermal._solve_top

        def counted(gss, *args):
            solved.append(np.size(gss))
            return solve(gss, *args)

        monkeypatch.setattr(thermal, "_solve_top", counted)
        assert run(["report", "--config", fast_config, "--n", "4096",
                    "--out-dir", str(tmp_path)]) == 0
        assert sum(solved) == 2 * 4096 + len(cli.TOP_CURVE_GSS_GHZ)

    def test_report_seed_flag_changes_output(self, tmp_path, fast_config):
        d1, d2 = tmp_path / "s1", tmp_path / "s2"
        run(["report", "--config", fast_config, "--out-dir", str(d1),
             "--seed", "1"])
        run(["report", "--config", fast_config, "--out-dir", str(d2),
             "--seed", "2"])
        a = json.loads((d1 / "summary.json").read_text())
        b = json.loads((d2 / "summary.json").read_text())
        assert a["seed"] != b["seed"]
        assert a["sigma_unstrained_calibrated"] != b["sigma_unstrained_calibrated"]


class TestSpectraCommand:
    def test_end_to_end(self, tmp_path, capsys):
        rng = np.random.default_rng(17)
        spec_dir = tmp_path / "specs"
        spec_dir.mkdir()
        for i in range(4):
            gss = 200.0 + 100.0 * i
            s = synth_spectrum(
                rng, [406600.0, 406600.0 + gss], fwhm_ghz=15.0, snr=30.0,
                f_lo=406300.0, f_hi=407400.0, n_points=2200,
            )
            write_spectrum(s, spec_dir / f"s{i}.csv")
        out = tmp_path / "stats.json"
        code = run(["spectra", "--dir", str(spec_dir), "--batch-tag", "post",
                    "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["batch_tag"] == "post"
        assert len(payload["records"]) == 4
        assert all(r["is_single_emitter"] for r in payload["records"])
        assert payload["gss_stats"]["n_gss_values"] == 4
        assert payload["gss_stats"]["mean_ghz"] == pytest.approx(350.0, abs=10.0)
        pooled = out.with_name("stats_pooled.csv")
        assert pooled.exists()
        assert pooled.read_text().startswith("batch_tag,")

    def test_detects_each_spectrum_once(self, tmp_path, capsys, monkeypatch):
        # records, batch statistics and the pooled histogram share one
        # detection pass, and each spectrum is detected before the next loads
        rng = np.random.default_rng(29)
        spec_dir = tmp_path / "specs"
        spec_dir.mkdir()
        for i in range(3):
            s = synth_spectrum(rng, [406600.0, 406800.0 + 50.0 * i], fwhm_ghz=15.0,
                               snr=30.0, f_lo=406300.0, f_hi=407400.0, n_points=2200)
            write_spectrum(s, spec_dir / f"s{i}.csv")
        events, loaded = [], []
        load, detect = spectra.load_spectrum, spectra.detect_peaks

        def counted_load(source):
            spec = load(source)
            loaded.append((spec, source.name))
            events.append(("load", source.name))
            return spec

        def counted_detect(spec, *args):
            events.append(("detect", next(name for s, name in loaded if s is spec)))
            return detect(spec, *args)

        monkeypatch.setattr(spectra, "load_spectrum", counted_load)
        monkeypatch.setattr(spectra, "detect_peaks", counted_detect)
        out = tmp_path / "stats.json"
        assert run(["spectra", "--dir", str(spec_dir), "--batch-tag", "post",
                    "--out", str(out)]) == 0
        assert events == [(kind, f"s{i}.csv") for i in range(3)
                          for kind in ("load", "detect")]
        assert json.loads(out.read_text())["gss_stats"]["n_gss_values"] == 3

    @pytest.mark.parametrize("bad, window", [
        ("frequency_ghz,intensity\n406000.0,1.0\nabc,3\n", None),  # ParseError
        ("frequency_ghz,intensity\n", None),  # too few points: ParseError
        ("".join(f"{406000.0 + i % 17!r},1.0\n" for i in range(18)), None),  # DuplicateAbscissa
        ("".join(f"{406000.0 + i!r},1.0\n" for i in range(18)), 21),  # InvalidParameter
        (b"\xff\xfe\x00garbage", None),  # not UTF-8: ParseError
    ], ids=["non-numeric", "header-only", "duplicate", "shorter-than-window", "not-utf8"])
    def test_error_names_its_file(self, tmp_path, capsys, bad, window):
        rng = np.random.default_rng(37)
        spec_dir = tmp_path / "specs"
        spec_dir.mkdir()
        for i in (0, 1, 3):
            s = synth_spectrum(rng, [406600.0, 406900.0], fwhm_ghz=15.0, snr=30.0,
                               f_lo=406300.0, f_hi=407400.0, n_points=2200)
            write_spectrum(s, spec_dir / f"spec{i:04d}.csv")
        (spec_dir / "spec0002.csv").write_bytes(bad if isinstance(bad, bytes) else bad.encode())
        argv = ["spectra", "--dir", str(spec_dir), "--batch-tag", "post",
                "--out", str(tmp_path / "out" / "stats.json")]
        if window is not None:
            cfg = tmp_path / "window.json"
            cfg.write_text(json.dumps({"spectra": {"smoothing_window": window}}))
            argv += ["--config", str(cfg)]
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert _one_line_error(captured.err) and captured.out == ""
        assert captured.err.startswith("error: spec0002.csv: ")
        assert not (tmp_path / "out").exists()

    # the last case gives --dir relative and --out absolute, which match
    # only once resolved
    @pytest.mark.parametrize("out_name, spec_arg", [
        ("stats.json", None), ("stats.csv", None), ("stats.json", "specs")])
    def test_rerun_skips_its_own_output(self, tmp_path, capsys, monkeypatch,
                                        out_name, spec_arg):
        rng = np.random.default_rng(41)
        spec_dir = tmp_path / "specs"
        spec_dir.mkdir()
        for i in range(3):
            s = synth_spectrum(rng, [406600.0, 406800.0 + 50.0 * i], fwhm_ghz=15.0,
                               snr=30.0, f_lo=406300.0, f_hi=407400.0, n_points=2200)
            write_spectrum(s, spec_dir / f"s{i}.csv")
        monkeypatch.chdir(tmp_path)
        out = spec_dir / out_name
        pooled = spec_dir / "stats_pooled.csv"
        argv = ["spectra", "--dir", spec_arg or str(spec_dir), "--batch-tag", "x",
                "--out", str(out)]
        assert run(argv) == 0
        first = out.read_bytes(), pooled.read_bytes(), capsys.readouterr().out
        assert run(argv) == 0
        assert (out.read_bytes(), pooled.read_bytes(), capsys.readouterr().out) == first
        assert len(json.loads(first[0])["records"]) == 3

    @pytest.mark.parametrize("tag", ["run,7", 'say "hi"', "a\rb", "a\nb"])
    def test_unsafe_batch_tag_rejected_before_writing(self, tmp_path, capsys, tag):
        rng = np.random.default_rng(23)
        spec_dir = tmp_path / "specs"
        spec_dir.mkdir()
        s = synth_spectrum(rng, [406600.0, 406900.0], fwhm_ghz=15.0, snr=30.0,
                           f_lo=406300.0, f_hi=407400.0, n_points=2200)
        write_spectrum(s, spec_dir / "s0.csv")
        out = tmp_path / "out" / "stats.json"
        code = run(["spectra", "--dir", str(spec_dir), "--batch-tag", tag,
                    "--out", str(out)])
        assert code == 1
        assert _one_line_error(capsys.readouterr().err)
        assert not out.parent.exists()

    def test_missing_dir_is_domain_error(self, tmp_path, capsys):
        code = run(["spectra", "--dir", str(tmp_path / "nope"),
                    "--batch-tag", "pre", "--out", str(tmp_path / "o.json")])
        assert code == 1

    def test_dir_without_csv_writes_nothing(self, tmp_path, capsys):
        spec_dir = tmp_path / "specs"
        spec_dir.mkdir()
        (spec_dir / "notes.txt").write_text("406000.0,1.0\n")
        out = tmp_path / "out" / "stats.json"
        assert run(["spectra", "--dir", str(spec_dir), "--batch-tag", "pre",
                    "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: no .csv spectra found in {spec_dir}\n"
        assert not out.parent.exists()
        assert [p.name for p in spec_dir.iterdir()] == ["notes.txt"]

    def test_no_single_emitters_still_writes(self, tmp_path, capsys):
        rng = np.random.default_rng(19)
        spec_dir = tmp_path / "specs"
        spec_dir.mkdir()
        centers = [406200.0 + 180.0 * i for i in range(6)]
        for i in range(2):
            s = synth_spectrum(rng, centers, fwhm_ghz=15.0, snr=30.0,
                               f_lo=406000.0, f_hi=407400.0, n_points=2400)
            write_spectrum(s, spec_dir / f"m{i}.csv")
        out = tmp_path / "stats.json"
        assert run(["spectra", "--dir", str(spec_dir), "--batch-tag", "pre",
                    "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["gss_stats"] is None
        assert all(not r["is_single_emitter"] for r in payload["records"])


class TestEnvConfig:
    def test_env_config_fallback(self, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "env.json"
        cfg.write_text(json.dumps({"thermal": {"gss_ref_ghz": 608.0}}))
        monkeypatch.setenv("STRAINFORGE_CONFIG", str(cfg))
        assert run(["top", "--gss-ghz", "608"]) == 0
        assert capsys.readouterr().out == "1.5000 K\n"


# the non-default settings the cli maps onto the library: a zero intrinsic
# spread (film strain only after deposition), and another thermal reference
OTHER_SETTINGS = {"monte_carlo": {"n": 20000, "seed": 5},
                  "population": {"sigma_unstrained": 0.0},
                  "thermal": {"gss_ref_ghz": 600.0, "temp_ref_k": 1.8}}
OTHER_REF = thermal.ThermalReference(600.0, 1.8)


@pytest.fixture
def other_config(tmp_path):
    path = tmp_path / "other.json"
    path.write_text(json.dumps(OTHER_SETTINGS))
    return str(path)


class TestNonDefaultSettings:
    def test_sample_post_has_no_intrinsic_tensor(self, tmp_path, capsys, other_config):
        out = tmp_path / "samples.csv"
        assert run(["sample", "--phase", "post", "--n", "2000", "--seed", "3",
                    "--out", str(out), "--config", other_config]) == 0
        cfg = load_config(other_config)
        assert cfg.sigma_unstrained == 0.0
        s = pop.sample_post_deposition(2000, cfg.stack, cfg.position, cfg.siv, 3, sigma=0.0,
                                       stress_mpa=cfg.film_stress_mpa)
        assert out.read_bytes().split(b"\n", 1)[1] == csv_rows(
            [np.arange(len(s)), s.x_nm, s.y_nm, s.depth_nm, s.orientation_id,
             *s.eps_crystal.T, s.gss_ghz],
            "%d,%.17g,%.17g,%.17g,%d" + ",%.17g" * 7,
        )
        assert json.loads(capsys.readouterr().out)["mean_ghz"] == np.mean(s.gss_ghz)

    def test_calibrate_stress_has_no_intrinsic_tensor(self, capsys, other_config):
        assert run(["calibrate", "--what", "stress", "--target-ghz", "608",
                    "--n", "4096", "--config", other_config]) == 0
        cfg = load_config(other_config)
        ensemble = pop.draw_ensemble(4096, cfg.stack, cfg.position, cfg.siv, 5)
        stress, _ = pop.calibrate_film_stress(608.0, ensemble, 0.0)
        with_intrinsic, _ = pop.calibrate_film_stress(608.0, ensemble,
                                                      default_config().sigma_unstrained)
        assert stress != with_intrinsic
        assert json.loads(capsys.readouterr().out)["film_stress_mpa"] == stress

    def test_report_runs_the_library_chain(self, tmp_path, capsys, other_config):
        # report fits its own sigma, whatever sigma_unstrained says
        assert run(["report", "--n", "4096", "--out-dir", str(tmp_path),
                    "--config", other_config]) == 0
        cfg = load_config(other_config)
        ensemble = pop.draw_ensemble(4096, cfg.stack, cfg.position, cfg.siv, 5)
        sigma, _ = pop.calibrate_sigma(cli.PRE_TARGET_MEAN_GHZ, ensemble)
        stress, post_gss = pop.calibrate_film_stress(cli.POST_TARGET_MEAN_GHZ, ensemble, sigma)
        top_post = thermal.operational_temperature_batch(post_gss, OTHER_REF)
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["sigma_unstrained_calibrated"] == sigma
        assert summary["film_stress_mpa_calibrated"] == stress
        assert summary["post_mean_ghz"] == pop.summarize(post_gss).mean_ghz
        assert summary["p_top_ge_2p0k"] == float(np.mean(top_post >= 2.0))
        curve = thermal.operational_temperature_batch(cli.TOP_CURVE_GSS_GHZ, OTHER_REF)
        assert (tmp_path / "top_vs_gss.csv").read_bytes() == b"gss_ghz,t_op_k\n" + csv_rows(
            [cli.TOP_CURVE_GSS_GHZ, curve], "%r,%r")

    def test_top_uses_the_configured_reference(self, capsys, other_config):
        # at 5 GHz the two references differ in the printed digits
        assert run(["top", "--gss-ghz", "5", "--config", other_config]) == 0
        out = capsys.readouterr().out
        assert out == f"{thermal.operational_temperature(5.0, OTHER_REF):.4f} K\n"
        assert out != f"{thermal.operational_temperature(5.0):.4f} K\n"
