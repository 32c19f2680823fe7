import json

import numpy as np
import pytest

import strainforge._kernels as kernels
import strainforge.cli as cli
import strainforge.population as pop
import strainforge.spectra as spectra
import strainforge.thermal as thermal
from conftest import csv_rows, synth_spectrum, write_spectrum
from strainforge.cli import _write_atomic, run
from strainforge.config import default_config, load_config
from strainforge.mechanics import solve_beam_state

FAST_CFG = {"monte_carlo": {"n": 20000, "seed": 5}}


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

    def test_unknown_subcommand_usage_error(self, capsys):
        assert run(["frobnicate"]) == 2

    def test_missing_required_flag(self, capsys):
        assert run(["top"]) == 2

    def test_no_arguments(self, capsys):
        assert run([]) == 2

    def test_n_beyond_the_counter_space_is_one_line(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        n = 2 ** 55 + 1
        assert run(["sample", "--phase", "pre", "--n", str(n), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: n must be <= {2 ** 55}, got {n}\n"
        assert not out.exists()

    def test_bad_config_is_domain_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"unknown_section": {}}))
        assert run(["top", "--gss-ghz", "554", "--config", str(bad)]) == 1

    @pytest.mark.parametrize("text, command, message", [
        ('{"population": {"sample_frame": "defect"}}', ["report", "--out-dir", "{out}"],
         "error: unknown key(s) at population: ['sample_frame']"),
        ('{"monte_carlo": {"n": Infinity}}',
         ["sample", "--phase", "pre", "--out", "{out}/s.csv"],
         "error: monte_carlo.n: expected a finite number"),
    ])
    def test_config_value_error_is_one_line(self, tmp_path, capsys, text, command, message):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        out = tmp_path / "out"
        argv = [a.format(out=out) for a in command] + ["--config", str(bad)]
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == message + "\n"
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
    def test_sample_csv_matches_per_value_formatting(self, tmp_path, capsys,
                                                     phase, fast_config):
        out = tmp_path / "samples.csv"
        assert run(["sample", "--phase", phase, "--n", "500", "--seed", "3",
                    "--out", str(out), "--config", fast_config]) == 0
        cfg = load_config(fast_config)
        params = cfg.siv
        if phase == "pre":
            res = pop.sample_pre_deposition(500, cfg.intrinsic, params, 3)
        else:
            res = pop.sample_post_deposition(
                500, cfg.position, solve_beam_state(cfg.stack),
                params, intrinsic=cfg.intrinsic, seed=3,
            )
        s = res.samples
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
        cfg = load_config(None)
        if phase == "pre":
            res = pop.sample_pre_deposition(5000, cfg.intrinsic, cfg.siv, seed)
        else:
            res = pop.sample_post_deposition(
                5000, cfg.position, solve_beam_state(cfg.stack), cfg.siv,
                intrinsic=cfg.intrinsic, seed=seed,
            )
        s = res.samples
        header, body = out.read_bytes().split(b"\n", 1)
        assert header == (b"index,x_nm,y_nm,depth_nm,orientation_id,"
                          b"eps_xx,eps_yy,eps_zz,eps_xy,eps_yz,eps_zx,gss_ghz")
        assert body == csv_rows(
            [np.arange(len(s)), s.x_nm, s.y_nm, s.depth_nm, s.orientation_id,
             *s.eps_crystal.T, s.gss_ghz],
            "%d,%.17g,%.17g,%.17g,%d" + ",%.17g" * 7,
        )

    def test_sample_deterministic_bytes(self, tmp_path, capsys, fast_config):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        run(["sample", "--phase", "post", "--n", "400", "--seed", "9",
             "--out", str(a), "--config", fast_config, "--threads", "1"])
        run(["sample", "--phase", "post", "--n", "400", "--seed", "9",
             "--out", str(b), "--config", fast_config, "--threads", "4"])
        assert a.read_bytes() == b.read_bytes()


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
        # the report reuses the calibrations' ensembles: no sampler call,
        # and n = 4096 fits one chunk, so one draw call per phase
        def resampled(*args, **kwargs):
            raise AssertionError("report re-sampled an ensemble")

        calls = {"pre": 0, "post": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for module in (pop, cli):
            for name in ("sample_pre_deposition", "sample_post_deposition"):
                monkeypatch.setattr(module, name, resampled)
        monkeypatch.setattr(kernels, "draw_pre_block",
                            counted("pre", kernels.draw_pre_block))
        monkeypatch.setattr(kernels, "draw_post_block",
                            counted("post", kernels.draw_post_block))
        assert run(["report", "--config", fast_config, "--n", "4096",
                    "--out-dir", str(tmp_path)]) == 0
        assert calls == {"pre": 1, "post": 1}
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["n"] == 4096

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
        # detection pass
        rng = np.random.default_rng(29)
        spec_dir = tmp_path / "specs"
        spec_dir.mkdir()
        for i in range(3):
            s = synth_spectrum(rng, [406600.0, 406800.0 + 50.0 * i], fwhm_ghz=15.0,
                               snr=30.0, f_lo=406300.0, f_hi=407400.0, n_points=2200)
            write_spectrum(s, spec_dir / f"s{i}.csv")
        detected = []
        detect = spectra.detect_peaks

        def counted(spec, *args):
            detected.append(spec.label)
            return detect(spec, *args)

        monkeypatch.setattr(spectra, "detect_peaks", counted)
        out = tmp_path / "stats.json"
        assert run(["spectra", "--dir", str(spec_dir), "--batch-tag", "post",
                    "--out", str(out)]) == 0
        assert detected == ["s0.csv", "s1.csv", "s2.csv"]
        assert json.loads(out.read_text())["gss_stats"]["n_gss_values"] == 3

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
# spread (film strain only after deposition), and the Boltzmann rate law
OTHER_SETTINGS = {"monte_carlo": {"n": 20000, "seed": 5},
                  "population": {"sigma_unstrained": 0.0},
                  "thermal": {"occupation_model": "boltzmann"}}
FILM_ONLY = pop.IntrinsicStrainModel(0.0)
BOLTZMANN = thermal.ThermalReference(occupation_model="boltzmann")


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
        res = pop.sample_post_deposition(2000, cfg.position, solve_beam_state(cfg.stack),
                                         cfg.siv, intrinsic=FILM_ONLY, seed=3)
        s = res.samples
        assert out.read_bytes().split(b"\n", 1)[1] == csv_rows(
            [np.arange(len(s)), s.x_nm, s.y_nm, s.depth_nm, s.orientation_id,
             *s.eps_crystal.T, s.gss_ghz],
            "%d,%.17g,%.17g,%.17g,%d" + ",%.17g" * 7,
        )
        assert json.loads(capsys.readouterr().out)["mean_ghz"] == res.summary.mean_ghz

    def test_calibrate_stress_has_no_intrinsic_tensor(self, capsys, other_config):
        assert run(["calibrate", "--what", "stress", "--target-ghz", "608",
                    "--n", "4096", "--config", other_config]) == 0
        cfg = load_config(other_config)
        stress, _ = pop.calibrate_film_stress(608.0, cfg.stack, cfg.position, cfg.siv,
                                              4096, 5, intrinsic=FILM_ONLY)
        with_intrinsic, _ = pop.calibrate_film_stress(608.0, cfg.stack, cfg.position,
                                                      cfg.siv, 4096, 5,
                                                      intrinsic=default_config().intrinsic)
        assert stress != with_intrinsic
        assert json.loads(capsys.readouterr().out)["film_stress_mpa"] == stress

    def test_report_runs_the_library_chain(self, tmp_path, capsys, other_config):
        # report fits its own sigma, whatever sigma_unstrained says
        assert run(["report", "--n", "4096", "--out-dir", str(tmp_path),
                    "--config", other_config]) == 0
        cfg = load_config(other_config)
        sigma, _ = pop.calibrate_sigma(cli.PRE_TARGET_MEAN_GHZ, 4096, 5, cfg.siv)
        stress, post_gss = pop.calibrate_film_stress(
            cli.POST_TARGET_MEAN_GHZ, cfg.stack, cfg.position, cfg.siv, 4096, 5,
            intrinsic=pop.IntrinsicStrainModel(sigma),
        )
        top_post = thermal.operational_temperature_batch(post_gss, BOLTZMANN)
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["sigma_unstrained_calibrated"] == sigma
        assert summary["film_stress_mpa_calibrated"] == stress
        assert summary["post_mean_ghz"] == pop.summarize(post_gss).mean_ghz
        assert summary["p_top_ge_2p0k"] == float(np.mean(top_post >= 2.0))
        curve = thermal.operational_temperature_batch(cli.TOP_CURVE_GSS_GHZ, BOLTZMANN)
        assert (tmp_path / "top_vs_gss.csv").read_bytes() == b"gss_ghz,t_op_k\n" + csv_rows(
            [cli.TOP_CURVE_GSS_GHZ, curve], "%r,%r")

    def test_top_uses_the_boltzmann_rate(self, capsys, other_config):
        # at 5 GHz the two rate laws differ in the printed digits
        assert run(["top", "--gss-ghz", "5", "--config", other_config]) == 0
        out = capsys.readouterr().out
        assert out == f"{thermal.operational_temperature(5.0, BOLTZMANN):.4f} K\n"
        assert out != f"{thermal.operational_temperature(5.0):.4f} K\n"
