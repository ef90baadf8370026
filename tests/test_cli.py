import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from phononlab.cli import (_THREAD_ENV_VARS, EXIT_CONFIG, EXIT_INTERNAL, EXIT_OK, SUBCOMMANDS,
                           build_parser, main, read_config_file, resolve_config)

RUN_WIDE = ("seed", "output_dir", "threads")  # the settings every subcommand takes
RJ_ARGS = ["rj-match", "--mass", "3.0", "--energy", "1.0"]
THREAD_VARS = ("PHONON_THREADS",) + _THREAD_ENV_VARS  # what a thread cap writes


def reject_constant(name):
    raise ValueError(f"{name} is not JSON (RFC 8259)")


def run_cli(args):
    return main([str(a) for a in args])


def subprocess_env(**extra):
    """This environment without thread caps, with src/ importable, plus extra."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return {**env, **extra}


def run_cli_process(args, cwd=None, **env):
    """The CLI in a fresh process, so its thread cap leaves this one alone."""
    return subprocess.run([sys.executable, "-m", "phononlab.cli", *map(str, args)],
                          env=subprocess_env(**env), capture_output=True, text=True,
                          cwd=cwd)


class TestConfigHandling:
    def test_config_file_parsing(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("grid_n = 128   # comment\nbeta=2.0\n\n# full-line comment\n")
        cfg = read_config_file(p)
        assert cfg == {"grid_n": "128", "beta": "2.0"}

    def test_bad_config_line(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("grid_n 128\n")
        with pytest.raises(ValueError):
            read_config_file(p)

    def test_flags_override_file(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("beta=2.0\ngamma=0.7\n")
        args = build_parser().parse_args(
            ["--config", str(p), "multiplier", "--beta", "3.0"])
        cfg = resolve_config(args)
        assert cfg["beta"] == 3.0   # flag wins
        assert cfg["gamma"] == 0.7  # file fills the rest

    def test_grid_validation(self, tmp_path):
        args = build_parser().parse_args(["multiplier", "--grid-n", "100"])
        with pytest.raises(ValueError):
            resolve_config(args)

    @pytest.mark.parametrize("argv,want", [
        (["verify"], "7eeb414bc2264f67"),
        (["spectrum"], "5d9a3b1094da7ba9"),
        (["--seed", "0", "lp-blowup"], "55cb9d75329bb291"),
        (["multiplier"], "761026a37101ceb5"),
        (["lin-decay"], "d3c54c845a9da61c"),
        (["nonlin"], "66a567346fba3550"),
        (["rj-match", "--mass", "3", "--energy", "1"], "389a60e2105247f6"),
    ])
    def test_default_config_hash_is_stable(self, argv, want):
        from phononlab.cli import _config_hash
        args = build_parser().parse_args(argv)
        cfg = resolve_config(args)
        assert cfg.pop("output_dir") == "out"
        assert _config_hash({"subcommand": args.subcommand, **cfg}) == want

    @pytest.mark.parametrize("sub,key", [
        (sub, key) for sub, (_, settings) in SUBCOMMANDS.items()
        for key in (*settings, *RUN_WIDE)])
    def test_file_value_is_typed_and_the_flag_beats_it(self, sub, key, tmp_path):
        # every setting is a float but these
        want = {"grid_n": int, "seed": int, "threads": int,
                "interp": str, "output_dir": str}.get(key, float)
        file_val, flag_val = {int: ("128", "256"), float: ("0.25", "0.5"),
                              str: ("linear", "cubic")}[want]
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {file_val}\n")
        flag = ["--p" if key == "p_exp" else "--" + key.replace("_", "-"), flag_val]
        head = ["--config", str(cfg)]
        tail = RJ_ARGS if sub == "rj-match" else [sub]
        for argv, val in (([*head, *tail], file_val),
                          ([*head, *flag, *tail] if key in RUN_WIDE
                           else [*head, *tail, *flag], flag_val)):
            got = resolve_config(build_parser().parse_args(argv))[key]
            assert type(got) is want and got == want(val)


class TestRuns:
    def test_rj_match_artifacts(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli(["--output-dir", out, "rj-match",
                        "--mass", 3.0, "--energy", 1.0])
        assert code == EXIT_OK
        match = json.loads((out / "match.json").read_text())
        assert match["matched"] is True
        assert match["roundtrip_residual"] < 1e-8
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "ok"
        assert manifest["wall_time_s"] >= 0.0
        assert len(manifest["config_hash"]) == 16

    def test_wall_time_survives_a_clock_stepped_back(self, monkeypatch, tmp_path):
        # the wall clock steps back an hour after the run reads it first:
        # the manifest's wall time comes from the monotonic clock
        import time
        wall = iter([1e9] + [1e9 - 3600.0] * 1000)
        monkeypatch.setattr(time, "time", lambda: next(wall))
        out = tmp_path / "out"
        assert run_cli(["--output-dir", out, *RJ_ARGS]) == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "ok"
        assert 0.0 <= manifest["wall_time_s"] < 60.0

    def test_rj_match_unmatched(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli(["--output-dir", out, "rj-match",
                        "--mass", 1.0, "--energy", 0.9])
        assert code == EXIT_OK
        match = json.loads((out / "match.json").read_text(), parse_constant=reject_constant)
        assert match["matched"] is False
        assert "theta" not in match and "r" not in match

    def test_lp_blowup_p_inf_writes_strict_json(self, monkeypatch, tmp_path):
        # p = inf is in the domain; JSON has no infinity, so blowup.json
        # names it "inf" (stubbed norms keep the run short)
        from phononlab import experiments
        monkeypatch.setattr(experiments, "lp_blowup_norm", lambda eps, p_exp, pts: {
            "eps": eps, "norm": 1.0 / eps, "spike_peak": 1.0, "background_peak": 0.0})
        out = tmp_path / "out"
        assert run_cli(["--output-dir", out, "lp-blowup", "--p", "inf"]) == EXIT_OK
        blowup = json.loads((out / "blowup.json").read_text(), parse_constant=reject_constant)
        assert blowup["p"] == "inf" and blowup["target_slope"] == 1.0
        # the manifest records the setting as the flag's string, and its
        # hash is the one computed from the number
        manifest = json.loads((out / "manifest.json").read_text(),
                              parse_constant=reject_constant)
        assert manifest["config"]["p_exp"] == "inf"
        assert manifest["config_hash"] == "361df1f4b2424e72"

    @pytest.mark.parametrize("p", ["1", "inf"])
    def test_lp_blowup_at_the_ends_of_its_domain(self, p, tmp_path):
        # the whole experiment at p = 1 and p = inf, on the closed-form fold:
        # it exits 0 and every artifact it leaves is finite
        from phononlab.collision import blowup_points
        out = tmp_path / "out"
        assert run_cli(["--output-dir", out, "lp-blowup", "--p", p]) == EXIT_OK
        assert sorted(f.name for f in out.iterdir()) == ["blowup.json", "manifest.json",
                                                         "norms.csv"]
        for name in ("blowup.json", "manifest.json"):
            json.loads((out / name).read_text(), parse_constant=reject_constant)
        header, *rows = (out / "norms.csv").read_text().splitlines()
        assert header == "eps,norm" and len(rows) == 6
        assert np.all(np.isfinite(np.array([r.split(",") for r in rows], dtype=float)))
        points = json.loads((out / "blowup.json").read_text())["points"]
        assert points == vars(blowup_points())

    def test_rj_match_small_ratio(self, tmp_path):
        # E/M = 0.05 needs gamma/beta ~ 4.6e-12
        out = tmp_path / "out"
        code = run_cli(["--output-dir", out, "rj-match",
                        "--mass", 1.0, "--energy", 0.05])
        assert code == EXIT_OK
        match = json.loads((out / "match.json").read_text())
        assert match["matched"] is True
        assert match["roundtrip_residual"] <= 1e-12

    def test_numerical_error_exit_code_and_manifest(self, tmp_path):
        # ratio 1e-3 needs gamma/beta ~ e^-1570, below every float64: numerical
        # error, exit 3, manifest still written
        from phononlab.cli import EXIT_NUMERICAL
        out = tmp_path / "out"
        code = run_cli(["--output-dir", out, "rj-match",
                        "--mass", 1.0, "--energy", 1e-3])
        assert code == EXIT_NUMERICAL
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"].startswith("numerical-error")

    @pytest.mark.parametrize("sub,bad,artifact,where,written", [
        ("lp-blowup", {"norm": [1.0, np.nan]}, "norms.csv", "column 'norm', row 2", []),
        ("lp-blowup", {"slope": np.nan}, "blowup.json", "key '/slope'", ["norms.csv"]),
        ("spectrum", {"eigenvalues": np.array([-1.0, -np.inf])}, "eigenvalues.csv",
         "column 'eigenvalue', row 2", []),
        ("spectrum", {"kernel_residuals": [0.0, np.nan]}, "spectrum.json",
         "key '/kernel_residuals/1'", ["eigenvalues.csv"]),
    ], ids=["norms-csv", "blowup-json", "eigenvalues-csv", "spectrum-json"])
    def test_non_finite_artifact_is_refused(self, sub, bad, artifact, where, written,
                                            monkeypatch, tmp_path, capsys):
        # a NaN or infinite value never reaches an artifact: exit 3 naming the
        # artifact and the column or key, the manifest still written, and the
        # artifact absent
        from phononlab import experiments
        from phononlab.cli import EXIT_NUMERICAL
        finite = {
            "lp-blowup": {"p": 2.0, "eps": [0.0625, 0.03125], "norm": [1.0, 2.0],
                          "slope": -0.5, "target_slope": -0.5},
            "spectrum": {"eigenvalues": np.array([-1.0, 0.0]), "kernel_residuals": [0.0, 0.0],
                         "near_null_count": 2, "principal_angle_rad": 0.0,
                         "dissipation_ratio_min": 1.0},
        }[sub]
        name = {"lp-blowup": "lp_blowup_experiment", "spectrum": "spectrum_experiment"}[sub]
        monkeypatch.setattr(experiments, name, lambda **_: {**finite, **bad})
        out = tmp_path / "out"
        assert run_cli(["--output-dir", out, sub]) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.startswith(f"numerical error: {artifact}: non-finite value")
        assert where in err
        assert sorted(p.name for p in out.iterdir()) == sorted(["manifest.json", *written])
        status = json.loads((out / "manifest.json").read_text())["status"]
        assert status == f"numerical-error: {err[len('numerical error: '):-1]}"

    def test_validation_error_exit_code_and_manifest(self, tmp_path):
        # input guards inside the run: match_rj's, and assemble's on gamma
        for k, args in enumerate([["rj-match", "--mass", -1.0, "--energy", 1.0],
                                  ["spectrum", "--grid-n", 64, "--gamma", 0.0]]):
            out = tmp_path / f"out{k}"
            assert run_cli(["--output-dir", out, *args]) == EXIT_CONFIG
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["status"].startswith("config-error")

    @pytest.mark.parametrize("file_line,args,cause", [
        ("interp = quadratic\n", ["spectrum", "--grid-n", 64],
         "config key 'interp' is not a setting of spectrum"),
        ("grid_n = 64\n", ["rj-match", "--mass", 3.0, "--energy", 1.0],
         "config key 'grid_n' is not a setting of rj-match"),
        ("", ["nonlin", "--grid-n", 64, "--dt", 0.0], "dt must be positive"),
        ("", ["nonlin", "--grid-n", 64, "--dt", "nan"], "dt must be positive"),
        ("", ["rj-match", "--mass", "nan", "--energy", 1.0],
         "mass and energy must be finite and positive"),
        ("", ["rj-match", "--mass", 1.0, "--energy", "inf"],
         "mass and energy must be finite and positive"),
        ("", ["lp-blowup", "--p", 0.0], "p must satisfy 1 <= p <= inf"),
        # below 1 the L^p norm is not a norm: slope -5.90 against -5 at 0.5,
        # NaN written with status ok at 0.03, an OverflowError below 0.018
        ("", ["lp-blowup", "--p", 0.5], "p must satisfy 1 <= p <= inf"),
        ("", ["lp-blowup", "--p", 0.03], "p must satisfy 1 <= p <= inf"),
        ("", ["lp-blowup", "--p", 0.017], "p must satisfy 1 <= p <= inf"),
        ("", ["lp-blowup", "--p", 1e-300], "p must satisfy 1 <= p <= inf"),
        ("", ["lp-blowup", "--p", "nan"], "p must satisfy 1 <= p <= inf"),
        # a file's interp used to skip the flag's choices and fail after
        # making cache/
        ("interp = quadratic\n", ["nonlin", "--grid-n", 64],
         "interp must be one of linear, cubic, got 'quadratic'"),
        # these used to fail only after L was assembled and cached
        ("", ["lin-decay", "--grid-n", 64, "--t-final", 0.0],
         "t_final must be positive and finite"),
        ("", ["lin-decay", "--grid-n", 64, "--t-final", "nan"],
         "t_final must be positive and finite"),
        ("", ["nonlin", "--grid-n", 64, "--eps", "nan"], "eps must be in (0, 0.1]"),
        ("", ["nonlin", "--grid-n", 64, "--eps", 0.0], "eps must be in (0, 0.1]"),
        # planned about 6.7e299 steps and ran until it was killed
        ("", ["nonlin", "--grid-n", 64, "--t-final", 1e300], "exceeds MAX_STEPS"),
        ("", ["spectrum", "--grid-n", 64, "--beta", "inf"],
         "beta must be positive and finite"),
        ("", ["multiplier", "--grid-n", 64, "--gamma", "nan"],
         "gamma must be nonnegative and finite"),
        # these used to fail as numerical errors after the multiplier was built
        ("", ["multiplier", "--grid-n", 64, "--fit-lo", 0.1, "--fit-hi", 0.01],
         "fit window must satisfy 0 < fit_lo < fit_hi < 2 pi"),
        ("", ["multiplier", "--grid-n", 64, "--fit-hi", "nan"],
         "fit window must satisfy 0 < fit_lo < fit_hi < 2 pi"),
        ("", ["multiplier", "--grid-n", 64, "--fit-hi", 7],
         "fit window must satisfy 0 < fit_lo < fit_hi < 2 pi"),
        # these used to assemble and cache L, or run the suite, and then exit 1
        # when the generator refused the seed
        ("seed = -3\n", ["spectrum", "--grid-n", 64],
         "seed must be a nonnegative integer, got -3"),
        ("seed = -3\n", ["verify"], "seed must be a nonnegative integer, got -3"),
        # these used to leave an empty cache/ beside the manifest
        ("", ["spectrum", "--grid-n", 64, "--gamma", 0.0],
         "the linearized analysis requires gamma > 0"),
        ("", ["lin-decay", "--grid-n", 64, "--gamma", 0.0],
         "the linearized analysis requires gamma > 0"),
        ("", ["nonlin", "--grid-n", 64, "--gamma", 0.0],
         "the linearized analysis requires gamma > 0"),
        # these used to run with the last value
        ("grid_n = 64\ngrid_n = 128\n", ["spectrum"],
         "config key 'grid_n' is set more than once"),
        ("grid-n = 64\ngrid_n = 64\n", ["spectrum"],
         "config key 'grid_n' is set more than once"),
        # the manifest goes to a file's output_dir that it names once, even
        # beside another bad line (it used to go to ./out), and else to ./out
        ("output_dir = mine\ngrid_n = 64\ngrid_n = 128\n", ["spectrum"],
         "config key 'grid_n' is set more than once"),
        ("output_dir = elsewhere\noutput_dir = elsewhere\n", ["spectrum"],
         "config key 'output_dir' is set more than once"),
        ("output_dir = elsewhere\nbogus\n", ["spectrum"], "bad config line"),
    ], ids=["foreign-file-key", "file-key-without-grid", "dt-0", "dt-nan",
            "mass-nan", "energy-inf", "p-0", "p-0.5", "p-0.03", "p-0.017", "p-1e-300",
            "p-nan", "file-interp-quadratic", "t-final-0", "t-final-nan", "eps-nan",
            "eps-0", "t-final-1e300", "beta-inf", "gamma-nan", "fit-window-reversed", "fit-hi-nan",
            "fit-hi-above-2pi", "seed-negative-spectrum", "seed-negative-verify",
            "gamma-0-spectrum", "gamma-0-lin-decay", "gamma-0-nonlin", "file-key-twice",
            "file-key-twice-dashed", "file-dir-beside-key-twice", "file-dir-twice",
            "file-dir-in-unreadable-file"])
    def test_bad_input_is_config_error(self, file_line, args, cause, tmp_path, capsys,
                                       monkeypatch):
        # each fails before any work: exit 2, the cause on stderr and in the
        # manifest, which is strict JSON (a NaN or infinite setting is
        # recorded as its flag's string), and no artifact or operator cache
        # beside the manifest, which goes to ./out unless the file names
        # output_dir = mine (the working directory is tmp_path)
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(file_line)
        out = tmp_path / ("mine" if "output_dir = mine" in file_line else "out")
        code = run_cli(["--config", cfg, *args])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err.startswith("configuration error: ") and cause in err
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(["run.cfg", out.name])
        assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]
        manifest = json.loads((out / "manifest.json").read_text(),
                              parse_constant=reject_constant)
        assert manifest["status"].startswith("config-error: ") and cause in manifest["status"]

    @pytest.mark.parametrize("raised,cause", [
        (RuntimeError("boom"), "RuntimeError: boom"),
        (KeyError("boom"), "KeyError: 'boom'"),
        # numpy's LinAlgError is a ValueError: an eigh that fails to converge
        # is not the user's fault, nor is any other bare ValueError
        (np.linalg.LinAlgError("Eigenvalues did not converge"),
         "LinAlgError: Eigenvalues did not converge"),
        (ValueError("boom"), "ValueError: boom"),
    ], ids=["runtime-error", "key-error", "linalg-error", "value-error"])
    def test_fault_is_internal_error(self, raised, cause, monkeypatch,
                                     tmp_path, capsys):
        # a fault of the program, not of its input: exit 1, one line on
        # stderr, and a manifest with a final status
        def fail(*_, **__):
            raise raised
        from phononlab import experiments
        monkeypatch.setattr(experiments, "rj_match_experiment", fail)
        out = tmp_path / "out"
        assert run_cli(["--output-dir", out, *RJ_ARGS]) == EXIT_INTERNAL == 1
        err = capsys.readouterr().err
        assert err.startswith(f"internal error: {cause}") and err.count("\n") == 1
        status = json.loads((out / "manifest.json").read_text())["status"]
        assert status == f"internal-error: {err[len('internal error: '):-1]}"

    def test_config_file_seed_and_output_dir_reach_the_run(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"seed = 7\noutput_dir = {tmp_path / 'from_file'}\n")
        for flags, out, seed in (([], "from_file", 7),  # the file's values apply
                                 (["--seed", 3, "--output-dir", tmp_path / "from_flag"],
                                  "from_flag", 3)):  # and a flag still beats the file
            assert run_cli(["--config", cfg, *flags, "rj-match",
                            "--mass", 3.0, "--energy", 1.0]) == EXIT_OK
            manifest = json.loads((tmp_path / out / "manifest.json").read_text())
            assert manifest["config"]["seed"] == seed
            assert (tmp_path / out / "match.json").exists()

    @pytest.mark.parametrize("flag,file_line,where", [
        (True, "output_dir = from_file\n", "from_flag"),
        (False, "output_dir = from_file\n", "from_file"),
        (False, "output_dir = from_file\nbogus\n", "out"),  # the file cannot be read
        (False, "", "out"),
    ], ids=["flag-dir", "file-dir", "unreadable-file", "default"])
    def test_config_error_writes_manifest(self, flag, file_line, where, tmp_path):
        (tmp_path / "run.cfg").write_text(file_line)
        args = ["--output-dir", "from_flag"] if flag else []
        proc = run_cli_process([*args, "--config", "run.cfg", "spectrum", "--grid-n", "100"],
                               cwd=tmp_path)
        assert proc.returncode == EXIT_CONFIG
        assert proc.stderr.startswith("configuration error: ")
        assert "Traceback" not in proc.stderr
        manifest = json.loads((tmp_path / where / "manifest.json").read_text())
        assert manifest["status"].startswith("config-error: ")
        assert manifest["config"] is None and manifest["env"] is None

    def test_verify_suite(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli(["--output-dir", out, "verify"])
        assert code == EXIT_OK
        payload = json.loads((out / "verify.json").read_text())
        assert all(entry["ok"] for entry in payload.values())

    def test_spectrum_run_and_determinism(self, tmp_path):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            code = run_cli(["--output-dir", out, "--seed", 0, "spectrum",
                            "--grid-n", 128])
            assert code == EXIT_OK
            outs.append((out / "eigenvalues.csv").read_bytes())
            payload = json.loads((out / "spectrum.json").read_text())
            assert payload["near_null_count"] == 2
        assert outs[0] == outs[1]  # byte-identical artifacts

    def test_multiplier_run(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli(["--output-dir", out, "multiplier", "--grid-n", 256,
                        "--fit-lo", 1e-5, "--fit-hi", 1e-4])
        assert code == EXIT_OK
        fit = json.loads((out / "fit.json").read_text())
        assert (out / "a.csv").exists()
        assert abs(fit["exponent"] - 5.0 / 3.0) < 0.1

    def test_nonlin_short_run(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli(["--output-dir", out, "nonlin", "--grid-n", 128,
                        "--t-final", 50.0, "--dt", 1.0])
        assert code == EXIT_OK
        payload = json.loads((out / "nonlin.json").read_text())
        assert payload["mass_drift"] < 1e-12
        # 50 RK4 steps of four right-hand sides, each over the 4,096 entries
        # of the half table (the data is even); the counts are in the
        # manifest only
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["counters"] == {"rhs_evals": 200, "rhs_table_entries": 4096}
        assert "rhs_evals" not in (out / "nonlin.json").read_text()
        head = (out / "trajectory.csv").read_text().splitlines()[0]
        assert head == "t,mass,energy,entropy,sup_w12,sup_w16,l2"
        # accepted edge values at grid_n = 64: the largest eps, and one step
        # (too few points for the decay fit); each exits 0 or 3, never 1,
        # and every CSV and JSON file it leaves is finite
        from phononlab.cli import EXIT_NUMERICAL
        for edge in (["--eps", 0.1], ["--t-final", 1.5, "--dt", 1.5]):
            out = tmp_path / "-".join(map(str, edge))
            assert run_cli(["--output-dir", out, "nonlin", "--grid-n", 64, *edge]) \
                in (EXIT_OK, EXIT_NUMERICAL)
            for path in out.iterdir():
                if path.suffix == ".json":
                    json.loads(path.read_text(), parse_constant=reject_constant)
                elif path.suffix == ".csv":
                    rows = path.read_text().splitlines()[1:]
                    assert np.all(np.isfinite([float(x) for r in rows for x in r.split(",")]))

    def test_nonlin_above_table_max_n_fails_before_any_work(self, monkeypatch, tmp_path):
        # the right-hand side needs a whole table, built up to TABLE_MAX_N
        # only: n = 4096 exits 3 before L or any table is built or cached
        from phononlab import collision
        from phononlab.cli import EXIT_NUMERICAL
        built = []
        monkeypatch.setattr(collision.ResonanceTable, "__init__",
                            lambda *args, **kwargs: built.append(args))
        out = tmp_path / "out"
        assert run_cli(["--output-dir", out, "nonlin", "--grid-n", 4096]) == EXIT_NUMERICAL
        status = json.loads((out / "manifest.json").read_text())["status"]
        assert status.startswith("numerical-error") and "n = 4096" in status
        assert "TABLE_MAX_N" in status
        assert built == [] and not (out / "cache").exists()

    def test_lin_decay_run(self, tmp_path, monkeypatch):
        # both weights are read from one semigroup call
        from phononlab import linearized
        calls, apply = [], linearized.semigroup_apply
        monkeypatch.setattr(linearized, "semigroup_apply",
                            lambda *args: calls.append(args) or apply(*args))
        out = tmp_path / "out"
        code = run_cli(["--output-dir", out, "lin-decay", "--grid-n", 256,
                        "--t-final", 400.0])
        assert code == EXIT_OK
        assert len(calls) == 1
        payload = json.loads((out / "decay.json").read_text())
        assert payload["exponent_mu12"] < -0.4
        assert (out / "decay_mu12.csv").exists()

    def test_threads_env(self, monkeypatch, tmp_path):
        import os
        monkeypatch.setenv("PHONON_THREADS", "2")
        from phononlab.cli import _apply_thread_cap
        _apply_thread_cap(None)
        assert os.environ["OMP_NUM_THREADS"] == "2"

    def test_thread_cap_sets_pool_workers(self, monkeypatch):
        from phononlab.cli import _THREAD_ENV_VARS, _apply_thread_cap
        from phononlab.experiments import pool_workers
        for var in ("PHONON_THREADS",) + _THREAD_ENV_VARS:
            monkeypatch.delenv(var, raising=False)
        _apply_thread_cap(3)
        assert os.environ["PHONON_THREADS"] == "3"
        assert pool_workers() == 3

    def test_verify_bytes_independent_of_threads(self, monkeypatch, tmp_path):
        from phononlab.cli import _THREAD_ENV_VARS
        for var in ("PHONON_THREADS",) + _THREAD_ENV_VARS:
            monkeypatch.delenv(var, raising=False)
        blobs = []
        for threads in (1, 2):
            out = tmp_path / str(threads)
            assert run_cli(["--threads", threads, "--output-dir", out, "verify"]) == EXIT_OK
            blobs.append((out / "verify.json").read_bytes())
            env = json.loads((out / "manifest.json").read_text())["env"]
            assert env["workers"] == threads
            assert env["python"] == sys.version.split()[0]
            assert env["numpy"] == np.__version__
        assert blobs[0] == blobs[1]
        assert b"workers" not in blobs[0]

    def test_thread_cap_does_not_leak(self, tmp_path):
        # the tests that apply a thread cap in-process, run in a session that
        # starts without one, must leave it without one
        from phononlab.cli import _THREAD_ENV_VARS
        thread_vars = ("PHONON_THREADS",) + _THREAD_ENV_VARS
        here = Path(__file__).resolve()
        script = (
            "import os, sys, pytest\n"
            "code = pytest.main(['-q', '-p', 'no:cacheprovider', '-o', 'addopts=',\n"
            "                    '--basetemp', sys.argv[1], *sys.argv[2:]])\n"
            f"print(int(code), [os.environ.get(v) for v in {thread_vars!r}])\n")
        tests = [f"{here}::TestRuns::{name}"
                 for name in ("test_threads_env", "test_thread_cap_sets_pool_workers")]
        proc = subprocess.run([sys.executable, "-c", script, tmp_path / "t", *tests],
                              env=subprocess_env(), capture_output=True, text=True,
                              cwd=here.parents[1])
        assert proc.stdout.splitlines()[-1] == f"0 {[None] * len(thread_vars)}", proc.stdout

    def test_config_file_threads(self, tmp_path):
        # the file's key beats PHONON_THREADS and sizes the slab workers
        cfg = tmp_path / "run.cfg"
        cfg.write_text("threads = 1\n")
        out = tmp_path / "out"
        proc = run_cli_process(["--config", cfg, "--output-dir", out, "rj-match",
                                "--mass", 3.0, "--energy", 1.0], PHONON_THREADS="2")
        assert proc.returncode == EXIT_OK, proc.stderr
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["threads"] == 1
        assert manifest["env"]["workers"] == 1

    @pytest.mark.parametrize("args", [
        ["rj-match", "--mass", 3.0, "--energy", 1.0],
        ["spectrum", "--grid-n", 100],  # a configuration error as well
    ], ids=["run", "config-error"])
    def test_output_dir_that_is_a_file_is_io_error(self, args, tmp_path):
        taken = tmp_path / "taken"
        taken.write_text("not a directory\n")
        proc = run_cli_process(["--output-dir", taken / "out", *args])
        assert proc.returncode == 4  # EXIT_IO
        assert "io error: " in proc.stderr
        assert "Traceback" not in proc.stderr
        assert taken.read_text() == "not a directory\n"

    @pytest.mark.parametrize("args,env", [
        (["--threads", "0"], {}),
        ([], {"PHONON_THREADS": "abc"}),
        ([], {"PHONON_THREADS": "0"}),
    ], ids=["flag-0", "env-abc", "env-0"])
    def test_bad_thread_count_is_config_error(self, args, env, tmp_path):
        proc = run_cli_process([*args, "--output-dir", tmp_path, "rj-match",
                                "--mass", 3.0, "--energy", 1.0], **env)
        assert proc.returncode == EXIT_CONFIG
        assert proc.stderr.startswith("configuration error: ")
        assert "must be an integer >= 1" in proc.stderr
        assert "Traceback" not in proc.stderr
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["status"].startswith("config-error: ")

    @pytest.mark.parametrize("how", ["flag", "env"])
    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc")
    def test_thread_cap_reaches_blas(self, how, tmp_path):
        # the cap must be in place before numpy loads: count the OS threads
        # of a process that ran the CLI and then a BLAS matmul
        script = (
            "import sys\n"
            "from phononlab import cli\n"
            "code = cli.main(sys.argv[1:])\n"
            "import numpy as np\n"
            "a = np.ones((256, 256)); a @ a\n"
            "for line in open('/proc/self/status'):\n"
            "    if line.startswith('Threads:'):\n"
            "        print(code, line.split()[1])\n")
        env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        args = ["--output-dir", str(tmp_path), "rj-match", "--mass", "3.0", "--energy", "1.0"]
        if how == "flag":
            args = ["--threads", "1"] + args
        else:
            env["PHONON_THREADS"] = "1"
        out = subprocess.run([sys.executable, "-c", script, *args], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.split()[-2:] == ["0", "1"]


class TestOperatorCache:
    @pytest.mark.parametrize("damage", ["truncate", "bad_magic", "flip_payload_byte",
                                        "old_magic"])
    def test_damaged_cache_is_rebuilt(self, damage, tmp_path):
        out = tmp_path / "out"
        args = ["--output-dir", out, "spectrum", "--grid-n", 128]
        assert run_cli(args) == EXIT_OK
        names = ["eigenvalues.csv", "spectrum.json"]
        (cache,) = (out / "cache").glob("linop_*.bin")
        first = {name: (out / name).read_bytes() for name in names}
        first_cache = cache.read_bytes()
        if damage == "truncate":
            cache.write_bytes(first_cache[:len(first_cache) // 2])
        elif damage == "bad_magic":
            cache.write_bytes(b"XXXXXXXX" + first_cache[8:])
        elif damage == "flip_payload_byte":
            # same size and header: only the checksum can tell
            damaged = bytearray(first_cache)
            damaged[len(damaged) // 2] ^= 0x01
            cache.write_bytes(bytes(damaged))
        else:
            # the tags of the sparse assembly's format, which had no checksum,
            # of the full-table and bincount assemblies', of the omega
            # product's kernel weight, whose L differs at rounding, of the
            # whole n x n layout before the even and odd blocks, of the
            # blocks folded from an n x n accumulator, and of the layout
            # that held O's eigenvectors
            for tag in (b"PHLNOP01", b"PHLNOP02", b"PHLNOP03", b"PHLNOP04", b"PHLNOP05",
                        b"PHLNOP06", b"PHLNOP07"):
                cache.write_bytes(tag + first_cache[8:])
                assert run_cli(args) == EXIT_OK
                assert cache.read_bytes() == first_cache
        assert run_cli(args) == EXIT_OK
        assert {name: (out / name).read_bytes() for name in names} == first
        assert cache.read_bytes() == first_cache
        assert sorted(p.name for p in (out / "cache").iterdir()) == [cache.name]

    @pytest.mark.parametrize("args", [
        ["lin-decay", "--grid-n", 128, "--t-final", 400.0],
        ["nonlin", "--grid-n", 128, "--t-final", 20.0, "--dt", 1.0],
    ], ids=["lin-decay", "nonlin"])
    def test_cold_and_cached_runs_write_the_same_artifacts(self, args, tmp_path,
                                                           monkeypatch):
        # the operator read back from its cache has the bits of the one
        # assembled, so do L formed from its blocks and every artifact
        from phononlab import linearized
        out = tmp_path / "out"
        runs = []
        for _ in range(2):
            assert run_cli(["--output-dir", out, *args]) == EXIT_OK
            runs.append({p.name: p.read_bytes() for p in out.iterdir()
                         if p.is_file() and p.name != "manifest.json"})
            # the second run must read the cache
            monkeypatch.setattr(linearized, "assemble", None)
        assert runs[0] == runs[1] and len(runs[0]) >= 2
        assert len(list((out / "cache").glob("linop_*.bin"))) == 1

    def test_runs_never_form_the_odd_eigenvectors(self, tmp_path, monkeypatch):
        # every run's data is even: np.linalg.eigh decomposes E once per
        # assembly (linear for lin-decay, then read from the cache by
        # spectrum; cubic for nonlin) and never O
        calls, eigh = [], np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda A: calls.append(A.shape) or eigh(A))
        out = tmp_path / "out"
        for args in (["lin-decay", "--grid-n", 64, "--t-final", 400.0],
                     ["spectrum", "--grid-n", 64, "--gamma", 2.0],
                     ["nonlin", "--grid-n", 64, "--t-final", 20.0, "--dt", 1.0]):
            assert run_cli(["--output-dir", out, *args]) == EXIT_OK
        assert calls == [(32, 32)] * 2

    def test_warm_multiplier_reads_a_from_the_cache(self, tmp_path, monkeypatch):
        # after spectrum, multiplier reads a from its cache, and writes the
        # artifacts of a run that computes a, and no cache file
        from phononlab import linearized
        cold, warm = tmp_path / "cold", tmp_path / "warm"
        args = ["multiplier", "--grid-n", 64, "--gamma", 2.0]
        assert run_cli(["--output-dir", cold, *args]) == EXIT_OK
        assert not (cold / "cache").exists()
        assert run_cli(["--output-dir", warm, "spectrum", "--grid-n", 64,
                        "--gamma", 2.0]) == EXIT_OK
        (cache,) = (warm / "cache").iterdir()
        before = cache.read_bytes()
        monkeypatch.setattr(linearized, "multiplier_a", None)  # a warm run must not call it
        assert run_cli(["--output-dir", warm, *args]) == EXIT_OK
        for name in ("a.csv", "a_fit_points.csv", "fit.json"):
            assert (warm / name).read_bytes() == (cold / name).read_bytes()
        for out, hits in ((cold, 0), (warm, 1)):
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["counters"] == {"cache_hits": hits}
        assert list((warm / "cache").iterdir()) == [cache]
        assert cache.read_bytes() == before

    @pytest.mark.parametrize("damage", ["truncate", "flip_payload_byte", "other_key"])
    def test_multiplier_on_a_damaged_cache_computes_a(self, damage, tmp_path):
        # a damaged file, or one that holds another key than its name's, is
        # a miss: a is computed, and the file keeps its bytes
        out, cold = tmp_path / "out", tmp_path / "cold"
        args = ["multiplier", "--grid-n", 64, "--gamma", 2.0]
        assert run_cli(["--output-dir", cold, *args]) == EXIT_OK
        assert run_cli(["--output-dir", out, "spectrum", "--grid-n", 64,
                        "--gamma", 1.0 if damage == "other_key" else 2.0]) == EXIT_OK
        (cache,) = (out / "cache").iterdir()
        data = cache.read_bytes()
        if damage == "truncate":
            data = data[:len(data) // 2]
        elif damage == "flip_payload_byte":
            data = data[:len(data) // 2] + bytes([data[len(data) // 2] ^ 1]) \
                + data[len(data) // 2 + 1:]
        else:  # the operator of gamma = 1 under the name of gamma = 2
            cache.unlink()
            cache = cache.with_name(cache.name.replace("_g1_", "_g2_"))
        cache.write_bytes(data)
        assert run_cli(["--output-dir", out, *args]) == EXIT_OK
        assert (out / "a.csv").read_bytes() == (cold / "a.csv").read_bytes()
        assert json.loads((out / "manifest.json").read_text())["counters"] == {"cache_hits": 0}
        assert list((out / "cache").iterdir()) == [cache]
        assert cache.read_bytes() == data

    def test_unreadable_cache_is_io_error(self, tmp_path, capsys):
        # a directory where the cache file should be: IsADirectoryError on read
        from phononlab.cli import EXIT_IO
        out = tmp_path / "out"
        (out / "cache" / "linop_n64_b1_g1_linear.bin").mkdir(parents=True)
        code = run_cli(["--output-dir", out, "spectrum", "--grid-n", 64])
        assert code == EXIT_IO
        assert "io error:" in capsys.readouterr().err
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"].startswith("io-error: ")


class TestVersion:
    def test_version_has_one_owner(self, tmp_path):
        # pyproject.toml reads the version from the package, and every
        # manifest records that same value
        tomllib = pytest.importorskip("tomllib")
        import phononlab
        text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
        meta = tomllib.loads(text)
        assert "version" not in meta["project"]
        assert "version" in meta["project"]["dynamic"]
        assert meta["tool"]["setuptools"]["dynamic"]["version"] == {
            "attr": "phononlab.__version__"}
        out = tmp_path / "out"
        assert run_cli(["--output-dir", out, *RJ_ARGS]) == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["version"] == phononlab.__version__


class TestImports:
    def test_every_export_resolves(self):
        # the lazy exports name no function that is gone
        import phononlab
        for name in phononlab.__all__:
            assert getattr(phononlab, name) is not None

    def test_runtime_does_not_import_scipy(self):
        # scipy is a test-only dependency: importing every module of the
        # package, the CLI and the experiments included, must not load it
        script = (
            "import importlib, pkgutil, sys\n"
            "import phononlab, phononlab.cli, phononlab.experiments\n"
            "for mod in pkgutil.iter_modules(phononlab.__path__):\n"
            "    importlib.import_module('phononlab.' + mod.name)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"

    def test_equilibria_needs_no_quadrature(self):
        # the matching problem is closed-form: no quadrature rule, no scipy
        script = (
            "import sys\n"
            "import phononlab.equilibria\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m == 'phononlab.quadrature' or m.split('.')[0] == 'scipy'))\n")
        out = subprocess.run([sys.executable, "-c", script], env=subprocess_env(),
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"
