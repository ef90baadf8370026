import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from phononlab.cli import (EXIT_CONFIG, EXIT_OK, main, read_config_file,
                           resolve_config)


def run_cli(args):
    return main([str(a) for a in args])


def subprocess_env(**extra):
    """This environment without thread caps, with src/ importable, plus extra."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("PHONON_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                        "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}
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
        from phononlab.cli import build_parser
        args = build_parser().parse_args(
            ["--config", str(p), "multiplier", "--beta", "3.0"])
        cfg = resolve_config(args)
        assert cfg["beta"] == 3.0   # flag wins
        assert cfg["gamma"] == 0.7  # file fills the rest

    def test_grid_validation(self, tmp_path):
        from phononlab.cli import build_parser
        args = build_parser().parse_args(["multiplier", "--grid-n", "100"])
        with pytest.raises(ValueError):
            resolve_config(args)

    @pytest.mark.parametrize("argv,want", [
        (["verify"], "7eeb414bc2264f67"),
        (["spectrum"], "5d9a3b1094da7ba9"),
        (["--seed", "0", "lp-blowup"], "55cb9d75329bb291"),
    ])
    def test_default_config_hash_is_stable(self, argv, want):
        from phononlab.cli import _config_hash, build_parser
        args = build_parser().parse_args(argv)
        cfg = resolve_config(args)
        assert cfg.pop("output_dir") == "out"
        assert _config_hash({"subcommand": args.subcommand, **cfg}) == want


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

    def test_rj_match_unmatched(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli(["--output-dir", out, "rj-match",
                        "--mass", 1.0, "--energy", 0.9])
        assert code == EXIT_OK
        match = json.loads((out / "match.json").read_text())
        assert match["matched"] is False

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

    def test_validation_error_exit_code_and_manifest(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli(["--output-dir", out, "rj-match",
                        "--mass", -1.0, "--energy", 1.0])
        assert code == EXIT_CONFIG
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"].startswith("config-error")

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
        # 50 RK4 steps of four right-hand sides; the count is in the manifest only
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["counters"] == {"rhs_evals": 200}
        assert "rhs_evals" not in (out / "nonlin.json").read_text()
        head = (out / "trajectory.csv").read_text().splitlines()[0]
        assert head == "t,mass,energy,entropy,sup_w12,sup_w16,l2"

    def test_lin_decay_run(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli(["--output-dir", out, "lin-decay", "--grid-n", 256,
                        "--t-final", 400.0])
        assert code == EXIT_OK
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
        from phononlab.collision import pool_workers
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
        # the file's key beats PHONON_THREADS and sizes the pool
        cfg = tmp_path / "run.cfg"
        cfg.write_text("threads = 1\n")
        out = tmp_path / "out"
        proc = run_cli_process(["--config", cfg, "--output-dir", out, "rj-match",
                                "--mass", 3.0, "--energy", 1.0], PHONON_THREADS="2")
        assert proc.returncode == EXIT_OK, proc.stderr
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["threads"] == 1
        assert manifest["env"]["workers"] == 1

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
        env = {k: v for k, v in os.environ.items()
               if k not in ("PHONON_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                            "MKL_NUM_THREADS")}
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
            # the tag of the sparse assembly's format, which had no checksum
            cache.write_bytes(b"PHLNOP01" + first_cache[8:])
        assert run_cli(args) == EXIT_OK
        assert {name: (out / name).read_bytes() for name in names} == first
        assert cache.read_bytes() == first_cache
        assert sorted(p.name for p in (out / "cache").iterdir()) == [cache.name]

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


class TestImports:
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
