"""Command line behavior: exit codes, file outputs, determinism.

All invocations go through main(argv) in-process.  Exit code contract:
0 success, 2 completed-but-failed verification, 1 everything operational
(bad flags, malformed config, unknown ids), never argparse's default 2.
"""

import hashlib
import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from helpers import bergstrom_density

import harnacklab
from harnacklab import cli, harnack_lab
from harnacklab.cli import main
from harnacklab.density import DensityEstimateError, stable_density_grid, truncated_density
from harnacklab.harnack_lab import InequalityReport
from harnacklab.levy_core import OUSpec, QuadratureError, StableSpec, TruncatedStableSpec
from harnacklab.ou_semigroup import SemigroupSampler, ball_indicator
from harnacklab.reports import canonical_json, read_samples_dump, validate_report
from harnacklab.sampling import (
    SeedSpec,
    sample_rot_stable,
    sample_truncated_stable,
)

STABLE_CFG = {"driver": "stable", "d": 1, "alpha": 1.0, "c": 1.0}
TRUNC_CFG = {"driver": "truncated_stable", "d": 1, "alpha": 1.0, "c": 1.0, "r": 1.0}


@pytest.fixture
def stable_cfg(tmp_path):
    p = tmp_path / "stable.json"
    p.write_text(json.dumps(STABLE_CFG))
    return str(p)


@pytest.fixture
def trunc_cfg(tmp_path):
    p = tmp_path / "trunc.json"
    p.write_text(json.dumps(TRUNC_CFG))
    return str(p)


def write_json(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


class TestParsing:
    def test_version_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "harnacklab" in capsys.readouterr().out

    def test_missing_subcommand_is_operational_error(self, capsys):
        assert main([]) == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_flag_exits_one_not_two(self, stable_cfg, capsys):
        rc = main(["density", "--spec", stable_cfg, "--t", "1.0", "--bogus"])
        assert rc == 1

    def test_missing_required_flag(self, stable_cfg):
        assert main(["density", "--spec", stable_cfg]) == 1

    def test_parser_built_once_serves_each_call(self, stable_cfg, tmp_path, capsys):
        # a bad flag, then density, then verify in one process, each against
        # the same call made first, on a freshly built parser
        grid = write_json(tmp_path, "grid.json", {"n_cases": 20})
        calls = [
            ["density", "--spec", stable_cfg, "--t", "1.0", "--bogus"],
            ["density", "--spec", stable_cfg, "--t", "1.0", "--radii", "0,1"],
            ["verify", "--spec", stable_cfg, "--inequality", "young", "--grid", grid],
        ]

        def run(argv):
            rc = main(argv)
            out, err = capsys.readouterr()
            if out.startswith("{"):
                out = json.loads(out)
                out.pop("created_at")
            return rc, out, err

        first = []
        for argv in calls:
            cli._build_parser.cache_clear()
            first.append(run(argv))
        cli._build_parser.cache_clear()
        in_turn = [run(argv) for argv in calls]
        assert cli._build_parser.cache_info().misses == 1
        assert in_turn == first
        assert [rc for rc, _, _ in in_turn] == [1, 0, 0]
        assert in_turn[0][2].startswith("harnacklab: error: unrecognized arguments: --bogus")
        assert in_turn[0][2].count("\n") == 1
        assert in_turn[1][1]["values"] and in_turn[2][1].startswith("young: PASS")


# the scipy submodules a harnacklab command may import, each where it is called
SCIPY_SUBMODULES = ("special", "optimize", "linalg", "integrate", "ndimage", "interpolate")


def _scipy_loaded_after(tmp_path, code: str) -> list[str]:
    """The SCIPY_SUBMODULES a fresh interpreter holds once it has run ``code``."""
    names = [f"scipy.{m}" for m in SCIPY_SUBMODULES]
    return [name.removeprefix("scipy.") for name in _loaded_after(tmp_path, code, names)]


def _loaded_after(tmp_path, code: str, names: list[str]) -> list[str]:
    """The modules among ``names`` a fresh interpreter holds once it has run
    ``code`` in ``tmp_path``; ``code`` imports harnacklab from where this
    process did."""
    probe = code + f"\nimport json, sys\nprint(json.dumps([m for m in {names!r} if m in sys.modules]))"
    src = str(Path(harnacklab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", probe], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


class TestColdImport:
    """scipy is imported by the one function that calls it, which no command
    reaches, so no command loads a scipy submodule."""

    def test_parser_and_config_check_load_no_scipy_submodule(self, tmp_path):
        code = (
            "import harnacklab.cli\n"
            "from harnacklab import cli, reports\n"
            "reports.validate_config({'driver': 'stable', 'd': 2, 'alpha': 1.5})\n"
            "try:\n    cli.main(['--version'])\nexcept SystemExit as exc:\n    assert exc.code == 0\n"
        )
        assert _scipy_loaded_after(tmp_path, code) == []

    def test_diagonal_drift_verify_loads_no_linalg(self, tmp_path):
        spec = write_json(tmp_path, "ou.json", {**STABLE_CFG, "d": 2, "alpha": 1.5, "A": [[0.5, 0.0], [0.0, 0.5]]})
        grid = write_json(tmp_path, "grid.json", {"n": 1000})
        argv = ["verify", "--spec", spec, "--inequality", "harnack_ou", "--grid", grid, "--out", "out"]
        code = f"from harnacklab import cli\nassert cli.main({argv!r}) == 0"
        assert _scipy_loaded_after(tmp_path, code) == []

    def test_skew_drift_verify_and_estimate_load_no_scipy_submodule(self, tmp_path):
        # e^{tA} off the diagonal is the numpy Taylor kernel, squared
        spec = write_json(tmp_path, "skew.json", {**STABLE_CFG, "d": 2, "alpha": 1.5, "A": [[0.5, 1.0], [0.0, -0.5]]})
        grid = write_json(tmp_path, "grid.json", {"n": 1000})
        for argv in (
            ["verify", "--spec", spec, "--inequality", "all", "--grid", grid, "--out", "out"],
            ["estimate", "--spec", spec, "--t", "0.5", "--x", "0.5,-0.25", "--n", "1000", "--out", "est.json"],
        ):
            code = f"from harnacklab import cli\nassert cli.main({argv!r}) == 0"
            assert _scipy_loaded_after(tmp_path, code) == [], argv[0]

    def test_config_check_and_young_report_load_no_jsonschema(self, tmp_path):
        # jsonschema is a test dependency only: the package checks schemas itself
        spec = write_json(tmp_path, "stable.json", STABLE_CFG)
        grid = write_json(tmp_path, "grid.json", {"n_cases": 20})
        argv = ["verify", "--spec", spec, "--inequality", "young", "--grid", grid, "--out", "out"]
        code = (
            "import harnacklab.cli\n"
            "from harnacklab import cli, reports\n"
            "reports.validate_config({'driver': 'stable', 'd': 2, 'alpha': 1.5})\n"
            f"assert cli.main({argv!r}) == 0\n"
            "import pathlib\nassert pathlib.Path('out/report_young.json').is_file()"
        )
        assert _loaded_after(tmp_path, code, ["jsonschema"]) == []

    def test_truncated_verify_all_loads_no_scipy_submodule(self, tmp_path):
        # bounded Brent, the tail LP and the Gauss-Jacobi rule are numpy code
        spec = write_json(tmp_path, "trunc.json", dict(TRUNC_CFG, alpha=1.8, r=0.5))
        grid = write_json(tmp_path, "grid.json", {"n": 2000})
        argv = ["verify", "--spec", spec, "--inequality", "all", "--grid", grid, "--out", "out"]
        code = f"from harnacklab import cli\nassert cli.main({argv!r}) == 0"
        assert _scipy_loaded_after(tmp_path, code) == []

    def test_truncated_density_loads_no_scipy_submodule(self, tmp_path):
        spec = write_json(tmp_path, "trunc.json", TRUNC_CFG)
        argv = ["density", "--spec", spec, "--t", "0.5", "--radii", "0,1,3"]
        code = f"from harnacklab import cli\nassert cli.main({argv!r}) == 0"
        assert _scipy_loaded_after(tmp_path, code) == []

    def test_stable_density_and_verify_load_no_scipy_submodule(self, tmp_path):
        # the mixture tables' spline, series and log Phi are numpy code
        cauchy = write_json(tmp_path, "stable.json", STABLE_CFG)
        argv = ["density", "--spec", cauchy, "--t", "1.0", "--radii", "0,1"]
        code = f"from harnacklab import cli\nassert cli.main({argv!r}) == 0"
        assert _scipy_loaded_after(tmp_path, code) == []
        spec = write_json(tmp_path, "d2.json", {**STABLE_CFG, "d": 2, "alpha": 1.5})
        grid = write_json(tmp_path, "grid.json", {"t_values": [1.0], "offsets": [0.0, 1.0], "n_z": 4})
        argv = ["verify", "--spec", spec, "--inequality", "ratio_lemma", "--grid", grid, "--out", "out"]
        code = f"from harnacklab import cli\nassert cli.main({argv!r}) == 0"
        assert _scipy_loaded_after(tmp_path, code) == []
        code = (
            "from harnacklab import StableSpec, stable_cdf_1d\n"
            "assert 0.5 < stable_cdf_1d(StableSpec(d=1, alpha=1.2, c=1.0), 1.0, 3.0) < 1.0"
        )
        assert _scipy_loaded_after(tmp_path, code) == []


class TestConfigLoading:
    def test_missing_config_file(self, capsys):
        rc = main(["density", "--spec", "/nonexistent/cfg.json", "--t", "1", "--radii", "0"])
        assert rc == 1
        assert "cannot read config" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        rc = main(["density", "--spec", str(p), "--t", "1", "--radii", "0"])
        assert rc == 1
        assert "not valid JSON" in capsys.readouterr().err

    def test_schema_violation(self, tmp_path, capsys):
        bad = write_json(tmp_path, "bad.json", {"driver": "stable", "d": 1, "alpha": 3.0})
        rc = main(["density", "--spec", bad, "--t", "1", "--radii", "0"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("harnacklab: error: ") and err.count("\n") == 1, err
        assert "schema" in err and "alpha" in err and "exclusiveMaximum" in err, err

    def test_unknown_config_key_rejected(self, tmp_path):
        bad = write_json(
            tmp_path, "bad.json", {"driver": "stable", "d": 1, "alpha": 1.0, "beta": 2}
        )
        assert main(["density", "--spec", bad, "--t", "1", "--radii", "0"]) == 1


class TestDensityCommand:
    def test_needs_points(self, stable_cfg, capsys):
        assert main(["density", "--spec", stable_cfg, "--t", "1.0"]) == 1
        assert "--x or --radii" in capsys.readouterr().err

    def test_truncated_driver_rejected_in_d2(self, tmp_path, capsys):
        spec = write_json(tmp_path, "trunc2.json", dict(TRUNC_CFG, d=2))
        assert main(["density", "--spec", spec, "--t", "1.0", "--radii", "0"]) == 1
        err = capsys.readouterr().err
        assert "implemented for d=1" in err and len(err.strip().splitlines()) == 1

    def test_truncated_values_match_library(self, trunc_cfg, capsys):
        rc = main(["density", "--spec", trunc_cfg, "--t", "0.5", "--radii", "0,1,2", "--x", "-3"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        spec = TruncatedStableSpec(d=1, alpha=1.0, c=1.0, r=1.0)
        assert doc["values"] == truncated_density(spec, 0.5, np.array([-3.0, 0.0, 1.0, 2.0])).tolist()
        assert doc["points"] == [[-3.0], [0.0], [1.0], [2.0]]
        assert doc["meta"] == {"clamped": 0}

    def test_stdout_values_match_library(self, stable_cfg, capsys):
        rc = main(["density", "--spec", stable_cfg, "--t", "1.0", "--radii", "0,1,2"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        spec = StableSpec(d=1, alpha=1.0, c=1.0)
        expected = stable_density_grid(spec, 1.0, np.array([[0.0], [1.0], [2.0]]))
        assert doc["values"] == expected.values.tolist()
        assert doc["points"] == [[0.0], [1.0], [2.0]]
        assert doc["t"] == 1.0

    def test_repeatable_x_flag(self, stable_cfg, capsys):
        rc = main(["density", "--spec", stable_cfg, "--t", "0.5", "--x", "0.5", "--x", "-1.5"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["points"] == [[0.5], [-1.5]]

    def test_wrong_x_dimension(self, stable_cfg):
        assert main(["density", "--spec", stable_cfg, "--t", "1", "--x", "0.5,0.5"]) == 1

    def test_file_output_both_formats(self, stable_cfg, tmp_path, capsys):
        out = tmp_path / "dens.json"
        rc = main([
            "density", "--spec", stable_cfg, "--t", "1.0", "--radii", "0,1",
            "--out", str(out), "--format", "both",
        ])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert len(doc["values"]) == 2
        lines = out.with_suffix(".csv").read_text().strip().splitlines()
        assert lines[0] == "t,x1,value"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert float(first[0]) == 1.0
        assert float(first[2]) == doc["values"][0]


class TestSampleCommand:
    def test_requires_out(self, stable_cfg, capsys):
        rc = main(["sample", "--spec", stable_cfg, "--t", "1.0", "--n", "100"])
        assert rc == 1
        assert "--out" in capsys.readouterr().err

    @pytest.mark.parametrize("cfg_name", ["stable_cfg", "trunc_cfg"])
    def test_missing_out_refused_before_drawing(self, cfg_name, request, monkeypatch, capsys):
        drawn = []
        monkeypatch.setattr(cli, "sample_rot_stable", lambda *a: drawn.append(a))
        monkeypatch.setattr(cli, "sample_truncated_stable", lambda *a: drawn.append(a))
        cfg = request.getfixturevalue(cfg_name)
        rc = main(["sample", "--spec", cfg, "--t", "1.0", "--n", "20000000"])
        assert rc == 1
        assert drawn == []
        assert capsys.readouterr().err.strip() == (
            "harnacklab: error: sample requires --out (binary dump path)"
        )

    @pytest.mark.parametrize(
        "A", [[[0.5, 1.0], [0.0, -0.5]], [[0.0, 0.0], [0.0, -1e-300]]], ids=["drift", "tiny"]
    )
    def test_refuses_a_drift(self, tmp_path, capsys, monkeypatch, A):
        # the dump holds driver increments, which are not the OU endpoints
        drawn = []
        monkeypatch.setattr(cli, "sample_rot_stable", lambda *a: drawn.append(a))
        cfg = write_json(tmp_path, "ou.json", {"driver": "stable", "d": 2, "alpha": 1.5, "A": A})
        out = tmp_path / "dump.bin"
        rc = main(["sample", "--spec", cfg, "--t", "1e5", "--n", "10", "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1 and drawn == []
        assert err.startswith("harnacklab: error: ") and err.count("\n") == 1 and "drift A" in err
        assert not out.exists() and not (tmp_path / "dump.bin.json").exists()

    def test_refuses_epsilon_for_a_stable_driver(self, tmp_path, capsys, monkeypatch):
        # the exact stable sampler has no small-jump cutoff to set
        drawn = []
        monkeypatch.setattr(cli, "sample_rot_stable", lambda *a: drawn.append(a))
        cfg = write_json(tmp_path, "cauchy.json", {"driver": "stable", "d": 1, "alpha": 1.0, "c": 1.0})
        out = tmp_path / "dump.bin"
        rc = main(["sample", "--spec", cfg, "--t", "1", "--n", "5", "--epsilon", "0.1", "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1 and drawn == []
        assert err.startswith("harnacklab: error: ") and err.count("\n") == 1 and "--epsilon" in err
        assert not out.exists() and not (tmp_path / "dump.bin.json").exists()

    def test_zero_drift_is_sampled(self, tmp_path):
        cfg = write_json(tmp_path, "ou.json", {"driver": "stable", "d": 1, "alpha": 1.0, "A": [[0.0]]})
        out = tmp_path / "dump.bin"
        assert main(["sample", "--spec", cfg, "--t", "0.5", "--n", "10", "--out", str(out)]) == 0
        assert read_samples_dump(out)[0].shape == (10, 1)

    def test_stable_dump_round_trip(self, stable_cfg, tmp_path):
        out = tmp_path / "dump.bin"
        rc = main([
            "sample", "--spec", stable_cfg, "--t", "0.5", "--n", "500",
            "--seed", "7", "--out", str(out),
        ])
        assert rc == 0
        samples, meta = read_samples_dump(out)
        assert samples.shape == (500, 1)
        assert meta["n"] == 500 and meta["d"] == 1
        assert meta["t"] == 0.5
        assert meta["seed"] == {"master_seed": 7, "stream_id": 0}
        spec = StableSpec(d=1, alpha=1.0, c=1.0)
        expected = sample_rot_stable(spec, 0.5, 500, SeedSpec(7))
        np.testing.assert_array_equal(samples, expected)

    def test_truncated_dump_with_epsilon(self, trunc_cfg, tmp_path):
        out = tmp_path / "dump.bin"
        rc = main([
            "sample", "--spec", trunc_cfg, "--t", "0.5", "--n", "400",
            "--seed", "3", "--epsilon", "0.05", "--out", str(out),
        ])
        assert rc == 0
        samples, meta = read_samples_dump(out)
        spec = TruncatedStableSpec(d=1, alpha=1.0, c=1.0, r=1.0)
        expected = sample_truncated_stable(spec, 0.5, 0.05, 400, SeedSpec(3))
        np.testing.assert_array_equal(samples, expected)
        assert meta["spec"]["driver"] == "truncated_stable"


    def test_jump_budget_is_a_clean_error(self, tmp_path, capsys):
        # about 4.1e7 jumps per sample: refused before anything is allocated
        cfg = write_json(tmp_path, "heavy.json", {
            "driver": "truncated_stable", "d": 1, "alpha": 1.9, "c": 1.0, "r": 1e-3,
        })
        out = tmp_path / "dump.bin"
        rc = main(["sample", "--spec", cfg, "--t", "1.0", "--n", "10", "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "budget" in err and len(err.strip().splitlines()) == 1
        assert not out.exists()


class TestEstimateCommand:
    def test_matches_library(self, stable_cfg, capsys):
        rc = main([
            "estimate", "--spec", stable_cfg, "--t", "0.5", "--x", "1.0",
            "--n", "2000", "--seed", "5", "--f", "ball", "--f-scale", "1.5",
        ])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        ou = OUSpec(A=np.zeros((1, 1)), driver=StableSpec(d=1, alpha=1.0, c=1.0))
        f = ball_indicator(np.zeros(1), 1.5)
        estimate = SemigroupSampler(ou, 2000, SeedSpec(5)).estimate(f, np.array([1.0]), 0.5)
        assert doc["mean"] == estimate.mean
        assert doc["std_err"] == estimate.std_err
        assert doc["f_tag"] == f.tag
        assert doc["x"] == [1.0]

    def test_constant_function_has_zero_error(self, stable_cfg, capsys):
        rc = main([
            "estimate", "--spec", stable_cfg, "--t", "1.0", "--x", "0.0",
            "--n", "1000", "--f", "const", "--f-value", "2.5",
        ])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["mean"] == 2.5
        assert doc["std_err"] == 0.0

    def test_drift_matrix_config(self, tmp_path, capsys):
        cfg = write_json(
            tmp_path, "ou.json",
            {"driver": "stable", "d": 1, "alpha": 1.0, "A": [[0.5]]},
        )
        rc = main([
            "estimate", "--spec", cfg, "--t", "0.5", "--x", "1.0",
            "--n", "1000", "--f", "bump",
        ])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert 0.0 < doc["mean"] <= 1.0

    def test_bad_drift_shape(self, tmp_path):
        cfg = write_json(
            tmp_path, "ou.json",
            {"driver": "stable", "d": 1, "alpha": 1.0, "A": [[0.5, 0.0]]},
        )
        assert main(["estimate", "--spec", cfg, "--t", "0.5", "--x", "1.0"]) == 1

    @pytest.mark.parametrize("a, rc", [(-400.0, 0), (400.0, 1)])
    def test_extreme_drift(self, tmp_path, capsys, a, rc):
        # contracting: e^{-tA} = e^{800} is never formed; expanding: e^{tA}
        # overflows, a one-line error
        cfg = write_json(tmp_path, "ou.json", {
            "driver": "truncated_stable", "d": 1, "alpha": 1.2, "c": 1.0, "r": 1.0, "A": [[a]],
        })
        assert main(["estimate", "--spec", cfg, "--t", "2.0", "--x", "1.0", "--n", "1000"]) == rc
        if rc:
            err = capsys.readouterr().err
            assert "overflow" in err and len(err.strip().splitlines()) == 1

    def test_file_output(self, stable_cfg, tmp_path):
        out = tmp_path / "est.json"
        rc = main([
            "estimate", "--spec", stable_cfg, "--t", "0.5", "--x", "0.0",
            "--n", "1000", "--out", str(out),
        ])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert set(doc) >= {"mean", "std_err", "n", "t", "x", "f_tag", "seed", "spec"}

    def test_estimate_fields(self, stable_cfg, capsys):
        rc = main([
            "estimate", "--spec", stable_cfg, "--t", "0.5", "--x", "1.0",
            "--n", "2000", "--seed", "96",
        ])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["t"] == 0.5
        assert doc["x"] == [1.0]
        assert doc["n"] == 2000
        assert doc["f_tag"] == "ball_indicator(center=[0],scale=1)"
        assert 0.0 <= doc["mean"] <= 1.0

    def test_refuses_small_n(self, stable_cfg, capsys):
        rc = main([
            "estimate", "--spec", stable_cfg, "--t", "1.0", "--x", "0.0", "--n", "999", "--f", "const",
        ])
        assert rc == 1
        assert capsys.readouterr().err == "harnacklab: error: semigroup estimation needs n >= 1e3\n"


class TestEstimatePinned:
    """sha256 of canonical_json of the ``estimate`` document (so without
    ``created_at``) at t = 0.5, n = 2e4, seed 3, on a conformal and a
    non-conformal d = 2 drift and the truncated d = 1 driver, and the times
    ``estimate`` refuses, for a function that needs the noise and one that
    does not."""

    CONFIGS = {
        "drift": ({"driver": "stable", "d": 2, "alpha": 1.5, "c": 1.0, "A": [[0.5, 0.0], [0.0, 0.5]]},
                  "0.5,-0.25"),
        "skew": ({"driver": "stable", "d": 2, "alpha": 1.5, "c": 1.0, "A": [[0.5, 1.0], [0.0, -0.5]]},
                 "0.5,-0.25"),
        "truncated": ({"driver": "truncated_stable", "d": 1, "alpha": 1.8, "c": 1.0, "r": 0.5}, "0.5"),
    }

    def run(self, tmp_path, config, f, t):
        doc, x = self.CONFIGS[config]
        cfg = write_json(tmp_path, f"{config}.json", doc)
        return main([
            "estimate", "--spec", cfg, "--t", t, "--x", x, "--f", f, "--f-value", "0.3",
            "--n", "20000", "--seed", "3",
        ])

    @pytest.mark.parametrize(
        "config, f, digest",
        [
            ("drift", "ball", "8c8c75314ca253d51150165f6cfe3f924ddd246b43f7cd6b93347d02b393777e"),
            ("drift", "bump", "7508fd53e4878bf105957e3145961f4c7fe380a676af971543e26ba156e3a7a9"),
            ("drift", "const", "b9498e5e5c338a9c6008559c1b003c6a5e630ab5229b175cfec416caddd02c87"),
            ("skew", "ball", "2aa4da63f298cb59501993bda8fa026578d836217623e227758f18722be4e5f4"),
            ("skew", "bump", "6316dd613a07b5b9df069898a2bdf638f8fc4b6fe597c97511730c5889d90fc8"),
            ("skew", "const", "c746016bb7453a83a6499d7f0bdcd3af315469d9d780911360aa204b2951113c"),
            ("truncated", "ball", "b0a616f0028f73a2c435f7b63e5a898da4781459ef527f8cee36ac49eca22476"),
            ("truncated", "bump", "df52215eb5c367a23bb7d91c63c9e2fce42ff9a6a0761d317811ef14f38f138f"),
            ("truncated", "const", "34cf091b3e7000940ba2e53bcd5eeb4db431557ed041d87ae038320f0a1d0afb"),
        ],
    )
    def test_document_digest(self, tmp_path, capsys, config, f, digest):
        assert self.run(tmp_path, config, f, "0.5") == 0
        doc = json.loads(capsys.readouterr().out)
        assert hashlib.sha256(canonical_json(doc).encode()).hexdigest() == digest

    @pytest.mark.parametrize("config", sorted(CONFIGS))
    @pytest.mark.parametrize("f", ["const", "ball"])
    @pytest.mark.parametrize("t", ["0", "-1", "nan", "inf"])
    def test_refused_times(self, tmp_path, capsys, config, f, t):
        assert self.run(tmp_path, config, f, t) == 1
        out, err = capsys.readouterr()
        errors = [line for line in err.splitlines() if line.startswith("harnacklab: error: ")]
        assert out == "" and len(errors) == 1, err
        if t in ("0", "-1"):
            assert "time must be positive" in errors[0]


FAST_OVERRIDE = {
    "t_values": [0.5],
    "offsets": [0.0, 1.0],
    "n": 4000,
    "n_z": 8,
    "n_cases": 50,
    "validation": False,
}


class TestVerifyCommand:
    def test_unknown_inequality(self, stable_cfg, capsys):
        rc = main(["verify", "--spec", stable_cfg, "--inequality", "bogus"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "ratio_lemma" in err and "young" in err

    def test_driver_mismatch(self, stable_cfg, trunc_cfg, capsys):
        assert main(["verify", "--spec", stable_cfg, "--inequality", "truncated_ratio"]) == 1
        assert main(["verify", "--spec", trunc_cfg, "--inequality", "ratio_lemma"]) == 1

    def test_harnack_stable_rejects_drift(self, tmp_path):
        cfg = write_json(
            tmp_path, "ou.json",
            {"driver": "stable", "d": 1, "alpha": 1.0, "A": [[0.5]]},
        )
        assert main(["verify", "--spec", cfg, "--inequality", "harnack_stable"]) == 1

    def test_harnack_ou_without_drift_is_labelled_ou(self, tmp_path, capsys):
        cfg = write_json(tmp_path, "free.json", {"driver": "stable", "d": 1, "alpha": 1.5})
        grid = write_json(
            tmp_path, "grid.json",
            {"n": 2000, "t_values": [0.5], "offsets": [0, 1], "validation": False},
        )
        out_dir = tmp_path / "reports"
        rc = main([
            "verify", "--spec", cfg, "--grid", grid, "--inequality", "harnack_ou",
            "--out", str(out_dir),
        ])
        assert rc == 0
        assert "harnack_ou: PASS" in capsys.readouterr().out
        doc = json.loads((out_dir / "report_harnack_ou.json").read_text())
        assert doc["inequality_id"] == "harnack_ou"
        assert doc["mc_meta"]["time_scale"] == "capped"
        validate_report(doc)

    def test_bad_grid_override_schema(self, stable_cfg, tmp_path, capsys):
        grid = write_json(tmp_path, "grid.json", {"n": 4000, "bogus_key": 1})
        rc = main([
            "verify", "--spec", stable_cfg, "--inequality", "young", "--grid", grid,
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("harnacklab: error: ") and err.count("\n") == 1, err
        assert "schema" in err and "bogus_key" in err, err

    @pytest.mark.parametrize(
        "inequality, config, grid, field",
        [
            ("harnack_stable", STABLE_CFG,
             {"n": 2000.0, "t_values": [0.5], "offsets": [0.0, 1.0], "validation": False}, "n"),
            ("young", STABLE_CFG, {"n_cases": 5.0}, "n_cases"),
            ("jensen", STABLE_CFG, {"n_cases": 5.0}, "n_cases"),
            ("ratio_lemma", STABLE_CFG,
             {"t_values": [1.0], "offsets": [0.0, 1.0], "n_z": 4.0, "validation": False}, "n_z"),
            ("truncated_ratio", TRUNC_CFG,
             {"t_values": [0.5, 1.0], "offsets": [0.0, 1.0], "z_count": 5.0, "validation": False}, "z_count"),
            ("harnack_stable", {**STABLE_CFG, "d": 2.0, "alpha": 1.5},
             {"n": 2000, "t_values": [0.5], "offsets": [0.0, 1.0], "validation": False}, "d"),
        ],
        ids=["n", "n_cases-young", "n_cases-jensen", "n_z", "z_count", "d"],
    )
    def test_integral_float_field_runs_as_its_int(self, tmp_path, capsys, inequality, config, grid, field):
        # the schema counts 2000.0 as an integer, and the check hands the lab 2000
        runs = []
        for name, cast in (("float", float), ("int", int)):
            cfg, grd = ({**doc, field: cast(doc[field])} if field in doc else doc for doc in (config, grid))
            out = tmp_path / name
            rc = main([
                "verify", "--spec", write_json(tmp_path, f"cfg_{name}.json", cfg), "--inequality", inequality,
                "--grid", write_json(tmp_path, f"grid_{name}.json", grd), "--out", str(out),
            ])
            report = json.loads((out / f"report_{inequality}.json").read_text())
            runs.append((rc, capsys.readouterr(), canonical_json(report)))
        assert type((config if field in config else grid)[field]) is float
        assert runs[0] == runs[1]

    def test_missing_grid_override(self, stable_cfg):
        rc = main([
            "verify", "--spec", stable_cfg, "--inequality", "young",
            "--grid", "/nonexistent/grid.json",
        ])
        assert rc == 1

    def test_single_inequality_with_report_file(self, stable_cfg, tmp_path, capsys):
        grid = write_json(tmp_path, "grid.json", FAST_OVERRIDE)
        out_dir = tmp_path / "reports"
        rc = main([
            "verify", "--spec", stable_cfg, "--inequality", "harnack_stable",
            "--grid", grid, "--seed", "11", "--out", str(out_dir),
        ])
        assert rc == 0
        line = capsys.readouterr().out.strip()
        assert line.startswith("harnack_stable: PASS fitted_C=")
        doc = json.loads((out_dir / "report_harnack_stable.json").read_text())
        validate_report(doc)
        assert doc["passed"] is True
        assert doc["inequality_id"] == "harnack_stable"
        assert doc["seed"] == {"master_seed": 11, "stream_id": 0}
        assert doc["fitted_C"] >= 1.0

    def test_csv_format_writes_node_table(self, stable_cfg, tmp_path):
        grid = write_json(tmp_path, "grid.json", FAST_OVERRIDE)
        out_dir = tmp_path / "reports"
        rc = main([
            "verify", "--spec", stable_cfg, "--inequality", "young",
            "--grid", grid, "--out", str(out_dir), "--format", "both",
        ])
        assert rc == 0
        csv_path = out_dir / "report_young.csv"
        lines = csv_path.read_text().strip().splitlines()
        header = lines[0].split(",")
        assert header[:1] == ["t"]
        assert {"x1", "y1", "lhs", "rhs_shape", "slack"} <= set(header)
        assert len(lines) == 1 + 50

    def test_verify_all_stable(self, stable_cfg, tmp_path, capsys):
        grid = write_json(tmp_path, "grid.json", FAST_OVERRIDE)
        out_dir = tmp_path / "reports"
        rc = main([
            "verify", "--spec", stable_cfg, "--grid", grid, "--out", str(out_dir),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        expected_ids = [
            "harnack_stable", "p_harnack", "ratio_lemma", "log_harnack", "young", "jensen",
        ]
        for ineq in expected_ids:
            assert f"{ineq}: PASS" in out
            assert (out_dir / f"report_{ineq}.json").exists()
        assert "harnack_ou" not in out
        assert "truncated_ratio" not in out

    def test_verify_all_truncated_subset(self, trunc_cfg, tmp_path, capsys):
        grid = write_json(
            tmp_path, "grid.json",
            {"t_values": [0.5], "offsets": [0.0, 1.0], "n": 20000,
             "z_count": 7, "n_cases": 50, "validation": False},
        )
        rc = main(["verify", "--spec", trunc_cfg, "--grid", grid])
        assert rc == 0
        out = capsys.readouterr().out
        for ineq in ("log_harnack", "truncated_ratio", "young", "jensen"):
            assert f"{ineq}: PASS" in out
        assert "ratio_lemma" not in out

    def test_verify_all_truncated_d2_runs_what_applies(self, tmp_path, capsys):
        # truncated_ratio reads the exact density, which is d=1 only, so 'all'
        # leaves it out at d=2; named explicitly it is refused in one line
        spec = write_json(tmp_path, "trunc2.json", {**TRUNC_CFG, "d": 2, "alpha": 1.5})
        grid = write_json(tmp_path, "grid.json", {"n": 2000, "validation": False})
        out = tmp_path / "rep"
        rc = main(["verify", "--spec", spec, "--inequality", "all", "--grid", grid, "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 0, captured.err
        ids = ["log_harnack", "young", "jensen"]
        assert [line.split(":")[0] for line in captured.out.splitlines()] == ids
        assert sorted(p.name for p in out.iterdir()) == sorted(f"report_{i}.json" for i in ids)
        rc = main(["verify", "--spec", spec, "--inequality", "truncated_ratio", "--grid", grid])
        err = capsys.readouterr().err
        assert rc == 1 and err.count("\n") == 1 and "implemented for d=1" in err, err

    def test_truncated_ratio_at_alpha_half(self, tmp_path, capsys):
        # radii past the reach (out to 48 r) no longer narrow the xi-panels of
        # the bulk: the default grid is answered and the report written
        spec = write_json(tmp_path, "half.json", {**TRUNC_CFG, "alpha": 0.5})
        out = tmp_path / "rep"
        rc = main(["verify", "--spec", spec, "--inequality", "truncated_ratio", "--out", str(out)])
        assert rc == 0, capsys.readouterr().err
        assert "truncated_ratio: PASS" in capsys.readouterr().out
        doc = json.loads((out / "report_truncated_ratio.json").read_text())
        assert doc["excluded_nodes"] == 0 and doc["mc_meta"]["tail_fit"] == "ok"

    def test_truncated_ratio_refuses_alpha_tenth(self, tmp_path, capsys):
        # at alpha = 0.1, t = 0.25 the cf falls to e^-45 only past xi r ~ 1e10,
        # beyond any xi-rule: one error line, exit 1, no report
        spec = write_json(tmp_path, "tenth.json", {**TRUNC_CFG, "alpha": 0.1})
        out = tmp_path / "rep"
        rc = main(["verify", "--spec", spec, "--inequality", "truncated_ratio", "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1 and err.startswith("harnacklab: error: ") and err.count("\n") == 1, err
        assert "xi-nodes" in err and "alpha=0.1" in err
        assert not out.exists()

    def test_failed_verification_exits_two(self, stable_cfg, tmp_path, capsys, monkeypatch):
        def fake_run(ineq, cfg, seed, overrides):
            return InequalityReport(
                inequality_id="young",
                claim="forced failure",
                spec_doc={"driver": "none"},
                grid_meta={},
                per_node=[],
                fitted_C=1.0,
                validation_C=None,
                excluded_nodes=0,
                seed_doc=None,
                violations=[{"case": 0, "margin": -1.0}],
            )

        monkeypatch.setattr("harnacklab.cli._run_one", fake_run)
        out_dir = tmp_path / "reports"
        rc = main([
            "verify", "--spec", stable_cfg, "--inequality", "young", "--out", str(out_dir),
        ])
        assert rc == 2
        assert "young: FAIL" in capsys.readouterr().out
        viol = json.loads((out_dir / "violations_young.json").read_text())
        assert viol["violations"] == [{"case": 0, "margin": -1.0}]

    @pytest.mark.filterwarnings("error")
    def test_huge_time_verifies_without_warnings(self, stable_cfg, tmp_path, capsys):
        # every |X - c|^2 at t = 1e300 overflows to +inf, the far field of f
        grid = write_json(
            tmp_path, "grid.json", {"t_values": [1e300], "offsets": [0, 1], "n": 2000, "validation": False}
        )
        rc = main(["verify", "--spec", stable_cfg, "--inequality", "harnack_stable", "--grid", grid])
        out, err = capsys.readouterr()
        assert rc == 0 and err == "" and out.startswith("harnack_stable: PASS")

    def test_rerun_is_deterministic(self, stable_cfg, tmp_path, capsys):
        grid = write_json(tmp_path, "grid.json", FAST_OVERRIDE)
        docs = []
        for name in ("a", "b"):
            out_dir = tmp_path / name
            rc = main([
                "verify", "--spec", stable_cfg, "--inequality", "harnack_stable",
                "--grid", grid, "--seed", "3", "--out", str(out_dir),
            ])
            assert rc == 0
            docs.append(json.loads((out_dir / "report_harnack_stable.json").read_text()))
        capsys.readouterr()
        assert canonical_json(docs[0]) == canonical_json(docs[1])
        assert docs[0]["created_at"]  # volatile field present but excluded above

    def test_threads_do_not_change_report(self, stable_cfg, tmp_path, capsys):
        grid = write_json(tmp_path, "grid.json", FAST_OVERRIDE)
        docs = []
        for threads, name in (("1", "t1"), ("4", "t4")):
            out_dir = tmp_path / name
            rc = main([
                "verify", "--spec", stable_cfg, "--inequality", "ratio_lemma",
                "--grid", grid, "--threads", threads, "--out", str(out_dir),
            ])
            assert rc == 0
            docs.append(json.loads((out_dir / "report_ratio_lemma.json").read_text()))
        capsys.readouterr()
        assert canonical_json(docs[0]) == canonical_json(docs[1])
        assert docs[0]["fitted_C"] <= docs[0]["mc_meta"]["lemma_constant"] * (1 + 1e-6)


class TestNumericalErrors:
    """Numerical failures exit 1 with one ``harnacklab: error:`` line, no traceback."""

    @staticmethod
    def _assert_one_line_error(rc, capsys, fragment):
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("harnacklab: error: ")
        assert err.count("\n") == 1
        assert fragment in err

    @staticmethod
    def _density_matches_series(tmp_path, capsys, alpha, radius):
        spec = write_json(
            tmp_path, "small_alpha.json", {"driver": "stable", "d": 1, "alpha": alpha, "c": 1.0}
        )
        rc = main(["density", "--spec", spec, "--t", "1", "--radii", repr(radius)])
        captured = capsys.readouterr()
        assert rc == 0, captured.err
        doc = json.loads(captured.out)
        assert doc["meta"]["method_counts"] == {"quadrature": 1}
        assert doc["values"][0] == pytest.approx(bergstrom_density(alpha, radius), rel=1e-10, abs=0.0)

    def test_quadrature_error(self, stable_cfg, monkeypatch, capsys):
        def failed(*args, **kwargs):
            raise QuadratureError("bulk quadrature diverged on [0.0, 3.14]")

        monkeypatch.setattr(cli, "stable_density_grid", failed)
        rc = main(["density", "--spec", stable_cfg, "--t", "1", "--radii", "1"])
        self._assert_one_line_error(rc, capsys, "bulk quadrature diverged")

    def test_small_alpha_bulk_radius_matches_series(self, tmp_path, capsys):
        # the length scale (t b)^(1/alpha) is ~1.7e5 at alpha = 0.2: a Fourier
        # inversion at radius 1e3 would need ~3e5 oscillation segments
        self._density_matches_series(tmp_path, capsys, 0.2, 1e3)

    def test_no_fallback_inside_four_length_scales(self, tmp_path, capsys):
        # ~1.8e13 at alpha = 0.1: radius 10 is deep in the bulk, where the tail
        # envelope (0.079) exceeds p_t(0) (6.6e-8)
        self._density_matches_series(tmp_path, capsys, 0.1, 10.0)

    @pytest.mark.parametrize("alpha, fragment", [(0.001, "too close to 0"), (1.9999999, "too close to 2")])
    def test_alpha_beyond_the_tables(self, tmp_path, capsys, alpha, fragment):
        # the schema accepts any alpha in (0, 2); the tables' budgets refuse these in one line
        spec = write_json(tmp_path, "edge.json", {"driver": "stable", "d": 2, "alpha": alpha})
        rc = main(["density", "--spec", spec, "--t", "1", "--radii", "1.0"])
        self._assert_one_line_error(rc, capsys, fragment)

    def test_failed_run_leaves_no_out_directory(self, tmp_path, capsys):
        # t sigma c overflows before any report exists, so --out stays uncreated
        spec = write_json(tmp_path, "huge_c.json", {"driver": "stable", "d": 1, "alpha": 1.0, "c": 1e308})
        out = tmp_path / "rep2"
        rc = main(["verify", "--spec", spec, "--inequality", "ratio_lemma", "--out", str(out)])
        self._assert_one_line_error(rc, capsys, "overflows")
        assert not out.exists()

    def test_origin_value_does_not_overflow(self, tmp_path, capsys):
        # every density call forms p_t(0); at d/alpha = 50 and t = 1e4 it holds
        # Gamma(50) / (t b)^50, whose denominator overflows a double on its own
        spec = write_json(tmp_path, "d5.json", {"driver": "stable", "d": 5, "alpha": 0.1})
        rc = main(["density", "--spec", spec, "--t", "10000", "--radii", "1.0"])
        captured = capsys.readouterr()
        assert rc == 0, captured.err
        values = json.loads(captured.out)["values"]
        assert len(values) == 1 and math.isfinite(values[0]) and values[0] > 0.0

    def test_density_estimate_error(self, stable_cfg, monkeypatch, capsys):
        def clamped(*args, **kwargs):
            raise DensityEstimateError("3/3 grid nodes clamped to zero: quadrature breakdown")

        monkeypatch.setattr(cli, "stable_density_grid", clamped)
        rc = main(["density", "--spec", stable_cfg, "--t", "1", "--radii", "1,2,3"])
        self._assert_one_line_error(rc, capsys, "clamped to zero")


def _underflow_everywhere(monkeypatch):
    monkeypatch.setattr(harnack_lab, "RATIO_UNDERFLOW", math.inf)


def _zero_ratio_densities(monkeypatch):
    # the run reads one (offsets, z) array of densities per time; zero those,
    # and leave the reach and the tail fit their values
    real = harnack_lab.truncated_density

    def zeroed(spec, t, x):
        values = real(spec, t, x)
        return np.zeros_like(values) if np.ndim(x) == 2 else values

    monkeypatch.setattr(harnack_lab, "truncated_density", zeroed)


def _far_ball_only(monkeypatch):
    # a Cauchy walk essentially never reaches a ball at 1e6, so every P_t f(y)
    # is 0 and no node is significantly positive
    far_ball = ball_indicator(np.full(1, 1e6), 0.01)
    monkeypatch.setattr(harnack_lab, "default_test_functions", lambda d: [far_ball])


class TestAllNodesExcluded:
    """A verify run that excludes every default node exits 1 with one line
    saying why.  log_harnack is not among them: it excludes no node."""

    @pytest.mark.parametrize(
        "ineq, cfg, force, fragment",
        [
            ("ratio_lemma", STABLE_CFG, _underflow_everywhere, "underflows"),
            ("truncated_ratio", TRUNC_CFG, _zero_ratio_densities, "the densities underflow"),
            ("harnack_stable", STABLE_CFG, _far_ball_only, "not significantly positive"),
            ("p_harnack", STABLE_CFG, _far_ball_only, "not significantly positive"),
        ],
        ids=["ratio_lemma", "truncated_ratio", "harnack_stable", "p_harnack"],
    )
    def test_one_line_with_the_reason(self, tmp_path, capsys, monkeypatch, ineq, cfg, force, fragment):
        force(monkeypatch)
        spec = write_json(tmp_path, "cfg.json", cfg)
        grid = write_json(tmp_path, "grid.json", {**FAST_OVERRIDE, "z_count": 7})
        out = tmp_path / "rep"
        rc = main(["verify", "--spec", spec, "--inequality", ineq, "--grid", grid, "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1 and err.count("\n") == 1, err
        assert err.startswith("harnacklab: error: all nodes excluded: ") and fragment in err
        assert not out.exists()


class TestNonFiniteInputs:
    """Inputs the schemas accept but a double cannot carry: one error line, no output.

    Warnings are errors here, so a RuntimeWarning printed before the error
    line fails the test instead of passing unseen.
    """

    OVERFLOW_CFG = '{"driver": "stable", "d": 1, "alpha": 1.0, "c": 1e308}'
    STABLE_CFG_TEXT = '{"driver": "stable", "d": 1, "alpha": 1.0, "c": 1.0}'
    ESTIMATE = ["estimate", "--t", "1", "--x", "0", "--n", "1000"]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "config, grid, command, fragment",
        [
            (OVERFLOW_CFG, None, ["sample", "--t", "1", "--n", "10"], "overflows"),
            (OVERFLOW_CFG, None, ["density", "--t", "1", "--radii", "1"], "overflows"),
            ('{"driver": "stable", "d": 1, "alpha": NaN}', None,
             ["sample", "--t", "1", "--n", "10"], "cfg.json holds the non-finite number NaN"),
            ('{"driver": "stable", "d": 1, "alpha": 1.0, "c": Infinity}', None,
             ["density", "--t", "1", "--radii", "1"],
             "cfg.json holds the non-finite number Infinity"),
            (STABLE_CFG_TEXT, '{"t_values": [NaN], "n": 4000}',
             ["verify", "--inequality", "young"],
             "grid.json holds the non-finite number NaN"),
            (STABLE_CFG_TEXT, '{"offsets": [0.0, -Infinity], "n": 4000}',
             ["verify", "--inequality", "young"],
             "grid.json holds the non-finite number -Infinity"),
            (STABLE_CFG_TEXT, None, ["density", "--t", "1", "--radii", "nan"],
             "radii must be finite and nonnegative"),
            (STABLE_CFG_TEXT, None, ESTIMATE + ["--f", "ball", "--f-scale", "nan"], "must be finite"),
            (STABLE_CFG_TEXT, None, ESTIMATE + ["--f", "ball", "--f-center", "nan"],
             "--f-center must be finite"),
            (STABLE_CFG_TEXT, None, ["estimate", "--t", "1", "--x", "nan", "--n", "1000"],
             "--x must be finite"),
            (STABLE_CFG_TEXT, None, ESTIMATE + ["--f", "const", "--f-value", "nan"], "must be finite"),
            ('{"driver": "truncated_stable", "d": 1, "alpha": 1.5, "c": 1.0, "r": 1.0}', None,
             ["sample", "--t", "nan", "--n", "10"], "time must be positive"),
            (STABLE_CFG_TEXT, None, ["density", "--t", "nan", "--radii", "1"], "time must be positive"),
        ],
        ids=[
            "sample-overflow", "density-overflow", "config-nan", "config-infinity",
            "grid-nan", "grid-minus-infinity", "radius-nan", "f-scale-nan", "f-center-nan",
            "x-nan", "f-value-nan", "sample-time-nan", "density-time-nan",
        ],
    )
    def test_one_line_error_and_no_output(self, tmp_path, capsys, config, grid, command, fragment):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(config)
        out = tmp_path / "out" / "result.bin"
        argv = command + ["--spec", str(cfg), "--out", str(out)]
        if grid is not None:
            (tmp_path / "grid.json").write_text(grid)
            argv += ["--grid", str(tmp_path / "grid.json")]
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("harnacklab: error: ") and err.count("\n") == 1, err
        assert fragment in err
        assert not (tmp_path / "out").exists() or not any((tmp_path / "out").iterdir())

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("alpha", [0.01, 1.0, 1.99])
    def test_truncated_density_at_the_ends_of_a_double(self, tmp_path, capsys, alpha):
        # c, r and t at the smallest subnormal and at 1e300: each call answers
        # or fails with one error line, with no warning on the way
        cfg = tmp_path / "cfg.json"
        for c, r, t in itertools.product((5e-324, 1e300), repeat=3):
            cfg.write_text(json.dumps({"driver": "truncated_stable", "d": 1, "alpha": alpha, "c": c, "r": r}))
            rc = main(["density", "--spec", str(cfg), "--t", repr(t), "--radii", "0,1"])
            out, err = capsys.readouterr()
            if rc == 0:
                assert all(math.isfinite(v) for v in json.loads(out)["values"])
            else:
                assert rc == 1 and err.startswith("harnacklab: error: ") and err.count("\n") == 1, err


OU_MC_CFG = {"driver": "stable", "d": 2, "alpha": 1.5, "c": 1.0, "A": [[0.5, 0.0], [0.0, 0.5]]}
STABLE_2D_CFG = {"driver": "stable", "d": 2, "alpha": 1.5, "c": 1.0}
TRUNC_MC_CFG = {"driver": "truncated_stable", "d": 1, "alpha": 1.8, "c": 1.0, "r": 0.5}
HUGE_T = {"n": 1000, "t_values": [1e300], "offsets": [0, 1], "validation": False}
TINY_T = {"n": 1000, "t_values": [1e-300], "offsets": [0, 1], "validation": False}
FAR = {"n": 1000, "t_values": [1.0], "offsets": [0, 1e300], "validation": False}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "cfg, grid, command, fragment",
    [
        (OU_MC_CFG, None, ["estimate", "--t", "1e300", "--x", "0,0", "--f", "ball", "--n", "1000"], "t = 1e+300"),
        (OU_MC_CFG, HUGE_T, ["verify", "--inequality", "harnack_ou"], "t = 1e+300"),
        (OU_MC_CFG, TINY_T, ["verify", "--inequality", "harnack_ou"], "t = 1e-300"),
        (OU_MC_CFG, TINY_T, ["verify", "--inequality", "p_harnack"], "t = 1e-300"),
        (STABLE_CFG, TINY_T, ["verify", "--inequality", "harnack_stable"], "t = 1e-300"),
        (OU_MC_CFG, FAR, ["verify", "--inequality", "harnack_ou"], "x = [0.0, 1e+300]"),
        (TRUNC_MC_CFG, FAR, ["verify", "--inequality", "log_harnack"], "x = [1e+300]"),
        (STABLE_2D_CFG, FAR, ["verify", "--inequality", "ratio_lemma"], "x = [0.0, 1e+300]"),
        (STABLE_2D_CFG, {"t_values": [1e-300], "offsets": [0], "n_z": 1, "validation": False},
         ["verify", "--inequality", "ratio_lemma"], "t = 1e-300"),
        # t^(1/alpha) underflows to 0 here
        ({"driver": "stable", "d": 1, "alpha": 0.5, "c": 1.0},
         {"t_values": [1e-300], "offsets": [0], "n_z": 1, "validation": False},
         ["verify", "--inequality", "ratio_lemma"], "t = 1e-300"),
        (OU_MC_CFG, {**FAR, "offsets": [0, 1e80]}, ["verify", "--inequality", "p_harnack"], "x = [0.0, 1e+80]"),
        (STABLE_CFG, None, ["estimate", "--t", "1", "--x", "0", "--f", "ball", "--f-scale", "1.5e154", "--n", "1000"],
         "got 1.5e+154"),
        (STABLE_CFG, None, ["estimate", "--t", "1", "--x", "0", "--f", "bump", "--f-scale", "1e-200", "--n", "1000"],
         "got 1e-200"),
        (STABLE_CFG, None, ["density", "--t", "1", "--x", "1e160"], "x=[1e+160]"),
    ],
    ids=[
        "estimate-huge-t", "harnack_ou-huge-t", "harnack_ou-tiny-t", "p_harnack-tiny-t",
        "harnack_stable-tiny-t", "harnack_ou-far", "log_harnack-far", "ratio_lemma-far",
        "ratio_lemma-tiny-t", "ratio_lemma-underflowing-scale", "p_harnack-far",
        "estimate-huge-scale", "estimate-tiny-scale", "density-far",
    ],
)
def test_out_of_range_input_is_one_worded_line(tmp_path, capsys, cfg, grid, command, fragment):
    # each input leaves the double range inside the lab, not in the schema:
    # it is refused in one line that names the t, offset, scale, point or
    # constant at fault, with no warning (warnings are errors here, numpy's
    # included) and no output
    argv = command + ["--spec", write_json(tmp_path, "cfg.json", cfg), "--out", str(tmp_path / "out")]
    if grid is not None:
        argv += ["--grid", write_json(tmp_path, "grid.json", grid)]
    rc = main(argv)
    out, err = capsys.readouterr()
    assert rc == 1 and out == ""
    assert err.startswith("harnacklab: error: ") and err.count("\n") == 1, err
    assert fragment in err and "range error" not in err and "(34," not in err, err
    assert not (tmp_path / "out").exists()


@pytest.mark.filterwarnings("error")
def test_a_bump_at_a_subnormal_scale_runs_without_warnings(tmp_path, capsys):
    # 2 scale^2 is subnormal at 1e-160: the bump's quotient overflows to
    # -inf off the centre, where the bump is 0, and nothing warns
    out = tmp_path / "est.json"
    argv = ["estimate", "--spec", write_json(tmp_path, "cfg.json", STABLE_CFG), "--t", "1", "--x", "0",
            "--f", "bump", "--f-scale", "1e-160", "--n", "1000", "--out", str(out)]
    assert main(argv) == 0
    assert capsys.readouterr().err == ""
    assert json.loads(out.read_text())["mean"] == 0.0


@pytest.mark.filterwarnings("error")
def test_a_constant_near_the_largest_double_is_exact(tmp_path, capsys):
    # P_t f = 1e308 with no spread, and no warning on the way
    out = tmp_path / "est.json"
    argv = ["estimate", "--spec", write_json(tmp_path, "cfg.json", STABLE_CFG), "--t", "1", "--x", "0",
            "--f", "const", "--f-value", "1e308", "--n", "1000", "--out", str(out)]
    assert main(argv) == 0
    assert capsys.readouterr().err == ""
    doc = json.loads(out.read_text())
    assert (doc["mean"], doc["std_err"]) == (1e308, 0.0)


def _is_sorted_indent2(text: str) -> bool:
    """True when text is exactly json.dumps(sort_keys=True, indent=2) plus a newline."""
    return text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"


class TestIndentedJsonOutputs:
    """Every indented JSON file or stdout document is sorted-key, indent-2 JSON."""

    def test_density_stdout_and_file(self, stable_cfg, tmp_path, capsys):
        argv = ["density", "--spec", stable_cfg, "--t", "1.0", "--radii", "0,0.5,3"]
        assert main(argv) == 0
        assert _is_sorted_indent2(capsys.readouterr().out)
        out = tmp_path / "dens.json"
        assert main(argv + ["--out", str(out)]) == 0
        assert _is_sorted_indent2(out.read_text())

    def test_estimate_stdout_and_file(self, stable_cfg, tmp_path, capsys):
        argv = ["estimate", "--spec", stable_cfg, "--t", "0.5", "--x", "0.25", "--n", "1000"]
        assert main(argv) == 0
        assert _is_sorted_indent2(capsys.readouterr().out)
        out = tmp_path / "est.json"
        assert main(argv + ["--out", str(out)]) == 0
        assert _is_sorted_indent2(out.read_text())

    def test_sample_sidecar(self, trunc_cfg, tmp_path):
        out = tmp_path / "dump.bin"
        assert main(["sample", "--spec", trunc_cfg, "--t", "0.5", "--n", "50", "--out", str(out)]) == 0
        assert _is_sorted_indent2((tmp_path / "dump.bin.json").read_text())

    def test_violations_file(self, stable_cfg, tmp_path, capsys, monkeypatch):
        def failing_run(ineq, cfg, seed, overrides):
            return InequalityReport(
                inequality_id="young",
                claim="forced failure",
                spec_doc={"driver": "none"},
                grid_meta={},
                per_node=[],
                fitted_C=1.0,
                validation_C=None,
                excluded_nodes=0,
                seed_doc=None,
                mc_meta={"min_margin": -0.125, "dims": [1, 20], "note": "é\n"},
                violations=[{"case": 3, "dim": 2, "margin": -1e-7}],
            )

        monkeypatch.setattr("harnacklab.cli._run_one", failing_run)
        out_dir = tmp_path / "reports"
        assert main(["verify", "--spec", stable_cfg, "--inequality", "young", "--out", str(out_dir)]) == 2
        capsys.readouterr()
        assert _is_sorted_indent2((out_dir / "violations_young.json").read_text())
        assert _is_sorted_indent2((out_dir / "report_young.json").read_text())

    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "file"])
    def test_non_finite_estimate_is_a_one_line_error(self, stable_cfg, tmp_path, capsys, monkeypatch, to_file):
        class Infinite:
            mean = math.inf
            std_err = 0.0

        monkeypatch.setattr(SemigroupSampler, "estimate", lambda *args: Infinite())
        out = tmp_path / "out" / "est.json"
        argv = ["estimate", "--spec", stable_cfg, "--t", "0.5", "--x", "0.0"]
        rc = main(argv + (["--out", str(out)] if to_file else []))
        stdout, err = capsys.readouterr()
        assert rc == 1
        assert err == "harnacklab: error: non-finite value cannot be written as JSON\n"
        assert stdout == ""
        assert not (tmp_path / "out").exists()
