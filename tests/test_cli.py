import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose

import misspec
from misspec.cli import main


@pytest.fixture
def canon_file(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(
        json.dumps(
            {
                "k": 2,
                "p": 1,
                "Y": [0.0, 2.0],
                "X": [[1.0], [1.0]],
                "W": [[1.0, 0.0], [0.0, 1.0]],
            }
        )
    )
    return str(path)


@pytest.fixture
def just_identified_file(tmp_path):
    path = tmp_path / "ji.json"
    path.write_text(
        json.dumps(
            {"k": 2, "p": 2, "Y": [1.0, 2.0], "X": [[1.0, 0.0], [0.0, 1.0]],
             "W": [[1.0, 0.0], [0.0, 1.0]]}
        )
    )
    return str(path)


def _run(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestAnalyze:
    def test_canonical_report(self, canon_file, capsys):
        code, out, err = _run(
            ["analyze", "--model", canon_file, "--v", "1", "--level", "0.95",
             "--d", f"1,{math.sqrt(2.0)!r},{math.sqrt(6.0)!r}"],
            capsys,
        )
        assert code == 0 and err == ""
        report = json.loads(out)
        assert_allclose(report["theta_w"], [1.0])
        assert_allclose(report["j_stat"], 2.0)
        assert_allclose(report["sigma_v"], 1.0 / math.sqrt(2.0))
        assert abs(report["ci"]["upper"] - (1.0 + 12.7062 / math.sqrt(2.0) * math.sqrt(2.0))) < 2e-3
        sets = report["identified_sets"]
        assert sets[0]["empty"] and sets[0]["lower"] is None
        assert sets[1]["singleton"]
        assert_allclose(sets[2]["lower"], 1.0 - math.sqrt(2.0))
        assert_allclose(sets[2]["upper"], 1.0 + math.sqrt(2.0))

    def test_just_identified_exit_code(self, just_identified_file, capsys):
        code, out, err = _run(
            ["analyze", "--model", just_identified_file, "--v", "1,0", "--level", "0.9"],
            capsys,
        )
        assert code == 1
        payload = json.loads(err)
        assert payload["code"] == 1
        assert "just-identified" in payload["message"]

    def test_missing_file(self, capsys):
        code, _, err = _run(["analyze", "--model", "/nonexistent.json"], capsys)
        assert code == 1
        assert json.loads(err)["code"] == 1

    def test_invalid_model_reports_invariant(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"k": 2, "p": 1, "Y": [0.0, 1.0],
                                   "X": [[1.0], [1.0]],
                                   "W": [[1.0, 0.0], [0.0, -1.0]]}))
        code, _, err = _run(["analyze", "--model", str(bad)], capsys)
        assert code == 1
        assert "positive definite" in json.loads(err)["message"]

    def test_output_file(self, canon_file, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        code, out, _ = _run(
            ["analyze", "--model", canon_file, "--out", str(out_path)], capsys
        )
        assert code == 0 and out == ""
        assert json.loads(out_path.read_text())["j_stat"] == 2


class TestNonFiniteModel:
    # json.load reads the NaN and Infinity tokens that json.dumps writes.
    CASES = {
        "nan-Y": ('"Y": [NaN, 2.0], "X": [[1.0], [1.0]], "W": [[1.0, 0.0], [0.0, 1.0]]', "Y"),
        "nan-X": ('"Y": [0.0, 2.0], "X": [[1.0], [NaN]], "W": [[1.0, 0.0], [0.0, 1.0]]', "X"),
        "inf-W": ('"Y": [0.0, 2.0], "X": [[1.0], [1.0]], "W": [[Infinity, 0.0], [0.0, 1.0]]', "W"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("command", [["analyze"], ["concentration", "--c-grid", "1e-2"]])
    def test_one_json_line(self, case, command, tmp_path, capsys):
        fields, name = self.CASES[case]
        path = tmp_path / "model.json"
        path.write_text('{"k": 2, "p": 1, ' + fields + "}")
        code, out, err = _run([command[0], "--model", str(path), *command[1:]], capsys)
        assert code == 1 and out == ""
        (line,) = err.splitlines()
        assert json.loads(line) == {"code": 1, "message": f"{name} must be finite"}


class TestNonFiniteInputs:
    # (argv, a word the message must contain to name the bad input)
    CASES = {
        "analyze-v": (["analyze", "--model", "{m2}", "--v", "nan,1"], "v must be finite"),
        "analyze-d": (["analyze", "--model", "{m2}", "--v", "1,1", "--d", "nan"], "norm bound d"),
        "analyze-d-inf": (["analyze", "--model", "{m2}", "--v", "1,1", "--d", "inf"], "norm bound d"),
        "concentration-c-decreasing": (
            ["concentration", "--model", "{m2}", "--c-grid", "1e-2,1e-4"], "c_grid"
        ),
        "concentration-c-zero": (["concentration", "--model", "{m2}", "--c-grid", "1e-2,0"], "c_grid"),
        "pivot-v": (["pivot", "--v", "nan", "--reps", "200"], "v must be finite"),
        "coverage-sd-nan": (["coverage", "--reps", "1000", "--theta-sd", "nan"], "sd"),
        "coverage-sd-inf": (["coverage", "--reps", "1000", "--theta-sd", "inf"], "sd"),
        "coverage-mean": (["coverage", "--reps", "1000", "--theta-mean", "nan,0"], "mean"),
        "contaminate-points-neg": (
            ["contaminate", "--model", "{m1}", "--phi", "0.01", "--c-grid", "1e-2",
             "--grid-points", "-5"],
            "grid_points",
        ),
        "contaminate-points-1": (
            ["contaminate", "--model", "{m1}", "--phi", "0.01", "--c-grid", "1e-2",
             "--grid-points", "1"],
            "grid_points",
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_one_json_line(self, case, capsys):
        argv, word = self.CASES[case]
        golden = os.path.join(os.path.dirname(__file__), "golden")
        paths = {k: os.path.join(golden, f"{k}.json") for k in ("m1", "m2")}
        code, out, err = _run([a.format(**paths) for a in argv], capsys)
        assert code == 1 and out == ""
        (line,) = err.splitlines()
        payload = json.loads(line)
        assert payload["code"] == 1 and word in payload["message"]


class TestCoverage:
    def test_byte_identical_reruns(self, tmp_path):
        paths = [str(tmp_path / f"c{i}.json") for i in (1, 2)]
        for p in paths:
            code = main(["coverage", "--reps", "200", "--seed", "1", "--out", p])
            assert code == 0
        a, b = (open(p, "rb").read() for p in paths)
        assert a == b

    def test_payload_fields(self, capsys):
        code, out, _ = _run(["coverage", "--reps", "300", "--seed", "9"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["reps"] == 300
        assert payload["hits"] == round(payload["coverage"] * 300)
        assert payload["config"]["radial"] == "normal"

    def test_custom_model_fixture(self, canon_file, capsys):
        code, out, _ = _run(
            ["coverage", "--model", canon_file, "--v", "1", "--reps", "400",
             "--seed", "2", "--radial", "t:4"],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["config"]["k"] == 2


class TestPivot:
    def test_default_and_negative_control(self, capsys):
        code, out, _ = _run(["pivot", "--reps", "2500", "--seed", "3"], capsys)
        assert code == 0
        base = json.loads(out)
        assert base["ks"] < base["threshold_1pct"]
        code, out, _ = _run(
            ["pivot", "--reps", "2500", "--seed", "3", "--negative-control"], capsys
        )
        ctrl = json.loads(out)
        assert ctrl["ks"] > ctrl["threshold_1pct"]


class TestSeedRange:
    @pytest.mark.parametrize("cmd", ["coverage", "pivot"])
    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_out_of_range_seed_is_one_json_line(self, cmd, seed, capsys):
        code, out, err = _run([cmd, "--reps", "200", "--seed", str(seed)], capsys)
        assert code == 1 and out == ""
        (line,) = err.splitlines()
        payload = json.loads(line)
        assert payload["code"] == 1 and "seed" in payload["message"]

    @pytest.mark.parametrize("cmd", ["coverage", "pivot"])
    def test_largest_seed_runs(self, cmd, capsys):
        code, out, err = _run([cmd, "--reps", "200", "--seed", str(2**64 - 1)], capsys)
        assert code == 0 and err == ""
        assert json.loads(out)["seed"] == 2**64 - 1


class TestSweepCommands:
    def test_concentration_csv(self, canon_file, capsys):
        code, out, _ = _run(
            ["concentration", "--model", canon_file, "--radial", "normal",
             "--c-grid", "1e-4,1e-2", "--eps", "0.1", "--grid-points", "801"],
            capsys,
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "axis,metric,value"
        assert len(lines) == 1 + 2 * 3

    def test_contaminate_csv(self, canon_file, capsys):
        code, out, _ = _run(
            ["contaminate", "--model", canon_file, "--phi", "0.01",
             "--c-grid", "1e-6", "--contaminant-c", "4.0", "--grid-points", "401"],
            capsys,
        )
        assert code == 0
        rows = [ln.split(",") for ln in out.strip().splitlines()[1:]]
        tv = [float(r[2]) for r in rows if r[1] == "tv_to_contaminant"]
        assert tv[0] < 0.05

    def test_tails_csv(self, capsys):
        code, out, _ = _run(
            ["tails", "--radial", "t:3", "--a", "2", "--tau", "1,10", "--c", "1e-6"],
            capsys,
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "a,tau,c,ratio"
        ratios = [float(ln.split(",")[3]) for ln in lines[1:]]
        assert all(abs(r - 0.125) < 0.005 for r in ratios)

    @pytest.mark.parametrize("k", ["0", "-1"])
    def test_tails_nonpositive_k_is_one_json_line(self, k, capsys):
        code, out, err = _run(["tails", "--radial", "t:3", "--k", k], capsys)
        assert code == 1 and out == ""
        (line,) = err.splitlines()
        payload = json.loads(line)
        assert payload["code"] == 1 and "k must be positive" in payload["message"]

    def test_numerical_error_exit_code(self, capsys):
        code, _, err = _run(
            ["tails", "--radial", "normal", "--a", "2", "--tau", "1e6", "--c", "1e-310"],
            capsys,
        )
        assert code == 2
        assert json.loads(err)["code"] == 2


class TestScenario:
    def test_iv_population(self, tmp_path, capsys):
        params = tmp_path / "iv.json"
        params.write_text(json.dumps({
            "k": 2, "theta_ate": 1.0, "beta_vec": [0.0, 2.0],
            "first_stage": [1.0, 1.0], "z_cov": [[1.0, 0.0], [0.0, 1.0]],
        }))
        code, out, _ = _run(["scenario", "iv", "--params", str(params)], capsys)
        assert code == 0
        model = json.loads(out)
        assert model["k"] == 2 and model["p"] == 1
        assert_allclose(model["Y"], [0.0, 2.0])

    def test_iv_sample_deterministic(self, tmp_path, capsys):
        params = tmp_path / "iv.json"
        params.write_text(json.dumps({
            "k": 2, "theta_ate": 1.0, "beta_vec": [1.0, 1.0],
            "first_stage": [0.2, 0.2], "z_cov": [[1.0, 0.0], [0.0, 1.0]],
            "dgp": {"c0": 0.0, "delta": 1.0, "theta_bar": 1.0},
        }))
        outs = []
        for _ in range(2):
            code, out, _ = _run(
                ["scenario", "iv", "--params", str(params), "--sample", "2000", "--seed", "7"],
                capsys,
            )
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]

    def test_logit(self, tmp_path, capsys):
        params = tmp_path / "logit.json"
        params.write_text(json.dumps({
            "support": [-1.0, 0.0, 1.0], "probs": [1 / 3, 1 / 3, 1 / 3],
            "cond_means": [0.2, 0.5, 0.9], "x_star": [-2.0, 2.0],
        }))
        code, out, _ = _run(["scenario", "logit", "--params", str(params)], capsys)
        assert code == 0
        model = json.loads(out)
        assert model["k"] == 3 and model["p"] == 2
        assert_allclose(model["W"], np.diag([1 / 3, 1 / 3, 1 / 3]), atol=1e-15)

    IV = {"k": 2, "theta_ate": 1.0, "beta_vec": [1.0, 1.0], "first_stage": [0.2, 0.2],
          "z_cov": [[1.0, 0.0], [0.0, 1.0]]}
    LOGIT = {"support": [-1.0, 0.0, 1.0], "probs": [0.25, 0.25, 0.5],
             "cond_means": [0.2, 0.5, 0.9], "x_star": [-2.0, 2.0]}

    @pytest.mark.parametrize(
        "kind, params, field",
        [
            ("iv", {**IV, "theta_ate": "one"}, "theta_ate"),
            ("iv", {**IV, "dgp": {"delta": "x"}}, "delta"),
            ("logit", {**LOGIT, "x_star": 5}, "x_star"),
            ("iv", {**IV, "dgp": 5}, "dgp"),
        ],
    )
    def test_malformed_params_field_is_one_json_line(self, kind, params, field, tmp_path, capsys):
        path = tmp_path / "params.json"
        path.write_text(json.dumps(params))
        code, out, err = _run(["scenario", kind, "--params", str(path), "--sample", "200"], capsys)
        assert code == 1 and out == ""
        (line,) = err.splitlines()
        payload = json.loads(line)
        assert payload["code"] == 1 and repr(field) in payload["message"]

    def test_absent_dgp_fields_take_the_dataclass_defaults(self, tmp_path, capsys):
        from misspec.scenarios import IVDgpParams

        d = IVDgpParams()
        explicit = {"c0": d.c0, "c": d.c, "delta": d.delta, "theta_bar": d.theta_bar}
        outs = []
        for dgp in ({}, explicit):
            path = tmp_path / "iv.json"
            path.write_text(json.dumps({**self.IV, "dgp": dgp}))
            code, out, _ = _run(["scenario", "iv", "--params", str(path), "--sample", "500"], capsys)
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]

    def test_params_must_be_an_object(self, tmp_path, capsys):
        path = tmp_path / "params.json"
        path.write_text("[1, 2]")
        code, out, err = _run(["scenario", "logit", "--params", str(path)], capsys)
        assert code == 1 and out == ""
        assert "JSON object" in json.loads(err)["message"]

    def test_missing_params_field(self, tmp_path, capsys):
        params = tmp_path / "iv.json"
        params.write_text(json.dumps({"k": 2}))
        code, _, err = _run(["scenario", "iv", "--params", str(params)], capsys)
        assert code == 1
        assert "missing field" in json.loads(err)["message"]


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        code, _, err = _run(["frobnicate"], capsys)
        assert code == 1
        assert "usage:" in err

    def test_unknown_flag(self, capsys):
        code, _, err = _run(["pivot", "--does-not-exist"], capsys)
        assert code == 1
        assert "usage:" in err


def test_console_entry_point_runs():
    # The child imports the same package as this suite, installed or not.
    src = os.path.dirname(os.path.dirname(misspec.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "misspec.cli", "tails", "--radial", "normal",
         "--a", "2", "--tau", "1", "--c", "1e-4"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("a,tau,c,ratio")


def test_import_leaves_out_scipy_integrate():
    src = os.path.dirname(os.path.dirname(misspec.__file__))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import os, sys, misspec; print('scipy.integrate' in sys.modules); "
         "from misspec import cli; "
         "cli.main(['tails', '--radial', 't:3', '--out', os.devnull]); "
         "cli.main(['tails', '--radial', 'normal', '--out', os.devnull]); "
         "print('scipy.integrate' in sys.modules)"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0 and proc.stdout.split() == ["False", "False"]


def test_import_leaves_out_scipy_linalg():
    src = os.path.dirname(os.path.dirname(misspec.__file__))
    golden = os.path.join(os.path.dirname(__file__), "golden")
    proc = subprocess.run(
        [sys.executable, "-c",
         "import os, sys, misspec; from misspec import cli; "
         "cli.main(['analyze', '--model', 'm2.json', '--out', os.devnull]); "
         "cli.main(['coverage', '--reps', '1000', '--out', os.devnull]); "
         "cli.main(['concentration', '--model', 'm1.json', '--c-grid', '1e-2', "
         "'--grid-points', '101', '--out', os.devnull]); "
         "print('scipy.linalg' in sys.modules)"],
        capture_output=True,
        text=True,
        cwd=golden,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0 and proc.stdout.split() == ["False"]
