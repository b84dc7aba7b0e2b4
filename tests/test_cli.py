import ast
import json
import math
import os
import pathlib
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


def _error(args, capsys, code=1, usage=False) -> str:
    """The message of the one JSON line on stderr that ``args`` must exit ``code`` with.

    With ``usage`` the line must follow the usage text that an argv error prints first.
    """
    status, out, err = _run(args, capsys)
    assert status == code and out == ""
    lines = err.splitlines()
    if usage:
        assert lines[0].startswith("usage:")
        assert not any(ln.startswith("{") for ln in lines[:-1])
        lines = lines[-1:]
    (line,) = lines
    payload = json.loads(line)
    assert payload.keys() == {"code", "message"} and payload["code"] == code
    return payload["message"]


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

    def test_small_data_keeps_its_interval(self, tmp_path, capsys):
        # Y scaled by 1e-7 puts Y'WY far below 1; J is still an O(1) relative
        # misfit, so the interval scales with Y rather than collapsing to a point.
        m2 = os.path.join(os.path.dirname(__file__), "golden", "m2.json")
        with open(m2) as fh:
            spec = json.load(fh)
        spec["Y"] = [1e-7 * y for y in spec["Y"]]
        small = tmp_path / "small.json"
        small.write_text(json.dumps(spec))
        reports = []
        for path in (m2, str(small)):
            code, out, err = _run(["analyze", "--model", path], capsys)
            assert code == 0 and err == ""
            reports.append(json.loads(out))
        assert reports[1]["ci"]["lower"] < reports[1]["ci"]["upper"]
        for end in ("lower", "upper"):
            assert_allclose(reports[1]["ci"][end], 1e-7 * reports[0]["ci"][end], rtol=1e-14)
        code, _, err = _run(["concentration", "--model", str(small), "--radial", "powerlaw:2",
                             "--c-grid", "1e-16,1", "--eps", "1e-7"], capsys)
        assert code == 0 and err == ""

    def test_huge_v_scales_sigma_v(self, capsys):
        # v'(X'WX)^{-1}v overflows at v = 1e300; sigma_v, 4.03e299, does not.
        m1 = os.path.join(os.path.dirname(__file__), "golden", "m1.json")
        reports = []
        for v in ("1", "1e300"):
            code, out, err = _run(["analyze", "--model", m1, "--v", v], capsys)
            assert code == 0 and err == ""
            reports.append(json.loads(out))
        assert_allclose(reports[1]["sigma_v"], 1e300 * reports[0]["sigma_v"], rtol=1e-15)
        for end in ("lower", "upper"):
            assert_allclose(reports[1]["ci"][end], 1e300 * reports[0]["ci"][end], rtol=1e-14)

    def test_d_whose_square_overflows(self):
        # d^2 overflows; the half-width sigma_v sqrt(d^2 - J), about 5.97e159, does not.
        proc = _child(["-W", "error", "-m", "misspec.cli", "analyze", "--model", "m2.json",
                       "--v", "1,0", "--d", "1e160"],
                      cwd=os.path.join(os.path.dirname(__file__), "golden"))
        assert proc.returncode == 0 and proc.stderr == ""
        report = json.loads(proc.stdout)
        (iv,) = report["identified_sets"]
        hw = report["sigma_v"] * 1e160
        assert_allclose([iv["lower"], iv["upper"]], [-hw, hw], rtol=1e-15)

    def test_just_identified_exit_code(self, just_identified_file, capsys):
        argv = ["analyze", "--model", just_identified_file, "--v", "1,0", "--level", "0.9"]
        assert "just-identified" in _error(argv, capsys)

    def test_missing_file(self, capsys):
        _error(["analyze", "--model", "/nonexistent.json"], capsys)

    def test_invalid_model_reports_invariant(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"k": 2, "p": 1, "Y": [0.0, 1.0],
                                   "X": [[1.0], [1.0]],
                                   "W": [[1.0, 0.0], [0.0, -1.0]]}))
        assert "positive definite" in _error(["analyze", "--model", str(bad)], capsys)

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
        message = _error([command[0], "--model", str(path), *command[1:]], capsys)
        assert message == f"{name} must be finite"


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
        # The sweep is closed-form: a grid size, good or bad, is an unknown flag,
        # refused after the usage text (see USAGE).
        "contaminate-points-neg": (
            ["contaminate", "--model", "{m1}", "--phi", "0.01", "--c-grid", "1e-2",
             "--grid-points", "-5"],
            "--grid-points",
        ),
        "contaminate-points-1": (
            ["contaminate", "--model", "{m1}", "--phi", "0.01", "--c-grid", "1e-2",
             "--grid-points", "1"],
            "--grid-points",
        ),
        "concentration-eps-alike": (
            ["concentration", "--model", "{m1}", "--c-grid", "1e-2", "--eps", "0.1,0.1"],
            "'mass_outside_0.1'",
        ),
        "coverage-reps-zero": (["coverage", "--reps", "0"], "reps"),
        "pivot-reps-huge": (["pivot", "--reps", "10000000000000"], "reps"),
        "contaminate-eps-alike": (
            ["contaminate", "--model", "{m1}", "--phi", "0.01", "--c-grid", "1e-2",
             "--eps", "0.1,0.1000001"],
            "'mass_outside_0.1'",
        ),
        "model-not-utf8": (["analyze", "--model", "{latin1}"], "cannot parse JSON"),
        "coverage-model-not-utf8": (["coverage", "--model", "{latin1}"], "cannot parse JSON"),
        "params-not-utf8": (["scenario", "iv", "--params", "{latin1}"], "cannot parse JSON"),
        "model-k-overflow": (["analyze", "--model", "{k_overflow}"], "got inf"),
        "model-k-fraction": (["analyze", "--model", "{k_fraction}"], "got 2.7"),
        "model-p-bool": (["pivot", "--model", "{p_bool}"], "got True"),
        "model-k-string": (["analyze", "--model", "{k_string}"], "got '2'"),
        # Both sweeps name their p <= 2 limit before any other check.
        "concentration-p3": (
            ["concentration", "--model", "{p3}", "--c-grid", "1e-2"], "p <= 2, got p = 3"
        ),
        "contaminate-p3": (
            ["contaminate", "--model", "{p3}", "--phi", "0.01", "--c-grid", "1e-2"],
            "p <= 2, got p = 3",
        ),
        "concentration-ill-conditioned": (
            ["concentration", "--model", "{ill_conditioned}", "--c-grid", "1e-2"],
            "X'WX has condition number",
        ),
    }
    # Cases refused by the argv parser, which prints the usage text first.
    USAGE = {"contaminate-points-neg", "contaminate-points-1"}
    # Input files written per test; the rest of each model is the canonical one.
    ARRAYS = '"Y": [0.0, 2.0], "X": [[1.0], [1.0]], "W": [[1.0, 0.0], [0.0, 1.0]]}'
    FILES = {
        "latin1": b'{"k": 2, "p": 1, "Y": "\xff"}',
        "k_overflow": ('{"k": 1e999999, "p": 1, ' + ARRAYS).encode(),
        "k_fraction": ('{"k": 2.7, "p": 1, ' + ARRAYS).encode(),
        "p_bool": ('{"k": 2, "p": true, ' + ARRAYS).encode(),
        "k_string": ('{"k": "2", "p": 1, ' + ARRAYS).encode(),
        "p3": json.dumps({
            "k": 4, "p": 3, "Y": [0.3, 2.1, -0.7, 1.4],
            "X": [[1.0, 0.0, 0.5], [0.0, 1.0, 0.2], [1.0, 1.0, 0.0], [0.3, -1.0, 1.0]],
            "W": np.eye(4).tolist(),
        }).encode(),
        "ill_conditioned": json.dumps({
            "k": 4, "p": 2, "Y": [0.3, 2.1, -0.7, 1.4],
            "X": [[1.0, 1.0], [1.0, 1.0 + 1e-6], [1.0, 1.0 - 1e-6], [1.0, 1.0]],
            "W": np.eye(4).tolist(),
        }).encode(),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_one_json_line(self, case, tmp_path, capsys):
        argv, word = self.CASES[case]
        golden = os.path.join(os.path.dirname(__file__), "golden")
        paths = {k: os.path.join(golden, f"{k}.json") for k in ("m1", "m2")}
        for name, content in self.FILES.items():
            paths[name] = tmp_path / f"{name}.json"
            paths[name].write_bytes(content)
        argv = [a.format(**paths) for a in argv]
        assert word in _error(argv, capsys, usage=case in self.USAGE)


class TestCoverage:
    def test_byte_identical_reruns(self, tmp_path):
        paths = [str(tmp_path / f"c{i}.json") for i in (1, 2)]
        for p in paths:
            code = main(["coverage", "--reps", "200", "--seed", "1", "--out", p])
            assert code == 0
        a, b = (pathlib.Path(p).read_bytes() for p in paths)
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

    def _hits(self, capsys, *flags):
        code, out, err = _run(["coverage", "--reps", "2000", *flags], capsys)
        assert code == 0 and err == ""
        return json.loads(out)

    def test_hits_do_not_depend_on_the_scales(self, capsys):
        # A replication covers v'theta iff the t statistic of its eta is at
        # most t* in size, whatever theta and the scales of eta and v.  Formed
        # from Y = X theta + eta, J is rounding noise at a tiny c.
        base = self._hits(capsys)["hits"]
        assert abs(base / 2000 - 0.95) < 0.02
        for flags in (["--c", "1e-24"], ["--c", "1e-28"], ["--c", "1e-32"]):
            assert self._hits(capsys, *flags)["hits"] == base, flags
        v_huge = self._hits(capsys, "--v", "1e308,1e308")["hits"]
        assert v_huge == self._hits(capsys, "--v", "1,1")["hits"]

    @pytest.mark.parametrize(
        "flags, c, theta_sd",
        [
            (["--c", "1e308", "--radial", "t:3"], "1e+308", "10"),
            (["--theta-sd", "1e200"], "1", "1e+200"),
            (["--theta-sd", "1e308"], "1", "1e+308"),
        ],
    )
    def test_overflowing_replication_is_a_numerical_error(self, flags, c, theta_sd, capsys):
        # Formed from Y = X theta + eta, J or the centre of these replications
        # overflows.  That is an error of the arithmetic only: the coverage
        # event is |T(eta)| <= t*, so each run has the hits of its radial
        # family at c = 1 and the default theta sd.
        radial = flags[flags.index("--radial"):] if "--radial" in flags else []
        payload = self._hits(capsys, "--c", c, "--theta-sd", theta_sd, *radial)
        assert payload["config"]["c"] == float(c)
        assert payload["hits"] == self._hits(capsys, *radial)["hits"]

    def test_huge_finite_scale_still_runs(self, capsys):
        code, out, err = _run(["coverage", "--reps", "2000", "--c", "1e300"], capsys)
        assert code == 0 and err == ""
        assert abs(json.loads(out)["coverage"] - 0.95) < 0.02


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

    def test_ks_does_not_depend_on_the_prior_scale(self, capsys):
        # The t statistic is scale-free, so eta is drawn at c = 1; drawn at
        # c = 1e308, eta'B eta would overflow.
        ks = []
        for c in ("1", "1e308", "1e-320"):
            code, out, err = _run(["pivot", "--reps", "2000", "--c", c], capsys)
            assert code == 0 and err == ""
            ks.append(json.loads(out)["ks"])
        assert ks[0] < 0.036 and ks == [ks[0]] * 3


class TestTinyTDof:
    @pytest.mark.parametrize(
        "cmd, radial",
        [("coverage", "t:0.001"), ("coverage", "t:1e-300"), ("pivot", "t:0.001"), ("pivot", "t:1e-5")],
    )
    def test_runs_are_nominal(self, cmd, radial, capsys):
        # The t statistic cancels the radial scale sqrt(dof / w), which the
        # kernels never apply, so a chi-square draw that underflows to 0 is
        # harmless and the theorem's 0.95 and t_{k-p} law hold at any dof.
        code, out, err = _run([cmd, "--reps", "4000", "--radial", radial], capsys)
        assert code == 0 and err == ""
        payload = json.loads(out)
        if cmd == "coverage":
            assert abs(payload["coverage"] - 0.95) <= 4.0 * math.sqrt(0.95 * 0.05 / 4000)
        else:
            assert payload["ks"] < payload["threshold_1pct"]


class TestRejectedInputs:
    @pytest.mark.parametrize(
        "argv",
        [
            ["coverage", "--reps", "200", "--radial"],
            ["pivot", "--reps", "200", "--radial"],
            ["concentration", "--c-grid", "1", "--radial"],
            ["contaminate", "--c-grid", "1", "--phi", "0.1", "--contaminant"],
            ["tails", "--radial"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_t_dof_whose_half_underflows_is_one_json_line(self, argv, canon_file, capsys):
        # 0.5 * 5e-324 is 0, the shape of the t family's chi-square and gamma terms.
        model = ["--model", canon_file] if argv[0] in ("concentration", "contaminate") else []
        message = _error([*argv, "t:5e-324", *model], capsys)
        assert message == "t radial dof must be finite with dof/2 positive, got 5e-324"

    @pytest.mark.parametrize("cmd", ["concentration", "contaminate"])
    def test_underflowing_posterior_scale_names_c(self, cmd, canon_file, capsys):
        # c (X'WX)^-1 underflows to the zero matrix.
        argv = [cmd, "--model", canon_file, "--c-grid", "5e-324"]
        message = _error(argv + (["--phi", "0.1"] if cmd == "contaminate" else []), capsys)
        assert message.startswith("posterior at prior scale c = 4.94066e-324 is unrepresentable")

    @pytest.mark.parametrize(
        "field, arrays",
        [
            ("Y", '"Y": ["a", 1], "X": [[1.0], [1.0]], "W": [[1.0, 0.0], [0.0, 1.0]]'),
            ("X", '"Y": [0.0, 2.0], "X": [[1.0], [1.0, 2]], "W": [[1.0, 0.0], [0.0, 1.0]]'),
        ],
    )
    def test_malformed_model_array_names_the_field(self, field, arrays, tmp_path, capsys):
        path = tmp_path / "model.json"
        path.write_text('{"k": 2, "p": 1, ' + arrays + "}")
        message = _error(["analyze", "--model", str(path)], capsys)
        assert message.startswith(f"model JSON field {field} must be a numeric array")


class TestSeedRange:
    @pytest.mark.parametrize("cmd", ["coverage", "pivot"])
    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_out_of_range_seed_is_one_json_line(self, cmd, seed, capsys):
        assert "seed" in _error([cmd, "--reps", "200", "--seed", str(seed)], capsys)

    @pytest.mark.parametrize("cmd", ["coverage", "pivot"])
    def test_largest_seed_runs(self, cmd, capsys):
        code, out, err = _run([cmd, "--reps", "200", "--seed", str(2**64 - 1)], capsys)
        assert code == 0 and err == ""
        assert json.loads(out)["seed"] == 2**64 - 1


class TestSweepCommands:
    def test_concentration_csv(self, canon_file, capsys):
        code, out, _ = _run(
            ["concentration", "--model", canon_file, "--radial", "normal",
             "--c-grid", "1e-4,1e-2", "--eps", "0.1"],
            capsys,
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "axis,metric,value"
        assert len(lines) == 1 + 2 * 3

    def test_concentration_has_no_grid_points_flag(self, canon_file, capsys):
        code, _, err = _run(
            ["concentration", "--model", canon_file, "--c-grid", "1e-2", "--grid-points", "801"],
            capsys,
        )
        assert code == 1 and "--grid-points" in err

    @staticmethod
    def _concentration_rows(capsys, *flags) -> dict:
        m1 = os.path.join(os.path.dirname(__file__), "golden", "m1.json")
        code, out, err = _run(["concentration", "--model", m1, *flags], capsys)
        assert code == 0 and err == ""
        rows = [ln.split(",") for ln in out.strip().splitlines()[1:]]
        return {(float(c), name): float(v) for c, name, v in rows}

    def test_concentration_extreme_scales_are_finite(self, capsys):
        rows = self._concentration_rows(capsys, "--c-grid", "1e-300,1e300")
        assert len(rows) == 2 * 3 and all(math.isfinite(v) for v in rows.values())
        assert rows[(1e-300, "mass_outside_0.1")] == 0.0
        assert rows[(1e300, "mass_outside_0.1")] == 1.0

    @pytest.mark.parametrize(
        "alpha, dof, has_mean", [("0.6", 0.2, False), ("1.25", 1.5, True), ("2", 3.0, True)]
    )
    def test_concentration_moments_that_do_not_exist(self, capsys, alpha, dof, has_mean):
        # m1 has p = 1, so the power-law posterior is t with dof 2 alpha - 1:
        # no variance at dof <= 2, no mean at dof <= 1.
        rows = self._concentration_rows(capsys, "--radial", f"powerlaw:{alpha}", "--c-grid", "1e-2,1")
        for c in (1e-2, 1.0):
            assert 0.0 < rows[(c, "mass_outside_0.1")] < 1.0
            assert math.isinf(rows[(c, "posterior_sd")]) == (dof <= 2.0)
            assert math.isnan(rows[(c, "bayes_action")]) == (not has_mean)

    def test_contaminate_csv(self, canon_file, capsys):
        code, out, _ = _run(
            ["contaminate", "--model", canon_file, "--phi", "0.01",
             "--c-grid", "1e-6", "--contaminant-c", "4.0"],
            capsys,
        )
        assert code == 0
        rows = [ln.split(",") for ln in out.strip().splitlines()[1:]]
        tv = [float(r[2]) for r in rows if r[1] == "tv_to_contaminant"]
        assert tv[0] < 0.05

    @pytest.mark.parametrize("family", ["normal", "t:3"])
    def test_contaminant_quadratic_form_overflow_is_silent(self, family, capsys):
        # q / c overflows to +inf at c = 1e-300, where log f is -inf, its limit.
        m1 = os.path.join(os.path.dirname(__file__), "golden", "m1.json")
        code, out, err = _run(
            ["contaminate", "--model", m1, "--phi", "0.5", "--c-grid", "1e-300",
             "--contaminant-c", "1e300", "--radial", family, "--contaminant", family],
            capsys,
        )
        assert code == 0 and err == ""
        assert out.splitlines()[0] == "axis,metric,value"

    def test_contaminate_extreme_scales_are_probabilities(self, capsys):
        # Base and contaminant posteriors far narrower than the float spacing at
        # theta_W, and one far wider, with a contaminant weight near underflow.
        m1 = os.path.join(os.path.dirname(__file__), "golden", "m1.json")
        code, out, err = _run(
            ["contaminate", "--model", m1, "--phi", "1e-300", "--c-grid", "1e-300,1e300",
             "--contaminant-c", "1e-300"],
            capsys,
        )
        assert code == 0 and err == ""
        rows = [ln.split(",") for ln in out.strip().splitlines()[1:]]
        assert len(rows) == 2 * 2
        assert all(0.0 <= float(v) <= 1.0 for _, _, v in rows)

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
        assert "k must be positive" in _error(["tails", "--radial", "t:3", "--k", k], capsys)

    def test_numerical_error_exit_code(self, capsys):
        argv = ["tails", "--radial", "normal", "--a", "2", "--tau", "1e6", "--c", "1e-310"]
        _error(argv, capsys, code=2)


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
            ("iv", {**IV, "k": 2.7}, "k"),
            ("iv", {**IV, "k": "2"}, "k"),
            ("iv", {**IV, "k": True}, "k"),
            ("iv", {**IV, "k": math.inf}, "k"),
        ],
    )
    def test_malformed_params_field_is_one_json_line(self, kind, params, field, tmp_path, capsys):
        path = tmp_path / "params.json"
        path.write_text(json.dumps(params))
        assert repr(field) in _error(["scenario", kind, "--params", str(path), "--sample", "200"], capsys)

    def test_integral_float_k_is_k(self, tmp_path, capsys):
        outs = []
        for k in (2, 2.0):
            path = tmp_path / "params.json"
            path.write_text(json.dumps({**self.IV, "k": k}))
            code, out, _ = _run(["scenario", "iv", "--params", str(path)], capsys)
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]

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

    def _sample_argv(self, tmp_path, *flags):
        path = tmp_path / "iv.json"
        path.write_text(json.dumps(self.IV))
        return ["scenario", "iv", "--params", str(path), "--sample", *flags]

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_out_of_range_sample_seed_is_one_json_line(self, seed, tmp_path, capsys):
        assert "seed" in _error(self._sample_argv(tmp_path, "100", "--seed", str(seed)), capsys)

    def test_largest_sample_seed_runs(self, tmp_path, capsys):
        code, out, err = _run(self._sample_argv(tmp_path, "100", "--seed", str(2**64 - 1)), capsys)
        assert code == 0 and err == ""
        assert json.loads(out)["k"] == 2

    def test_oversized_sample_is_one_json_line(self, tmp_path, capsys):
        message = _error(self._sample_argv(tmp_path, "100000000000"), capsys)
        assert "sample size" in message and "100000000000" in message

    def test_params_must_be_an_object(self, tmp_path, capsys):
        path = tmp_path / "params.json"
        path.write_text("[1, 2]")
        assert "JSON object" in _error(["scenario", "logit", "--params", str(path)], capsys)

    def test_missing_params_field(self, tmp_path, capsys):
        params = tmp_path / "iv.json"
        params.write_text(json.dumps({"k": 2}))
        assert "missing field" in _error(["scenario", "iv", "--params", str(params)], capsys)


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        code, _, err = _run(["frobnicate"], capsys)
        assert code == 1
        assert "usage:" in err

    def test_unknown_flag(self, capsys):
        code, _, err = _run(["pivot", "--does-not-exist"], capsys)
        assert code == 1
        assert "usage:" in err


def _child(argv, cwd=None):
    """Run ``python *argv`` in a child that imports the same package as this suite."""
    src = os.path.dirname(os.path.dirname(misspec.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, cwd=cwd,
                          env={**os.environ, "PYTHONPATH": path})


def test_console_entry_point_runs():
    proc = _child(["-m", "misspec.cli", "tails", "--radial", "normal",
                   "--a", "2", "--tau", "1", "--c", "1e-4"])
    assert proc.returncode == 0
    assert proc.stdout.startswith("a,tau,c,ratio")


def test_import_leaves_out_scipy_integrate():
    proc = _child(
        ["-c",
         "import os, sys, misspec; print('scipy.integrate' in sys.modules); "
         "from misspec import cli; "
         "cli.main(['tails', '--radial', 't:3', '--out', os.devnull]); "
         "cli.main(['tails', '--radial', 'normal', '--out', os.devnull]); "
         "print('scipy.integrate' in sys.modules)"],
    )
    assert proc.returncode == 0 and proc.stdout.split() == ["False", "False"]


def test_import_leaves_out_scipy_linalg():
    proc = _child(
        ["-c",
         "import os, sys, misspec; from misspec import cli; "
         "cli.main(['analyze', '--model', 'm2.json', '--out', os.devnull]); "
         "cli.main(['coverage', '--reps', '1000', '--out', os.devnull]); "
         "cli.main(['concentration', '--model', 'm1.json', '--c-grid', '1e-2', "
         "'--out', os.devnull]); "
         "print('scipy.linalg' in sys.modules)"],
        cwd=os.path.join(os.path.dirname(__file__), "golden"),
    )
    assert proc.returncode == 0 and proc.stdout.split() == ["False"]


_RUNS_WITHOUT_SCIPY_SPECIAL = [
    ["concentration", "--model", "m1.json", "--c-grid", "1e-2,1"],
    ["concentration", "--model", "m2.json", "--c-grid", "1e-2,1"],
    ["concentration", "--model", "m2.json", "--radial", "t:5", "--c-grid", "1e-2,1"],
    ["contaminate", "--model", "m1.json", "--phi", "0.01", "--c-grid", "1e-6,1e-2",
     "--contaminant-c", "4"],
    ["contaminate", "--model", "m2.json", "--radial", "t:3", "--contaminant", "t:5",
     "--phi", "0.01", "--c-grid", "1e-6,1e-2,1", "--contaminant-c", "4"],
    ["scenario", "iv", "--params", "iv.json"],
    ["scenario", "iv", "--params", "iv.json", "--sample", "100"],
    ["scenario", "logit", "--params", "logit.json"],
]
# Exact p = 1 t and power-law masses come from the t CDF, an incomplete beta.
_RUNS_WITH_SCIPY_SPECIAL = [
    ["concentration", "--model", "m1.json", "--radial", "t:5", "--c-grid", "1e-2,1"],
    ["concentration", "--model", "m1.json", "--radial", "powerlaw:2", "--c-grid", "1e-2,1"],
    ["analyze", "--model", "m1.json"],
]


def _scipy_special_loaded(argvs) -> list:
    """In one child: whether scipy.special is loaded after import, then (exit code, loaded) per run."""
    proc = _child(
        ["-c",
         "import os, sys; from misspec import cli; "
         "print(['scipy.special' in sys.modules] + "
         f"[(cli.main(a + ['--out', os.devnull]), 'scipy.special' in sys.modules) for a in {argvs!r}])"],
        cwd=os.path.join(os.path.dirname(__file__), "golden"),
    )
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout)


def test_grid_and_scenario_commands_leave_out_scipy_special():
    runs = _RUNS_WITHOUT_SCIPY_SPECIAL
    assert _scipy_special_loaded(runs) == [False] + [(0, False)] * len(runs)
    for argv in _RUNS_WITH_SCIPY_SPECIAL:
        assert _scipy_special_loaded([argv]) == [False, (0, True)], argv
