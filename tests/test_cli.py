import json
import math
from pathlib import Path

import pytest

from debranges import cli
from debranges.cli import (
    EXIT_ASSERTION,
    EXIT_INPUT,
    EXIT_NONCONVERGENCE,
    EXIT_OK,
    run,
    validate_report,
)
import debranges.extremal as X
from debranges.extremal import ComplexZeroError
from debranges.hb_core import SpecError

S_PI_JSON = {"exp_rate": math.pi, "zeros": [], "rotation": 0.0, "scale": 1.0}
CUBIC_JSON = {
    "exp_rate": 0.0,
    "zeros": [[0.0, -1.0], [0.0, -1.0], [0.0, -1.0]],
    "rotation": 0.0,
    "scale": 1.0,
}


@pytest.fixture
def spec_file(tmp_path):
    def write(payload, name="spec.json"):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    return write


def read_report(path):
    with open(path) as fh:
        return json.load(fh)


class TestBoundsCommand:
    def test_paley_wiener_report(self, spec_file, tmp_path):
        out = tmp_path / "report.json"
        code = run(["bounds", "--p", "2", "--spec", spec_file(S_PI_JSON), "--out", str(out)])
        assert code == EXIT_OK
        rep = read_report(out)
        validate_report(rep)
        assert abs(rep["values"]["K_p"] - math.sqrt(math.pi / 2)) <= 1e-12
        assert abs(rep["values"]["C_bound"] - math.sqrt(2)) <= 1e-12
        assert abs(rep["values"]["C2_exact"] - 1.0) <= 1e-12

    def test_csv_sweep(self, spec_file, tmp_path):
        out = tmp_path / "r.json"
        csvp = tmp_path / "sweep.csv"
        code = run(
            ["bounds", "--p", "1", "--spec", spec_file(S_PI_JSON), "--out", str(out),
             "--csv", str(csvp)]
        )
        assert code == EXIT_OK
        lines = csvp.read_text().strip().splitlines()
        assert lines[0] == "p,K_p,bound,nonasymptotic_pth_power,ratio"
        assert len(lines) == 101

    def test_float_round_trip(self, spec_file, tmp_path):
        out = tmp_path / "r.json"
        run(["bounds", "--p", "2", "--spec", spec_file(S_PI_JSON), "--out", str(out)])
        rep = read_report(out)
        # shortest-repr floats reparse to the identical double
        assert rep["values"]["K_p"] == math.sqrt(math.pi / 2)

    def test_missing_p(self, spec_file):
        assert run(["bounds", "--spec", spec_file(S_PI_JSON)]) == EXIT_INPUT


class TestPhaseCommand:
    def test_report_and_csv(self, spec_file, tmp_path):
        out = tmp_path / "r.json"
        csvp = tmp_path / "phi.csv"
        code = run(
            ["phase", "--spec", spec_file(CUBIC_JSON), "--out", str(out), "--csv", str(csvp)]
        )
        assert code == EXIT_OK
        rep = read_report(out)
        validate_report(rep)
        assert abs(rep["values"]["phase_sup"] - 6.0) <= 1e-9
        rows = csvp.read_text().strip().splitlines()
        assert rows[0] == "x,phi,phi_prime"
        assert len(rows) == 513

    def test_at_infinity_marker(self, spec_file, tmp_path):
        out = tmp_path / "r.json"
        run(["phase", "--spec", spec_file(S_PI_JSON), "--out", str(out)])
        rep = read_report(out)
        assert rep["values"]["phase_sup_location"] == "at infinity"


class TestVerifyCommand:
    def test_default_rotation_passes(self, spec_file, tmp_path):
        out = tmp_path / "r.json"
        code = run(
            ["verify-hormander", "--spec", spec_file(CUBIC_JSON), "--alpha", "1.5707963267948966",
             "--out", str(out)]
        )
        assert code == EXIT_OK
        rep = read_report(out)
        validate_report(rep)
        assert rep["passed"] is True
        assert abs(rep["values"]["bracket"][0] + math.sqrt(3)) <= 1e-8

    def test_structured_f_from_file(self, spec_file, tmp_path):
        f_json = {"kind": "polynomial", "coefficients": [1.0]}
        out = tmp_path / "r.json"
        code = run(
            ["verify-hormander", "--spec", spec_file(CUBIC_JSON),
             "--f", spec_file(f_json, "f.json"), "--out", str(out)]
        )
        assert code == EXIT_OK

    def test_margin_csv(self, spec_file, tmp_path):
        csvp = tmp_path / "m.csv"
        out = tmp_path / "r.json"
        run(
            ["verify-hormander", "--spec", spec_file(CUBIC_JSON), "--alpha",
             "1.5707963267948966", "--out", str(out), "--csv", str(csvp)]
        )
        lines = csvp.read_text().strip().splitlines()
        assert lines[0] == "x,margin"
        assert len(lines) == 2049

    def test_wrong_sign_is_math_failure(self, spec_file, tmp_path):
        half_pi_spec = {"exp_rate": math.pi / 2, "zeros": [], "rotation": 0.0, "scale": 1.0}
        neg_kernel = {
            "kind": "combination",
            "terms": [[-1.0, {"kind": "kernel", "spec": half_pi_spec, "t": 0.0}]],
        }
        code = run(
            ["verify-hormander", "--spec", spec_file(S_PI_JSON),
             "--f", spec_file(neg_kernel, "neg.json"), "--window=-3,3"]
        )
        assert code == EXIT_ASSERTION

    def test_readme_member_mixture(self, tmp_path):
        # deg f = deg E: the interior maximum 0.7465 beats the limit 0.5526
        specs = Path(__file__).resolve().parent.parent / "demos" / "specs"
        out = tmp_path / "r.json"
        code = run(
            ["verify-hormander", "--spec", str(specs / "cubic.json"),
             "--f", str(specs / "member_mixture.json"), "--out", str(out)]
        )
        assert code == EXIT_OK
        rep = read_report(out)
        assert rep["passed"] is True
        assert abs(rep["values"]["norm"] - 0.7465) <= 1e-4

    def test_uncertified_member_rejected(self, spec_file):
        # degree 3 exceeds the H^inf cap N-1 = 2 on a cubic spec
        poly = {"kind": "polynomial", "coefficients": [1.0, 0.0, 0.0, 3.0]}
        code = run(
            ["verify-hormander", "--spec", spec_file(CUBIC_JSON),
             "--f", spec_file(poly, "f.json")]
        )
        assert code == EXIT_INPUT


class TestExtremalCommands:
    def test_extremal_report(self, spec_file, tmp_path):
        out = tmp_path / "r.json"
        code = run(
            ["extremal", "--spec", spec_file(CUBIC_JSON), "--p", "2", "--xi", "0.0",
             "--out", str(out)]
        )
        assert code == EXIT_OK
        rep = read_report(out)
        validate_report(rep)
        assert rep["values"]["C_value"] > 0

    def test_separation_report(self, spec_file, tmp_path):
        quartic = dict(CUBIC_JSON)
        quartic["zeros"] = [[0.0, -1.0]] * 4
        out = tmp_path / "r.json"
        code = run(
            ["separation", "--spec", spec_file(quartic), "--p", "2", "--xi", "0.0",
             "--out", str(out)]
        )
        assert code == EXIT_OK
        rep = read_report(out)
        validate_report(rep)
        assert rep["values"]["min_gap"] > rep["values"]["delta"]

    def test_determinism_given_seed(self, spec_file, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            run(
                ["extremal", "--spec", spec_file(CUBIC_JSON), "--p", "1.5", "--xi", "0.2",
                 "--seed", "7", "--out", str(out)]
            )
            rep = read_report(out)
            rep.pop("wall_time_s")
            rep["inputs"].pop("out")
            outs.append(rep)
        assert outs[0] == outs[1]


    def test_p_below_one_is_input_error(self, capsys):
        spec = Path(__file__).resolve().parent.parent / "demos" / "specs" / "random_deg6.json"
        code = run(["extremal", "--spec", str(spec), "--p", "0.5", "--xi", "0.2"])
        assert code == EXIT_INPUT
        assert "input error: p must be finite and >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "method,replacement",
        [
            ("kkt_residual", lambda self, u: 1e-3),
            ("kkt_residual", lambda self, u: math.nan),
            ("continuation", lambda self, u, tol: u * math.nan),
        ],
        ids=["kkt_above_tolerance", "kkt_nan", "nonfinite_point"],
    )
    def test_failed_solver_gate_is_nonconvergence(
        self, method, replacement, spec_file, monkeypatch, capsys
    ):
        # a quartic: a non-finite point on its degree-2 basis would make the
        # split finder's eigensolver raise LinAlgError, an input error
        quartic = dict(CUBIC_JSON, zeros=[[0.0, -1.0]] * 4)
        monkeypatch.setattr(X._SliceSolver, method, replacement)
        code = run(["extremal", "--spec", spec_file(quartic), "--p", "1.5", "--xi", "0.2"])
        assert code == EXIT_NONCONVERGENCE
        assert "numerical non-convergence" in capsys.readouterr().err


class TestSchemaAndErrors:
    def test_bad_json_is_input_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert run(["phase", "--spec", str(path)]) == EXIT_INPUT

    def test_invalid_spec_is_input_error(self, spec_file):
        bad = {"exp_rate": 0.0, "zeros": [[0.0, 1.0]], "rotation": 0.0, "scale": 1.0}
        assert run(["phase", "--spec", spec_file(bad)]) == EXIT_INPUT

    def test_missing_file(self):
        assert run(["phase", "--spec", "/nonexistent/spec.json"]) == EXIT_INPUT

    def test_zero_inputs_are_echoed(self, spec_file, tmp_path):
        # falsy values are still inputs; unset flags are not
        out = tmp_path / "r.json"
        assert run(["extremal", "--spec", spec_file(CUBIC_JSON), "--p", "2", "--xi", "0",
                    "--seed", "0", "--out", str(out)]) == EXIT_OK
        inputs = read_report(out)["inputs"]
        assert inputs["seed"] == 0 and inputs["xi"] == 0.0
        assert "window" not in inputs
        assert run(["verify-hormander", "--spec", spec_file(S_PI_JSON), "--alpha", "0",
                    "--out", str(out)]) == EXIT_OK
        inputs = read_report(out)["inputs"]
        assert inputs["alpha"] == 0.0
        assert "sign_free" not in inputs and "window" not in inputs

    @pytest.mark.parametrize(
        "argv",
        [
            ["extremal", "--p", "2", "--xi", "0", "--tol", "1e-3"],
            ["bounds", "--p", "2", "--seed", "0"],
            ["phase", "--alpha", "0"],
        ],
    )
    def test_unread_flag_is_input_error(self, argv, capsys):
        # a flag the command would ignore is refused, not dropped silently
        assert run(argv) == EXIT_INPUT
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["extremal", "--p", "two"], "invalid float value"),
            (["bounds", "--p"], "expected one argument"),
            (["no-such-command"], "invalid choice"),
            ([], "required"),
        ],
    )
    def test_usage_error_returns_input_code(self, argv, message, capsys):
        # an in-process caller gets the exit code, not argparse's SystemExit
        assert run(argv) == EXIT_INPUT
        assert message in capsys.readouterr().err

    def test_help_still_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["extremal", "--help"])
        assert exc.value.code == EXIT_OK
        assert "--xi" in capsys.readouterr().out

    def test_one_parser_per_process(self, spec_file, tmp_path, capsys):
        # run reuses one parser: a usage error or --help leaves it as it
        # was, and each report echoes only its own command's flags
        cli._build_parser.cache_clear()
        out = tmp_path / "r.json"
        spec = spec_file(CUBIC_JSON)
        assert run(["phase", "--spec", spec, "--window", "0,2", "--out", str(out)]) == EXIT_OK
        assert read_report(out)["inputs"] == {"spec": spec, "window": "0,2", "out": str(out)}
        assert run(["bounds", "--p"]) == EXIT_INPUT
        with pytest.raises(SystemExit) as exc:
            run(["bounds", "--help"])
        assert exc.value.code == EXIT_OK
        assert run(["bounds", "--p", "2", "--out", str(out)]) == EXIT_OK
        assert read_report(out)["inputs"] == {"p": 2.0, "out": str(out)}
        assert cli._build_parser.cache_info().misses == 1
        assert "expected one argument" in capsys.readouterr().err

    def test_env_tolerance_override(self, spec_file, tmp_path, monkeypatch):
        monkeypatch.setenv("DEBRANGES_TOL", "1e-7")
        out = tmp_path / "r.json"
        code = run(
            ["verify-hormander", "--spec", spec_file(CUBIC_JSON), "--alpha",
             "1.5707963267948966", "--out", str(out)]
        )
        assert code == EXIT_OK
        assert read_report(out)["tolerances"]["margin"] == 1e-7

    @pytest.mark.parametrize(
        "exc,code",
        [
            (ArithmeticError("interval-energy inequality failed"), EXIT_ASSERTION),
            (ValueError("bad window"), EXIT_INPUT),
            (ComplexZeroError("complex zeros"), EXIT_NONCONVERGENCE),
        ],
    )
    def test_exit_code_by_error_type(self, exc, code, monkeypatch, capsys):
        # a bare ArithmeticError is a failed invariant check: exit 1, named
        def raising(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli.B, "make_bound_report", raising)
        assert run(["bounds", "--p", "2"]) == code
        assert str(exc) in capsys.readouterr().err

    def test_validate_report_rejects_malformed(self):
        with pytest.raises(SpecError):
            validate_report({"command": "bounds"})
        with pytest.raises(SpecError):
            validate_report(
                {"command": "nope", "inputs": {}, "values": {}, "tolerances": {},
                 "passed": True, "wall_time_s": 0.0}
            )
