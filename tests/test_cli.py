"""CLI subcommands, file formats, and exit codes."""

import json
import math

import pytest

from grouptest import simlab
from grouptest.cli import main
from grouptest.model import design_from_json, design_to_json, gen_exact_constant, gen_near_constant

LN2 = math.log(2)


def _one_error_line(capsys, argv):
    """Run the CLI on argv; it must exit 1 with a single ``error:`` line."""
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.fixture
def hand_design(tmp_path):
    """The two-test worked design: t0={0,1}, t1={1,2}."""
    path = tmp_path / "hand.json"
    path.write_text(
        json.dumps(
            {
                "kind": "near_constant",
                "N": 3,
                "T": 2,
                "params": {"L": 2, "nu": None},
                "seed": 0,
                "columns": [[0], [0, 1], [1]],
            }
        )
    )
    return path


class TestDesignCommand:
    def test_round_trip(self, tmp_path):
        out = tmp_path / "d.json"
        rc = main(
            ["design", "--kind", "ccw", "--N", "5", "--T", "7", "--L", "2",
             "--seed", "9", "--out", str(out)]
        )
        assert rc == 0
        assert design_from_json(out.read_text()) == gen_exact_constant(5, 7, 2, 9)

    def test_nu_requires_k(self):
        assert main(["design", "--kind", "ncc", "--N", "5", "--T", "7", "--nu", "0.7"]) == 1
        assert main(["design", "--kind", "ncc", "--N", "5", "--T", "7", "--nu", "0.7", "--K", "0"]) == 1

    @pytest.mark.parametrize("kind", ["bernoulli", "ncc", "ccw"])
    def test_nu_path_is_the_lab_design(self, tmp_path, kind):
        # --nu must realize exactly the design the Monte Carlo lab runs
        out = tmp_path / "d.json"
        rc = main(
            ["design", "--kind", kind, "--N", "40", "--T", "30", "--nu", repr(LN2),
             "--K", "10", "--seed", "5", "--out", str(out)]
        )
        assert rc == 0
        want = simlab.build_design(simlab.DesignArm(kind, LN2), 40, 10, 30, 5)
        assert out.read_text() == design_to_json(want, indent=2) + "\n"

    def test_nu_with_k(self, tmp_path, capsys):
        out = tmp_path / "d.json"
        rc = main(
            ["design", "--kind", "bernoulli", "--N", "50", "--T", "30",
             "--nu", str(math.log(2)), "--K", "5", "--seed", "1", "--out", str(out)]
        )
        assert rc == 0
        obj = json.loads(out.read_text())
        assert abs(obj["params"]["p"] - math.log(2) / 5) < 1e-12
        assert abs(obj["params"]["nu"] - math.log(2)) < 1e-12

    @pytest.mark.parametrize("nu,k", [("inf", "2"), ("1e308", "1"), ("nan", "2")])
    def test_non_finite_nu(self, capsys, nu, k):
        # nu * T / K must be finite to round to a draw count
        _one_error_line(
            capsys, ["design", "--kind", "ncc", "--N", "5", "--T", "7", "--nu", nu, "--K", k]
        )

    def test_requires_exactly_one_parameterization(self):
        assert main(["design", "--kind", "ncc", "--N", "5", "--T", "7"]) == 1
        assert (
            main(["design", "--kind", "ncc", "--N", "5", "--T", "7", "--L", "2", "--p", "0.5"])
            == 1
        )

    def test_p_only_for_bernoulli(self):
        assert main(["design", "--kind", "ncc", "--N", "5", "--T", "7", "--p", "0.5"]) == 1

    def test_io_error_exit_code(self):
        rc = main(
            ["design", "--kind", "ncc", "--N", "3", "--T", "3", "--L", "1",
             "--out", "/nonexistent/dir/x.json"]
        )
        assert rc == 3


class TestDecodeCommand:
    def test_worked_example(self, hand_design, tmp_path):
        out = tmp_path / "r.json"
        rc = main(
            ["decode", "--design", str(hand_design), "--outcome", "10",
             "--alg", "comp", "--out", str(out)]
        )
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["status"] == "ok"
        assert payload["estimate"] == [0]
        assert payload["pd_set"] == [0]

    @pytest.mark.parametrize("alg,want", [("dd", [0]), ("scomp", [0]), ("sss", [0])])
    def test_other_algorithms(self, hand_design, tmp_path, alg, want):
        out = tmp_path / "r.json"
        rc = main(
            ["decode", "--design", str(hand_design), "--outcome", "10",
             "--alg", alg, "--out", str(out)]
        )
        assert rc == 0
        assert json.loads(out.read_text())["estimate"] == want

    # gen_near_constant(16, 8, 2, seed=46) with defectives {5, 9, 12}: the
    # four decoders give four different estimates, and SSS needs 5 nodes
    PD_46 = [0, 1, 2, 3, 4, 5, 6, 9, 10, 11, 12]
    PAYLOADS_46 = {
        "comp": {"algorithm": "comp", "status": "ok", "estimate": PD_46, "pd_set": PD_46,
                 "pd_count": 11, "definite_defectives": []},
        "dd": {"algorithm": "dd", "status": "ok", "estimate": [9], "pd_set": PD_46,
               "pd_count": 11, "definite_defectives": [9]},
        "scomp": {"algorithm": "scomp", "status": "ok", "estimate": [1, 2, 9], "pd_set": PD_46,
                  "pd_count": 11, "definite_defectives": [9]},
        "sss": {"algorithm": "sss", "status": "ok", "estimate": [0, 9, 12], "pd_set": PD_46,
                "pd_count": 11, "definite_defectives": [], "search_nodes": 5},
        "sss-budget-1": {"algorithm": "sss", "status": "unresolved", "best_incumbent": [1, 2, 9],
                         "search_nodes": 2},
    }

    @pytest.mark.parametrize("case", list(PAYLOADS_46))
    def test_payload_pins(self, tmp_path, case):
        path = tmp_path / "d.json"
        path.write_text(design_to_json(gen_near_constant(16, 8, 2, 46)))
        out = tmp_path / "r.json"
        alg, _, budget = case.partition("-budget-")
        extra = ["--node-budget", budget] if budget else []
        rc = main(["decode", "--design", str(path), "--outcome", "11011001", "--alg", alg,
                   "--out", str(out), *extra])
        assert rc == 0
        assert out.read_text() == json.dumps(self.PAYLOADS_46[case], indent=2) + "\n"

    @pytest.mark.parametrize("budget", ["0", "-3"])
    def test_node_budget_below_one(self, hand_design, capsys, budget):
        _one_error_line(
            capsys,
            ["decode", "--design", str(hand_design), "--outcome", "10", "--alg", "sss",
             "--node-budget", budget],
        )

    def test_bad_outcome_length(self, hand_design):
        rc = main(["decode", "--design", str(hand_design), "--outcome", "101", "--alg", "comp"])
        assert rc == 1

    def test_malformed_json_reports_position(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"kind": "ncc",\n  broken}')
        rc = main(["decode", "--design", str(bad), "--outcome", "1", "--alg", "comp"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "line 2" in err and "column" in err

    def test_missing_design_file(self, tmp_path):
        rc = main(["decode", "--design", str(tmp_path / "none.json"), "--outcome", "1", "--alg", "comp"])
        assert rc == 3

    @pytest.mark.parametrize("alg", ["comp", "dd", "scomp", "sss"])
    def test_positive_test_without_pd_member(self, tmp_path, capsys, alg):
        # items 0 and 1 sit in the negative test 0, so the positive test 1
        # has no possible defective: no decoder may report "ok"
        path = tmp_path / "d.json"
        path.write_text(json.dumps(_design_obj(columns=[[0, 1], [0, 1], [0]])))
        rc = main(["decode", "--design", str(path), "--outcome", "01", "--alg", alg])
        assert rc == 1
        assert "malformed outcome" in capsys.readouterr().err


def _design_obj(**overrides):
    obj = {
        "kind": "near_constant",
        "N": 3,
        "T": 2,
        "params": {"L": 2, "nu": None},
        "seed": 0,
        "columns": [[0], [0, 1], [1]],
    }
    obj.update(overrides)
    return obj


class TestDesignFileBoundary:
    """Each malformed design file exits 1 with one error line, no traceback."""

    def _decode(self, tmp_path, capsys, obj, outcome="10"):
        path = tmp_path / "d.json"
        path.write_text(json.dumps(obj))
        rc = main(["decode", "--design", str(path), "--outcome", outcome, "--alg", "comp"])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: bad design file:") and "Traceback" not in err

    def test_params_not_an_object(self, tmp_path, capsys):
        self._decode(tmp_path, capsys, _design_obj(params=[]))

    @pytest.mark.parametrize("params", [{"L": "2"}, {"L": 2.5}, {"nu": "ln 2"}, {"p": True}])
    def test_params_field_of_wrong_type(self, tmp_path, capsys, params):
        self._decode(tmp_path, capsys, _design_obj(params=params))

    def test_size_as_string(self, tmp_path, capsys):
        self._decode(tmp_path, capsys, _design_obj(N="3"))

    def test_fractional_column_entry(self, tmp_path, capsys):
        # int() would truncate 0.5 to test 0 and decode it
        self._decode(tmp_path, capsys, _design_obj(columns=[[0.5], [0, 1], [1]]))

    def test_boolean_column_entry(self, tmp_path, capsys):
        self._decode(tmp_path, capsys, _design_obj(columns=[[True], [0, 1], [1]]))

    @pytest.mark.parametrize(
        "overrides,outcome",
        [
            # each would pass as the integer it equals if types were coerced
            ({"N": True, "columns": [[0]]}, "10"),
            ({"N": 3.0}, "10"),
            ({"T": True, "columns": [[0], [0], [0]]}, "1"),
            ({"T": 2.0}, "10"),
            ({"seed": True}, "10"),
            ({"seed": 0.0}, "10"),
        ],
    )
    def test_boolean_or_float_header(self, tmp_path, capsys, overrides, outcome):
        self._decode(tmp_path, capsys, _design_obj(**overrides), outcome)


class TestSimulateCommand:
    def _config(self, tmp_path, **overrides):
        obj = {
            "n_items": 20,
            "k": 2,
            "t_grid": [5, 10],
            "designs": [{"kind": "ncc", "nu": 0.6931471805599453}],
            "decoders": ["comp", "dd"],
            "trials": 25,
            "master_seed": 4,
        }
        obj.update(overrides)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(obj))
        return path

    def test_writes_csv(self, tmp_path):
        cfg = self._config(tmp_path)
        out = tmp_path / "out.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("design,decoder,nu,N,K,T")
        assert len(lines) == 1 + 2 * 2

    def test_zero_trials_invalid(self, tmp_path):
        cfg = self._config(tmp_path, trials=0)
        assert main(["simulate", "--config", str(cfg)]) == 1

    def test_override_wins(self, tmp_path):
        cfg = self._config(tmp_path, trials=0)
        out = tmp_path / "out.csv"
        rc = main(["simulate", "--config", str(cfg), "--set", "trials=5", "--out", str(out)])
        assert rc == 0
        assert ",5," in out.read_text().splitlines()[1]

    def test_unknown_override_key_invalid(self, tmp_path):
        cfg = self._config(tmp_path)
        assert main(["simulate", "--config", str(cfg), "--set", "typo=5"]) == 1

    def test_non_finite_nu(self, tmp_path, capsys):
        cfg = self._config(tmp_path)
        _one_error_line(capsys, ["simulate", "--config", str(cfg), "--set", 'designs=[["ncc", 1e999]]'])

    @pytest.mark.parametrize(
        "override",
        [
            # each ran as the integer or number it equals while fields were coerced
            "n_items=30.7",
            "k=2.0",
            "trials=true",
            "master_seed=1.5",
            "sss_node_budget=true",
            "t_grid=[5.0, 10]",
            'designs=[["ncc", true]]',
        ],
    )
    def test_field_types_are_checked(self, tmp_path, capsys, override):
        cfg = self._config(tmp_path)
        _one_error_line(capsys, ["simulate", "--config", str(cfg), "--set", override])

    def test_unsatisfiable_grid_invalid(self, tmp_path):
        cfg = self._config(tmp_path, t_grid=[10, 5])
        assert main(["simulate", "--config", str(cfg)]) == 1


class TestRatesCommand:
    def test_default_grid_contains_worked_row(self, tmp_path):
        out = tmp_path / "rates.csv"
        assert main(["rates", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "theta,curve,rate"
        assert "0.50,ncc_dd,0.693147" in lines
        # 99 thetas x 7 curves
        assert len(lines) == 1 + 99 * 7

    def test_custom_grid(self, tmp_path):
        out = tmp_path / "rates.csv"
        assert main(["rates", "--theta-min", "0.4", "--theta-max", "0.6", "--step", "0.1",
                     "--out", str(out)]) == 0
        body = out.read_text()
        assert "0.40," in body and "0.50," in body and "0.60," in body

    def test_rejects_bad_grid(self):
        assert main(["rates", "--theta-min", "0.0"]) == 1
        assert main(["rates", "--step", "-1"]) == 1


class TestVerifyCommand:
    def test_quick_suite_passes(self, capsys):
        assert main(["verify", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "checks passed" in out
        assert "FAIL" not in out


def test_unknown_subcommand_is_config_error():
    assert main(["frobnicate"]) == 1


def test_missing_subcommand_is_config_error():
    assert main([]) == 1
