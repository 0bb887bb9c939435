"""CLI subcommands, file formats, and exit codes."""

import hashlib
import json
import math
import time
import tracemalloc

import pytest

from grouptest import simlab, verify
from grouptest.cli import main
from grouptest.model import (
    DesignParams,
    design_from_json,
    design_to_json,
    design_to_json_dict,
    gen_bernoulli,
    gen_exact_constant,
    gen_near_constant,
    generate_design,
)

LN2 = math.log(2)


def _one_error_line(capsys, argv):
    """Run the CLI on argv; it must exit 1 with a single ``error:`` line,
    which is returned."""
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


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

    @pytest.mark.parametrize("param", [["--L", "2"], ["--p", "0.5"]])
    def test_k_requires_nu(self, capsys, param):
        # K derives p or L from nu and is read nowhere else
        err = _one_error_line(capsys, ["design", "--kind", "ncc", "--N", "5", "--T", "6", *param, "--K", "3"])
        assert "--K" in err

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
        assert out.read_text() == json.dumps(design_to_json_dict(want), indent=2) + "\n"

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

    def test_p_only_for_bernoulli(self, capsys):
        _one_error_line(capsys, ["design", "--kind", "ncc", "--N", "5", "--T", "7", "--p", "0.1"])

    def test_l_only_for_weight_designs(self, capsys):
        _one_error_line(
            capsys, ["design", "--kind", "bernoulli", "--N", "5", "--T", "7", "--L", "3"]
        )

    def test_draws_far_above_t_stay_small(self, tmp_path):
        """nu = 10^6 gives L = 10^7 draws over 10 tests: every column holds
        all ten, and the traced peak stays far below one 10^7-draw uint64
        array (80 MB)."""
        out = tmp_path / "d.json"
        tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            rc = main(
                ["design", "--kind", "ncc", "--N", "4", "--T", "10", "--nu", "1e6",
                 "--K", "1", "--out", str(out)]
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 0
        assert peak < 16 << 20, peak
        obj = json.loads(out.read_text())
        assert obj["params"]["L"] == 10**7
        assert obj["columns"] == [list(range(10))] * 4

    @pytest.mark.parametrize("kind,n_tests", [("ncc", 2**63 + 1), ("ccw", 2**64), ("ncc", 2**64)])
    def test_t_beyond_the_bounded_draws(self, capsys, kind, n_tests):
        # a test index is a bounded draw, which takes bounds up to 2**63
        err = _one_error_line(
            capsys, ["design", "--kind", kind, "--N", "2", "--T", str(n_tests), "--L", "2"]
        )
        kind_name = simlab.DESIGN_ALIASES[kind]
        assert f"T must be at most 2**63 on a {kind_name} design, got {n_tests}" in err

    @pytest.mark.parametrize(
        "kind,param",
        # L = round(0.69 * 2**62) draws per item would never finish, and
        # Bernoulli's N * T cells would not fit in memory
        [("ncc", f"L={round(0.69 * 2**62)}"), ("ccw", f"L={round(0.69 * 2**62)}"),
         ("bernoulli", "p=0.69")],
    )
    def test_refuses_a_design_past_the_entry_cap(self, capsys, kind, param):
        n_tests = 2**62
        start = time.perf_counter()
        err = _one_error_line(
            capsys,
            ["design", "--kind", kind, "--N", "2", "--T", str(n_tests), "--nu", "0.69", "--K", "1"],
        )
        assert time.perf_counter() - start < 1
        assert f"N=2, {param}, T={n_tests}" in err

    def test_io_error_exit_code(self):
        rc = main(
            ["design", "--kind", "ncc", "--N", "3", "--T", "3", "--L", "1",
             "--out", "/nonexistent/dir/x.json"]
        )
        assert rc == 3


def _indented(design) -> bytes:
    """The bytes `design` must write: json's indent=2 text of the design's dict."""
    return (json.dumps(design_to_json_dict(design), indent=2) + "\n").encode()


def _written(tmp_path, argv) -> bytes:
    out = tmp_path / "d.json"
    assert main(["design", *argv, "--out", str(out)]) == 0
    return out.read_bytes()


class TestDesignOutputBytes:
    """`design` writes exactly json.dumps(design_to_json_dict(d), indent=2) + "\\n"."""

    # 3500 rows span more than three of the design encoder's 1024-row blocks
    @pytest.mark.parametrize(
        "kind,flag,param",
        [("bernoulli", "--p=0.05", DesignParams(p=0.05)), ("ncc", "--L=3", DesignParams(draws=3)),
         ("ccw", "--L=3", DesignParams(draws=3))],
    )
    def test_many_rows(self, tmp_path, kind, flag, param):
        got = _written(tmp_path, ["--kind", kind, "--N", "3500", "--T", "40", flag, "--seed", "3"])
        want = generate_design(simlab.DESIGN_ALIASES[kind], 3500, 40, 3, param)
        assert got == _indented(want)

    def test_empty_first_middle_and_last_rows(self, tmp_path):
        want = gen_bernoulli(12, 8, 0.15, 7)
        lengths = [len(row) for row in want.rows()]
        assert lengths[0] == lengths[-1] == 0 and 0 in lengths[1:-1] and max(lengths) >= 3
        got = _written(tmp_path, ["--kind", "bernoulli", "--N", "12", "--T", "8", "--p", "0.15", "--seed", "7"])
        assert got == _indented(want)

    def test_every_row_empty(self, tmp_path):
        want = gen_bernoulli(4, 3, 1e-6, 0)
        assert want.rows() == [[]] * 4
        got = _written(tmp_path, ["--kind", "bernoulli", "--N", "4", "--T", "3", "--p", "1e-6", "--seed", "0"])
        assert got == _indented(want)

    @pytest.mark.parametrize("kind", ["bernoulli", "ncc", "ccw"])
    def test_one_item(self, tmp_path, kind):
        got = _written(tmp_path, ["--kind", kind, "--N", "1", "--T", "9", "--nu", repr(LN2), "--K", "1"])
        want = simlab.build_design(simlab.DesignArm(kind, LN2), 1, 1, 9, 0)
        assert got == _indented(want)

    def test_stdout_matches_the_file(self, tmp_path, capsys):
        argv = ["--kind", "ncc", "--N", "2000", "--T", "50", "--L", "4", "--seed", "11"]
        written = _written(tmp_path, argv)
        capsys.readouterr()
        assert main(["design", *argv, "--out", "-"]) == 0
        assert capsys.readouterr().out.encode() == written

    def test_cli_roundtrip_file_digest_and_memory(self, tmp_path):
        """The N=10^4, T=384 file the cli-roundtrip benchmark writes first: its
        bytes are pinned, and writing it keeps the traced peak below 6 MB (the
        whole indented text held at once took 17 MB)."""
        out = tmp_path / "d.json"
        argv = ["design", "--kind", "ncc", "--N", "10000", "--T", "384", "--K", "16",
                "--nu", repr(LN2), "--seed", str((1 << 24) - 1), "--out", str(out)]
        tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            rc = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 0
        assert peak < 6 << 20, peak
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "09fba4c4e3308f33b167665ea34c291f55289ca96ddd63a7bd0fdba1efc49015"
        )


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


# a file that is not UTF-8, and JSON nested past the decoder's recursion limit
UNREADABLE_FILES = {
    "not_utf8": b'{"kind": "\xff\xfe"}',
    "deeply_nested": b"[" * 10**5 + b"]" * 10**5,
}


@pytest.mark.parametrize("name", sorted(UNREADABLE_FILES))
@pytest.mark.parametrize("command", ["decode", "simulate"])
def test_unreadable_input_file_is_one_error_line(tmp_path, capsys, command, name):
    path = tmp_path / "input.json"
    path.write_bytes(UNREADABLE_FILES[name])
    if command == "decode":
        argv = ["decode", "--design", str(path), "--outcome", "1", "--alg", "comp"]
    else:
        argv = ["simulate", "--config", str(path)]
    err = _one_error_line(capsys, argv)
    assert repr(str(path)) in err

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
        assert err.startswith("error: bad design file:") and err.count("\n") == 1, err
        return err

    def test_params_not_an_object(self, tmp_path, capsys):
        self._decode(tmp_path, capsys, _design_obj(params=[]))

    @pytest.mark.parametrize("params", [{"L": "2"}, {"L": 2.5}, {"nu": "ln 2"}, {"p": True}])
    def test_params_field_of_wrong_type(self, tmp_path, capsys, params):
        self._decode(tmp_path, capsys, _design_obj(params=params))

    @pytest.mark.parametrize(
        "kind,params",
        [
            ("near_constant", {"p": 0.3, "L": None}),
            ("exact_constant", {"p": 0.3, "L": 2}),
            ("bernoulli", {"p": 0.3, "L": 2}),
        ],
    )
    def test_other_kind_parameter(self, tmp_path, capsys, kind, params):
        err = self._decode(tmp_path, capsys, _design_obj(kind=kind, params=params))
        assert f"{kind} designs take" in err

    @pytest.mark.parametrize(
        "kind,params",
        [
            ("near_constant", {"L": 0}),
            ("near_constant", {"L": -3}),
            ("exact_constant", {"L": 3}),  # above T = 2
            ("bernoulli", {"p": 5.0}),
            ("bernoulli", {"p": math.nan}),
            ("near_constant", {"L": 2, "nu": math.nan}),
        ],
    )
    def test_parameter_value_out_of_range(self, tmp_path, capsys, kind, params):
        self._decode(tmp_path, capsys, _design_obj(kind=kind, params=params))

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

    @pytest.mark.parametrize(
        "override,named",
        [
            # an arm object holds exactly kind and nu, and a pair two entries
            ('designs=[{"kind": "bernoulli", "nu": 0.69, "p": 0.05}]', "design arm"),
            ('designs=[{"kind": "ncc"}]', "design arm"),
            ('designs=[["ncc"]]', "design arm"),
            ('designs=[{"kind": ["ncc"], "nu": 0.69}]', "design kind"),
            # a list field given as a string, a number or an object
            ('decoders="comp"', "decoders must be a list"),
            ('decoders={"comp": 1}', "decoders must be a list"),
            ("designs=5", "designs must be a list"),
            ('designs={"kind": "ncc", "nu": 0.69}', "designs must be a list"),
            ("t_grid=5", "t_grid must be a list"),
            ('t_grid="5"', "t_grid must be a list"),
        ],
    )
    def test_field_shapes_are_checked(self, tmp_path, capsys, override, named):
        cfg = self._config(tmp_path)
        err = _one_error_line(capsys, ["simulate", "--config", str(cfg), "--set", override])
        assert named in err

    def test_arm_pairs_and_objects_both_run(self, tmp_path):
        cfg = self._config(tmp_path)
        arms = 'designs=[["ncc", 0.69], {"nu": 0.69, "kind": "ccw"}]'
        assert main(["simulate", "--config", str(cfg), "--set", arms, "--out", str(tmp_path / "o.csv")]) == 0

    def test_trials_beyond_int64(self, tmp_path, capsys):
        cfg = self._config(tmp_path)
        err = _one_error_line(capsys, ["simulate", "--config", str(cfg), "--set", f"trials={10**21}"])
        assert "trials" in err

    def test_t_beyond_the_entry_cap(self, tmp_path, capsys):
        # L = 1 keeps the design within the cap; its outcome of T entries is not
        cfg = self._config(tmp_path, t_grid=[2**63], designs=[{"kind": "ncc", "nu": 1e-30}])
        err = _one_error_line(capsys, ["simulate", "--config", str(cfg)])
        assert f"t_grid entries must be at most 2**31, got {2**63}" in err

    def test_t_beyond_the_bounded_draws(self, tmp_path, capsys):
        cfg = self._config(tmp_path, t_grid=[2**64])
        err = _one_error_line(capsys, ["simulate", "--config", str(cfg)])
        assert f"T must be at most 2**63 on a near_constant design, got {2**64}" in err

    @pytest.mark.parametrize(
        "kind,param",
        [("ncc", f"L={round(0.69 * 2**62)}"), ("ccw", f"L={round(0.69 * 2**62)}"),
         ("bernoulli", "p=0.69")],
    )
    @pytest.mark.parametrize("t_grid,trials", [([2**62], 25), ([50, 2**62], 10**6)])
    def test_refuses_a_design_past_the_entry_cap(
        self, tmp_path, capsys, kind, param, t_grid, trials
    ):
        # refused before the first trial, not after every trial at T=50
        cfg = self._config(
            tmp_path, t_grid=t_grid, designs=[{"kind": kind, "nu": 0.69}], k=1, trials=trials
        )
        start = time.perf_counter()
        err = _one_error_line(capsys, ["simulate", "--config", str(cfg)])
        assert time.perf_counter() - start < 1
        assert f"N=20, {param}, T={2**62}" in err

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

    def test_rejects_bad_grid(self, capsys):
        # nan and 1e-300 once looped forever; inf raised from theoretical_rate
        for step in ("nan", "inf", "1e-300"):
            _one_error_line(capsys, ["rates", "--step", step])
        assert main(["rates", "--theta-min", "0.0"]) == 1
        assert main(["rates", "--step", "-1"]) == 1

    def test_step_below_resolution_on_a_point_grid(self, tmp_path):
        # 0.5 + i * 1e-300 stays 0.5; the grid is the one point
        out = tmp_path / "rates.csv"
        argv = ["rates", "--step", "1e-300", "--theta-min", "0.5", "--theta-max", "0.5"]
        assert main(argv + ["--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 1 + 7
        assert all(line.startswith("0.50,") for line in lines[1:])

    def test_fine_grid_gets_distinct_labels(self, tmp_path):
        # six decimals once labelled all three points 0.10
        out = tmp_path / "rates.csv"
        argv = ["rates", "--theta-min", "0.1", "--theta-max", "0.1000002", "--step", "1e-7"]
        assert main(argv + ["--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 1 + 3 * 7
        labels = [line.split(",")[0] for line in lines[1::7]]
        assert labels == ["0.10", "0.1000001", "0.1000002"]

    def test_step_below_float_spacing_prints_each_theta_once(self, tmp_path):
        # 10,004 grid points fall on 902 doubles; each was once printed 6-11 times
        out = tmp_path / "rates.csv"
        argv = ["rates", "--theta-min", "0.5", "--theta-max", "0.5000000000001", "--step", "1e-17"]
        assert main(argv + ["--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 1 + 902 * 7
        assert len({line.split(",")[0] for line in lines[1:]}) == 902

    def test_label_near_one_stays_below_one(self, tmp_path):
        # six decimals once printed 1.00, a theta the command rejects
        out = tmp_path / "rates.csv"
        argv = ["rates", "--theta-min", "0.999999999999", "--theta-max", "0.999999999999"]
        assert main(argv + ["--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 1 + 7
        assert all(line.startswith("0.999999999999,") for line in lines[1:])


class TestVerifyCommand:
    def test_quick_suite_passes(self, capsys):
        assert main(["verify", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "checks passed" in out
        assert "FAIL" not in out

    def test_prints_wall_times(self, capsys, monkeypatch):
        run = verify.Verification(
            10,
            1.5,
            [(verify.CheckResult("a", True, "fine"), 0.25),
             (verify.CheckResult("b", False, "bad"), 12.0)],
        )
        monkeypatch.setattr(verify, "run_verification", lambda quick: run)
        assert main(["verify"]) == 2
        assert capsys.readouterr().out.splitlines() == [
            "        1.50 s  decoder corpus: 10 instances, read by the two corpus checks",
            "ok      0.25 s  a: fine",
            "FAIL   12.00 s  b: bad",
            "1/2 checks passed",
        ]


def test_unknown_subcommand_is_config_error():
    assert main(["frobnicate"]) == 1


def test_missing_subcommand_is_config_error():
    assert main([]) == 1
