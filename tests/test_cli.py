import json
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from heatchern import cli
from heatchern.cli import main
from heatchern.errors import ComplexityCap
from heatchern.models import zero_mode_triple
from heatchern.serialization import dumps_canonical, triple_to_json

EXCHANGE = {
    "dim": 2,
    "Q": [[0, 1], [1, 0]],
    "gamma": [[1, 0], [0, -1]],
}

PAULI_SPLIT = {
    "dim": 4,
    "Q1": [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]],
    "Q2": [
        [0, 0, [0, -1], 0],
        [0, 0, 0, [0, -1]],
        [[0, 1], 0, 0, 0],
        [0, [0, 1], 0, 0],
    ],
    "gamma": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]],
}


HUGE = 1e160  # its square leaves the float range
OVERFLOW = ("Overflow", "generator H has non-finite entries: its matrices overflow")
OVERFLOWING = {
    "Q": [[0, HUGE], [HUGE, 0]],
    "tuple": [[[1, 0], [0, 1]], [[1, 0], [0, -1]]],
}
I2, Z2, ZERO2 = [[1, 0], [0, 1]], [[1, 0], [0, -1]], [[0, 0], [0, 0]]
I3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
SCALING = "matrix 1-norm {}: its scaling 2^s leaves the float range"
NO_POINTS = ("DimensionMismatch", "grid '0:1:0' has no points")
NOT_POSITIVE = "beta_plane must be positive, got"


def write(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(dumps_canonical(doc))
    return str(p)


def run_main(args):
    return main(args)


def _warning_to_stderr(message, category, filename, lineno, file=None, line=None):
    sys.stderr.write(warnings.formatwarning(message, category, filename, lineno, line))


class TestIndex:
    def test_zero_mode_index(self, tmp_path, capsys):
        doc = triple_to_json(zero_mode_triple())
        path = write(tmp_path, "t.json", doc)
        assert run_main(["index", "--input", path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["values"][0] == [1.0, 0.0]
        assert out["provenance"]["seed"] == 0


class TestPair:
    def test_exchange_gamma(self, tmp_path, capsys):
        doc = dict(EXCHANGE)
        doc["a"] = [[1, 0], [0, -1]]
        path = write(tmp_path, "p.json", doc)
        assert run_main(["pair", "--input", path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["value"][0] == pytest.approx(2.0, abs=1e-9)
        assert abs(out["value"][1]) < 1e-12
        assert out["series_value"][0] == pytest.approx(2.0, abs=1e-8)

    def test_block_input(self, tmp_path, capsys):
        doc = dict(EXCHANGE)
        a = np.kron(np.eye(2), np.diag([1.0, -1.0]))
        doc["a"] = {
            "m": 2,
            "matrix": [[[float(x), 0.0] for x in row] for row in a],
        }
        path = write(tmp_path, "p2.json", doc)
        assert run_main(["pair", "--input", path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["value"][0] == pytest.approx(4.0, abs=1e-8)


class TestValidate:
    def test_good_triple(self, tmp_path, capsys):
        path = write(tmp_path, "t.json", EXCHANGE)
        assert run_main(["validate", "--input", path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["passed"] is True

    def test_bad_triple_exit_one(self, tmp_path, capsys):
        doc = dict(EXCHANGE)
        doc["Q"] = [[1, 0], [0, 1]]  # commutes with gamma
        path = write(tmp_path, "bad.json", doc)
        assert run_main(["validate", "--input", path]) == 1
        out = json.loads(capsys.readouterr().out)
        names = [c["name"] for c in out["checks"] if not c["passed"]]
        assert "Q gamma + gamma Q = 0" in names

    def test_split_validation(self, tmp_path, capsys):
        path = write(tmp_path, "s.json", PAULI_SPLIT)
        assert run_main(["validate", "--input", path]) == 0


class TestSweepCommands:
    def sweep_doc(self):
        doc = dict(EXCHANGE)
        doc["a"] = [[1, 0], [0, -1]]
        doc["q"] = [[0, [0, 1]], [[0, -1], 0]]  # gamma-odd hermitian
        return doc

    def test_sweep_invariance(self, tmp_path, capsys):
        path = write(tmp_path, "sw.json", self.sweep_doc())
        code = run_main(
            ["sweep", "--input", path, "--lambda-grid=-0.4:0.4:5"]
        )
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["table"]["spread"] < 1e-6

    def test_sweep_csv(self, tmp_path):
        path = write(tmp_path, "sw.json", self.sweep_doc())
        outp = tmp_path / "out.csv"
        code = run_main(
            [
                "sweep",
                "--input",
                path,
                "--lambda-grid=-0.2:0.2:3",
                "--format",
                "csv",
                "--output",
                str(outp),
            ]
        )
        assert code == 0
        lines = outp.read_text().strip().split("\n")
        assert lines[0].startswith("lambda,re(value),im(value)")
        assert len(lines) == 4

    def test_beta_scan(self, tmp_path, capsys):
        doc = dict(EXCHANGE)
        doc["a"] = [[1, 0], [0, -1]]
        path = write(tmp_path, "b.json", doc)
        code = run_main(["beta-scan", "--input", path, "--beta-list", "0.5,1,2"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["table"]["spread"] < 1e-6

    def test_endpoint(self, tmp_path, capsys):
        doc = self.sweep_doc()
        doc["regularizer"] = [[0.5, 0], [0, 1.5]]
        path = write(tmp_path, "e.json", doc)
        code = run_main(
            [
                "endpoint",
                "--input",
                path,
                "--lambda-grid",
                "0.1:0.3:2",
                "--eps-grid",
                "0:0.4:3",
            ]
        )
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert len(out["table"]["rows"]) == 6

    def test_deterministic_outputs(self, tmp_path):
        path = write(tmp_path, "sw.json", self.sweep_doc())
        o1, o2 = tmp_path / "a.json", tmp_path / "b.json"
        for o in (o1, o2):
            assert (
                run_main(
                    [
                        "sweep",
                        "--input",
                        path,
                        "--lambda-grid=-0.2:0.2:3",
                        "--seed",
                        "7",
                        "--output",
                        str(o),
                    ]
                )
                == 0
            )
        assert o1.read_bytes() == o2.read_bytes()


class TestSplitCommands:
    def test_split_pair(self, tmp_path, capsys):
        doc = dict(PAULI_SPLIT)
        doc["a"] = [
            [1, 0, 0, 0],
            [0, -1, 0, 0],
            [0, 0, -1, 0],
            [0, 0, 0, 1],
        ]
        path = write(tmp_path, "sp.json", doc)
        assert run_main(["split-pair", "--input", path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert (
            abs(out["series_value"][0] - out["quadrature_value"][0]) < 1e-8
        )

    def test_coupling_sweep(self, tmp_path, capsys):
        from heatchern.serialization import matrix_to_json, split_to_json
        from heatchern.split import build_n2_susy_example

        s, gens = build_n2_susy_example(levels=((1.0, 0.5),))
        doc = split_to_json(s)
        doc["a"] = matrix_to_json(s.gamma)
        doc["q2_tilde"] = matrix_to_json(gens["Qt2"])
        path = write(tmp_path, "cs.json", doc)
        code = run_main(
            ["coupling-sweep", "--input", path, "--lambda-grid", "0:0.4:3"]
        )
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["table"]["spread"] < 1e-6


    @pytest.mark.parametrize("grid", ["0:0.6:4", "0.2:0.8:4"])
    def test_coupling_sweep_validates_each_point_once(
        self, tmp_path, capsys, monkeypatch, grid
    ):
        from heatchern import split
        from heatchern.serialization import matrix_to_json, split_to_json

        s, gens = split.build_n2_susy_example(levels=((1.0, 0.5),))
        doc = split_to_json(s)
        doc["a"] = matrix_to_json(s.gamma)
        doc["q2_tilde"] = matrix_to_json(gens["Qt2"])
        path = write(tmp_path, "cs.json", doc)
        calls = []

        def counted(st):
            calls.append(st)
            return validate_split(st)

        validate_split = split.validate_split
        monkeypatch.setattr(split, "validate_split", counted)
        assert run_main(["coupling-sweep", "--input", path, f"--lambda-grid={grid}"]) == 0
        assert len(calls) == 4


class TestJloCommand:
    def test_exact_component(self, tmp_path, capsys):
        doc = dict(EXCHANGE)
        doc["tuple"] = [[[1, 0], [0, 1]]]
        path = write(tmp_path, "j.json", doc)
        assert run_main(["jlo", "--input", path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["level"] == 0
        assert abs(out["value"][0]) < 1e-12  # exchange index is 0

    def test_quadrature_within_its_error_of_exact(self, tmp_path, capsys):
        doc = triple_to_json(zero_mode_triple())
        doc["tuple"] = [
            [[1, [0, 0.5], 0], [[0.3, -0.2], -1, 0], [0, 0, 0.7]],
            [[0, 1, 0], [1, [0.2, 0.4], 0], [0, 0, [0, -1]]],
            [[[0.5, 0.5], 0, 0], [0.1, -0.6, 0], [0, 0, 1]],
        ]
        path = write(tmp_path, "j.json", doc)
        out = {}
        for method in ("exact", "quadrature"):
            assert run_main(["jlo", "--input", path, f"--method={method}", "--seed", "0"]) == 0
            out[method] = json.loads(capsys.readouterr().out)
        exact, quad = (complex(*out[m]["value"]) for m in ("exact", "quadrature"))
        assert out["quadrature"]["level"] == 2
        assert abs(exact) > 0.1
        assert abs(quad - exact) <= out["quadrature"]["estimated_error"]

    @pytest.mark.parametrize("method", ["exact", "quadrature"])
    def test_odd_argument_exit_one(self, tmp_path, capsys, method):
        # the quadrature branch skipped the gamma-even check and exited 0
        doc = dict(EXCHANGE)
        doc["tuple"] = [[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[1, 0], [0, 1]]]
        path = write(tmp_path, "j.json", doc)
        assert run_main(["jlo", "--input", path, f"--method={method}"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {
            "error": {"type": "ValidationFailure", "message": "argument 1 is not gamma-even"}
        }


class TestErrors:
    def test_missing_file_exit_three(self, capsys):
        assert run_main(["index", "--input", "/nonexistent.json"]) == 3

    def test_malformed_json_exit_three(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        assert run_main(["index", "--input", str(p)]) == 3
        err = capsys.readouterr().err
        assert "error" in err

    def test_bad_grid_exit_three(self, tmp_path):
        doc = dict(EXCHANGE)
        doc["a"] = [[1, 0], [0, -1]]
        doc["q"] = [[0, [0, 1]], [[0, -1], 0]]
        path = write(tmp_path, "sw.json", doc)
        assert run_main(["sweep", "--input", path, "--lambda-grid", "nope"]) == 3

    @pytest.mark.parametrize("index", ["1", "-1"])
    def test_group_index_out_of_range_exit_three(self, tmp_path, capsys, index):
        doc = dict(EXCHANGE)
        doc["a"] = [[1, 0], [0, -1]]
        path = write(tmp_path, "p.json", doc)
        assert run_main(["pair", "--input", path, f"--group-index={index}"]) == 3
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "DimensionMismatch"
        assert err["message"] == f"group index {index} outside [0, 1)"

    def test_non_object_json_exit_three(self, tmp_path, capsys):
        p = tmp_path / "list.json"
        p.write_text("[1, 2]")
        assert run_main(["pair", "--input", str(p)]) == 3
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "DimensionMismatch"

    def test_deeply_nested_json_exit_three(self, tmp_path, capsys):
        # json.loads raised RecursionError, which escaped as a traceback
        p = tmp_path / "deep.json"
        p.write_text("[" * 100_000 + "]" * 100_000)
        assert run_main(["index", "--input", str(p)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {
            "error": {"type": "DimensionMismatch", "message": "input JSON is nested too deeply"}
        }

    @pytest.mark.parametrize("order", [0, -2])
    def test_nonpositive_cyclic_order_exit_three(self, tmp_path, capsys, order):
        # an order of 0 or less used to expand to the identity alone
        doc = dict(EXCHANGE, group={"cyclic": order, "generator": [[1, 0], [0, 1]]})
        assert run_main(["index", "--input", write(tmp_path, "c.json", doc)]) == 3
        assert json.loads(capsys.readouterr().err) == {
            "error": {
                "type": "DimensionMismatch",
                "message": f"group cyclic order must be positive, got {order}",
            }
        }

    @pytest.mark.parametrize(
        "group, kind",
        [(0, "int"), (False, "bool"), ("", "str"), ({}, "dict")],
        ids=["zero", "false", "empty-string", "empty-object"],
    )
    def test_falsy_group_exit_three(self, tmp_path, capsys, group, kind):
        # each used to load as the trivial group and exit 0
        doc = dict(EXCHANGE, group=group)
        assert run_main(["validate", "--input", write(tmp_path, "g.json", doc)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {
            "error": {"type": "DimensionMismatch", "message": f"cannot parse group from {kind}"}
        }

    def test_cyclic_order_over_budget_exit_two(self, tmp_path, capsys):
        # 2^20 powers of a 2 x 2 generator fill one 2048 x 2048 block; one more is over
        order = 2**20 + 1
        doc = dict(EXCHANGE, group={"cyclic": order, "generator": [[1, 0], [0, 1]]})
        assert run_main(["index", "--input", write(tmp_path, "c.json", doc)]) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "ComplexityCap"
        assert err["message"].startswith(f"cyclic group of order {order} at dim 2 ")

    def test_nonzero_momentum_split_input_exit_one(self, tmp_path, capsys):
        from heatchern.serialization import matrix_to_json, split_to_json
        from heatchern.split import build_n2_susy_example

        s, _ = build_n2_susy_example(levels=((1.0, 0.5), (2.0, 1.0)))
        doc = split_to_json(s)
        doc["a"] = matrix_to_json(np.kron(np.array([[0, 1], [1, 0]]), np.eye(4)))
        path = write(tmp_path, "nz.json", doc)
        assert run_main(["split-pair", "--input", path]) == 1
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "ZeroMomentumViolation"

    @pytest.mark.parametrize("command", ["split-pair", "coupling-sweep"])
    def test_wrong_shape_split_input_exit_three(self, tmp_path, capsys, command):
        # a 2 x 2 a on dim-4 split data ended in numpy's matmul ValueError
        from heatchern.serialization import matrix_to_json, split_to_json
        from heatchern.split import build_n2_susy_example

        s, gens = build_n2_susy_example(levels=((1.0, 0.5),))
        doc = dict(split_to_json(s), a=[[1, 0], [0, -1]], q2_tilde=matrix_to_json(gens["Qt2"]))
        assert run_main([command, "--input", write(tmp_path, "w.json", doc)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {
            "error": {"type": "DimensionMismatch", "message": "a is 2x2, expected m*dim = 4"}
        }

    def test_wrong_shape_q1_commuting_exit_three(self, tmp_path, capsys):
        # mode q1_commuting formed ||[Q1, a]|| first: numpy's matmul ValueError
        from heatchern.serialization import matrix_to_json, split_to_json
        from heatchern.split import build_n2_susy_example

        s, gens = build_n2_susy_example(levels=((1.0, 0.5),))
        doc = dict(split_to_json(s), a=[[1, 0], [0, -1]], q2_tilde=matrix_to_json(gens["Qt2"]))
        path = write(tmp_path, "w.json", doc)
        assert run_main(["coupling-sweep", "--input", path, "--mode=q1_commuting"]) == 3
        assert json.loads(capsys.readouterr().err) == {
            "error": {"type": "DimensionMismatch", "message": "a is 2x2, expected m*dim = 4"}
        }

    def test_block_split_input(self, tmp_path, capsys):
        # an m = 2 input was refused ("split pairing supports scalar inputs")
        from heatchern.serialization import matrix_to_json, split_to_json
        from heatchern.split import build_n2_susy_example

        s, _ = build_n2_susy_example(levels=((1.0, 0.5),))
        values = []
        for m in (1, 2):
            a = {"m": m, "matrix": matrix_to_json(np.kron(np.eye(m), s.gamma))}
            path = write(tmp_path, f"m{m}.json", dict(split_to_json(s), a=a))
            assert run_main(["split-pair", "--input", path]) == 0
            values.append(complex(*json.loads(capsys.readouterr().out)["value"]))
        assert abs(values[1] - 2.0 * values[0]) <= 1e-12

    def test_decreasing_grid_exit_three(self, tmp_path, capsys):
        doc = dict(EXCHANGE, a=[[1, 0], [0, -1]], q=[[0, [0, 1]], [[0, -1], 0]])
        path = write(tmp_path, "sw.json", doc)
        assert run_main(["sweep", "--input", path, "--lambda-grid=1:0:3"]) == 3
        assert json.loads(capsys.readouterr().err) == {
            "error": {"type": "DimensionMismatch",
                      "message": "grid '1:0:3' must be strictly increasing"}
        }

    def test_missing_input_option_exit_three(self, capsys):
        assert run_main(["index"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {
            "error": {"type": "FileNotFoundError",
                      "message": "--input is required for this command"}
        }

    def test_failure_written_to_output(self, tmp_path, capsys):
        path = write(tmp_path, "t.json", dict(EXCHANGE, a=[[2, 0], [0, 2]]))
        out = tmp_path / "out.json"
        assert run_main(["pair", "--input", path, "--output", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(out.read_text()) == json.loads(captured.err)
        assert json.loads(captured.err)["error"]["type"] == "PairingInputInvalid"

    def test_output_in_missing_directory_exit_three(self, tmp_path, capsys):
        path = write(tmp_path, "t.json", EXCHANGE)
        out = tmp_path / "missing" / "out.json"
        assert run_main(["index", "--input", path, "--output", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)["error"]
        assert err["type"] == "FileNotFoundError"
        assert str(out) in err["message"]
        assert not out.parent.exists()

    def test_invalid_triple_exit_one(self, tmp_path):
        doc = dict(EXCHANGE)
        doc["Q"] = [[1, 0], [0, 1]]
        doc["a"] = [[1, 0], [0, -1]]
        path = write(tmp_path, "t.json", doc)
        assert run_main(["pair", "--input", path]) == 1

    def test_invalid_split_triple_exit_one(self, tmp_path, capsys):
        doc = dict(PAULI_SPLIT)
        doc["Q2"] = doc["Q1"]  # Q1 Q2 + Q2 Q1 = 2 Q1^2, not independent
        doc["a"] = np.diag([1.0, -1.0, -1.0, 1.0]).tolist()
        path = write(tmp_path, "s.json", doc)
        assert run_main(["split-pair", "--input", path]) == 1
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "ValidationFailure"
        assert err["message"].startswith("split triple fails validation:")
        assert "independence Q1 Q2 + Q2 Q1 = 0" in err["message"]

    def test_no_convergence_exit_two(self, tmp_path, capsys):
        # the series stops at --max-level with a tail that covers the gap
        doc = {
            "dim": 2,
            "Q": [[0, 3], [3, 0]],
            "gamma": [[1, 0], [0, -1]],
            "a": [[1, 0], [0, -1]],
        }
        path = write(tmp_path, "n.json", doc)
        assert run_main(["pair", "--input", path, "--max-level", "6"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["truncation_level"] == 6
        gap = abs(complex(*out["series_value"]) - complex(*out["value"]))
        assert 1.0 < gap <= out["tail_bound"]

    def test_high_max_level_reaches_the_tail(self, tmp_path, capsys):
        # the series weights from level 172 on overflowed a float (exit 2)
        doc = {
            "dim": 2,
            "Q": [[0, 6], [6, 0]],
            "gamma": [[1, 0], [0, -1]],
            "a": [[1, 0], [0, -1]],
        }
        path = write(tmp_path, "n.json", doc)
        assert run_main(["pair", "--input", path, "--max-level", "300"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["truncation_level"] > 170
        gap = abs(complex(*out["series_value"]) - complex(*out["value"]))
        assert gap <= out["tail_bound"]

    @pytest.mark.parametrize("q", [4, 6])
    def test_exchange_series_within_tail(self, tmp_path, capsys, q):
        # Q = qX, a = gamma: the pairing is 2, and the series, cut at
        # level 32, reports a tail that covers its error
        doc = {
            "dim": 2,
            "Q": [[0, q], [q, 0]],
            "gamma": [[1, 0], [0, -1]],
            "a": [[1, 0], [0, -1]],
        }
        path = write(tmp_path, "n.json", doc)
        assert run_main(["pair", "--input", path]) == 0
        out = json.loads(capsys.readouterr().out)
        value = complex(*out["value"])
        assert abs(value - 2.0) < 1e-8
        assert abs(complex(*out["series_value"]) - value) <= out["tail_bound"]

    def test_quadrature_out_of_nodes_exit_two(self, tmp_path, capsys):
        # Q = 20X needs the 537-node rule, and numpy's rules are NaN from
        # 372 nodes; Q = 12X needs 229 nodes and pairs
        doc = {"dim": 2, "gamma": [[1, 0], [0, -1]], "a": [[1, 0], [0, -1]]}
        path = write(tmp_path, "n.json", dict(doc, Q=[[0, 20], [20, 0]]))
        assert run_main(["pair", "--input", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)["error"]
        assert err["type"] == "NoConvergence"
        assert "the 537-node rule that tol 1e-10 needs is not finite" in err["message"]
        path = write(tmp_path, "m.json", dict(doc, Q=[[0, 12], [12, 0]]))
        assert run_main(["pair", "--input", path]) == 0
        assert abs(json.loads(capsys.readouterr().out)["value"][0] - 2.0) < 1e-12

    def test_quad_nodes_over_cap_exit_three(self, tmp_path, capsys):
        # the rule is planned from tol, so --quad-nodes is an unknown option at any value
        path = write(tmp_path, "p.json", dict(EXCHANGE, a=[[1, 0], [0, -1]]))
        for nodes in ("64", "2000"):
            assert run_main(["pair", "--input", path, "--quad-nodes", nodes]) == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            err = json.loads(captured.err)["error"]
            assert err == {"type": "ArgumentError",
                           "message": f"unrecognized arguments: --quad-nodes {nodes}"}

    @pytest.mark.parametrize("command", ["pair", "split-pair"])
    def test_negative_max_level_exit_three(self, tmp_path, capsys, command):
        # a negative cap used to give a zero series with a zero tail
        if command == "pair":
            doc = dict(EXCHANGE, a=[[1, 0], [0, -1]])
        else:
            doc = dict(PAULI_SPLIT, a=np.diag([1, -1, -1, 1]).tolist())
        path = write(tmp_path, "p.json", doc)
        assert run_main([command, "--input", path, "--max-level", "-3"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {
            "error": {
                "type": "ValueError",
                "message": "max_level must be nonnegative, got -3",
            }
        }

    @pytest.mark.parametrize(
        "command, fields, message",
        [
            ("pair", {"dim": None}, "dim must be a number, got None"),
            ("pair", {"tol": None}, "tol must be a number, got None"),
            (
                "pair",
                {"group": {"cyclic": None, "generator": [[1, 0], [0, 1]]}},
                "group cyclic order must be a number, got None",
            ),
            (
                "pair",
                {"a": {"m": None, "matrix": [[1, 0], [0, -1]]}},
                "'a' block size m must be a number, got None",
            ),
            ("pair", {"triple": None}, "triple JSON must be an object, got NoneType"),
            ("jlo", {"tuple": 5}, "'tuple' must be a nonempty list of matrices"),
            ("jlo", {"tuple": []}, "'tuple' must be a nonempty list of matrices"),
        ],
        ids=["dim", "tol", "cyclic", "m", "triple", "tuple", "empty-tuple"],
    )
    def test_schema_error_exit_three(self, tmp_path, capsys, command, fields, message):
        # each of these used to end in a TypeError or IndexError traceback
        doc = {**EXCHANGE, "a": [[1, 0], [0, -1]], **fields}
        path = write(tmp_path, "s.json", doc)
        assert run_main([command, "--input", path]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {
            "error": {"type": "DimensionMismatch", "message": message}
        }

    @pytest.mark.parametrize(
        "command, flag, error",
        [
            ("sweep", "--lambda-grid=0:1:0", NO_POINTS),
            ("endpoint", "--lambda-grid=0:1:0", NO_POINTS),
            ("endpoint", "--eps-grid=0:1:0", NO_POINTS),
            ("coupling-sweep", "--lambda-grid=0:1:0", NO_POINTS),
            ("beta-scan", "--beta-list=,", ("DimensionMismatch", "list ',' has no values")),
            ("beta-scan", "--beta-list=0", ("BadExponent", f"{NOT_POSITIVE} 0.0")),
            ("beta-scan", "--beta-list=-1", ("BadExponent", f"{NOT_POSITIVE} -1.0")),
        ],
        ids=["sweep", "endpoint-lambda", "endpoint-eps", "coupling", "beta-empty",
             "beta-0", "beta-neg"],
    )
    def test_empty_grid_or_nonpositive_beta_exit_three(
        self, tmp_path, capsys, command, flag, error
    ):
        # an empty grid used to give an empty table with spread 0, or an
        # IndexError; beta 0 gave a row and beta -1 a math domain error
        if command == "coupling-sweep":
            from heatchern.serialization import matrix_to_json, split_to_json
            from heatchern.split import build_n2_susy_example

            s, gens = build_n2_susy_example(levels=((1.0, 0.5),))
            doc = split_to_json(s)
            doc["a"] = matrix_to_json(s.gamma)
            doc["q2_tilde"] = matrix_to_json(gens["Qt2"])
        else:
            doc = dict(
                EXCHANGE,
                a=[[1, 0], [0, -1]],
                q=[[0, [0, 1]], [[0, -1], 0]],
                regularizer=[[0.5, 0], [0, 1.5]],
            )
        path = write(tmp_path, "g.json", doc)
        assert run_main([command, "--input", path, flag]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {
            "error": {"type": error[0], "message": error[1]}
        }

    @pytest.mark.parametrize(
        "command, flags, message",
        [
            ("sweep", ["--lambda-grid=0:1:20000000"],
             "grid '0:1:20000000' has 20000000 points, which exceeds budget 2048"),
            ("endpoint", ["--lambda-grid=0:1:100000000"],
             "grid '0:1:100000000' has 100000000 points, which exceeds budget 2048"),
            ("endpoint", ["--eps-grid=0:1:2", "--lambda-grid=0:1:2000"],
             "the (eps, lambda) grid 2*2000 has 4000 points, which exceeds budget 2048"),
        ],
        ids=["sweep", "endpoint-lambda", "endpoint-product"],
    )
    def test_grid_over_budget_exit_two(self, tmp_path, capsys, command, flags, message):
        # the parser allocated every point first: 20 M points took 354 MB, and
        # 10^8 ended in a MemoryError after seconds
        doc = dict(EXCHANGE, a=[[1, 0], [0, -1]], q=[[0, [0, 1]], [[0, -1], 0]],
                   regularizer=[[0.5, 0], [0, 1.5]])
        path = write(tmp_path, "g.json", doc)
        assert run_main([command, "--input", path, *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {"error": {"type": "ComplexityCap", "message": message}}

    def test_grid_budget_checked_before_allocation(self):
        tracemalloc.start()
        try:
            with pytest.raises(ComplexityCap, match="20000000 points"):
                cli._parse_grid("0:1:20000000")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert len(cli._parse_grid("0:1:2048")) == 2048

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "command, fields, flag, code, error",
        [
            ("sweep", {"q": [[0.1]]}, "--lambda-grid=0:0.4:3", 3,
             ("DimensionMismatch", "q(lambda) has shape (1, 1), expected (2, 2)")),
            ("coupling-sweep", {"q2_tilde": [[1]]}, "--lambda-grid=0:0.4:3", 3,
             ("DimensionMismatch", "q2_tilde has shape (1, 1), expected (4, 4)")),
            ("endpoint", {"regularizer": [[1]]}, "--lambda-grid=0:0.4:3", 3,
             ("DimensionMismatch", "regularizer has shape (1, 1), expected (2, 2)")),
            ("jlo", {"tuple": [[[1]]]}, "--method=exact", 3,
             ("DimensionMismatch", "tuple[0] has shape (1, 1), expected (2, 2)")),
            ("jlo", {"tuple": [[[1, 0], [0, -1]], [[1]]]}, "--method=quadrature", 3,
             ("DimensionMismatch", "tuple[1] has shape (1, 1), expected (2, 2)")),
            ("pair", {"group": {"cyclic": 2, "generator": [[1]]}}, "--group-index=0", 3,
             ("DimensionMismatch", "group generator has shape (1, 1), expected (2, 2)")),
            ("beta-scan", {}, "--beta-list=inf", 3,
             ("DimensionMismatch", "list 'inf' has non-finite values")),
            ("sweep", {}, "--lambda-grid=0:inf:2", 3,
             ("DimensionMismatch", "grid '0:inf:2' is not finite")),
            ("pair", {"dim": 2.5}, "--group-index=0", 3,
             ("DimensionMismatch", "dim must be an integer, got 2.5")),
            ("pair", {"dim": True}, "--group-index=0", 3,
             ("DimensionMismatch", "dim must be an integer, got True")),
            ("pair", {"a": {"m": 1.9, "matrix": [[1, 0], [0, -1]]}}, "--group-index=0", 3,
             ("DimensionMismatch", "'a' block size m must be an integer, got 1.9")),
            ("endpoint", {}, "--eps-grid=0:1e200:2", 2,
             ("Overflow", "regularizer eps^2 Z*Z overflows at eps = 1e+200")),
            ("endpoint", {"regularizer": [[1e300, 0], [0, 1e300]]}, "--eps-grid=0:1e10:2", 2,
             ("Overflow", "regularizer eps^2 Z*Z overflows at eps = 10000000000.0")),
            ("pair", {"dim": 40000}, "--group-index=0", 3,
             ("DimensionMismatch", "Q has shape (2, 2), expected (40000, 40000)")),
            ("pair", {"dim": 40000, "group": {"cyclic": 2, "generator": [[1, 0], [0, 1]]}},
             "--group-index=0", 3,
             ("DimensionMismatch", "Q has shape (2, 2), expected (40000, 40000)")),
            ("pair", {"tol": True}, "--group-index=0", 3,
             ("DimensionMismatch", "tol must be a number, got True")),
            ("validate", {"tol": 0}, "--group-index=0", 3,
             ("DimensionMismatch", "tol must be positive and finite, got 0.0")),
            ("index", {"tol": -1}, "--group-index=0", 3,
             ("DimensionMismatch", "tol must be positive and finite, got -1.0")),
            ("pair", {"tol": float("nan")}, "--group-index=0", 3,
             ("DimensionMismatch", "tol must be positive and finite, got nan")),
            ("coupling-sweep", {"tol": -1}, "--lambda-grid=0:0.4:3", 3,
             ("DimensionMismatch", "tol must be positive and finite, got -1.0")),
            ("pair", {}, "--tol=0", 3,
             ("ValueError", "tol must be positive and finite, got 0.0")),
            ("pair", {}, "--tol=-1", 3,
             ("ValueError", "tol must be positive and finite, got -1.0")),
            ("sweep", {}, "--tol=nan", 3,
             ("ValueError", "tol must be positive and finite, got nan")),
            ("beta-scan", {}, "--tol=inf", 3,
             ("ValueError", "tol must be positive and finite, got inf")),
            *[(command, OVERFLOWING, "--group-index=0", 2, OVERFLOW)
              for command in ["pair", "sweep", "beta-scan", "endpoint", "index", "jlo"]],
            ("split-pair",
             {"Q1": [[0, 0, HUGE, 0], [0, 0, 0, HUGE], [HUGE, 0, 0, 0], [0, HUGE, 0, 0]]},
             "--group-index=0", 2, OVERFLOW),
            ("pair", {"a": {"m": 2}}, "--group-index=0", 3,
             ("DimensionMismatch", "'a' is missing key 'matrix'")),
            ("pair", {"group": {"cyclic": 2}}, "--group-index=0", 3,
             ("DimensionMismatch", "cyclic group is missing key 'generator'")),
        ],
        ids=["q-shape", "q2-tilde-shape", "regularizer-shape", "tuple-shape",
             "tuple-shape-quadrature", "generator-shape", "beta-inf", "grid-inf", "dim-fraction", "dim-bool",
             "m-fraction", "eps-overflow", "eps-regularizer-overflow", "dim-unmatched",
             "dim-unmatched-cyclic", "tol-bool", "tol-zero", "tol-negative",
             "tol-nan", "split-tol-negative", "flag-tol-zero", "flag-tol-negative",
             "flag-tol-nan", "flag-tol-inf", "overflow-pair", "overflow-sweep",
             "overflow-beta-scan", "overflow-endpoint", "overflow-index", "overflow-jlo",
             "overflow-split-pair", "missing-a-matrix", "missing-cyclic-generator"],
    )
    def test_malformed_input_fails_honestly(
        self, tmp_path, capsys, command, fields, flag, code, error
    ):
        # wrong shapes broadcast or reached numpy's matmul error, infinities
        # printed a RuntimeWarning first, fractions and booleans were
        # truncated to integers, eps**2 overflowed into a traceback, and a
        # tolerance of true, 0, -1, NaN or inf was read as a tolerance; a
        # generator whose square overflows warned and exited 3 as a ValueError
        # or LinAlgError, and a nested object missing a key as a bare KeyError;
        # an overflowing eps^2 Z*Z warned and exited 3, and a "dim" its
        # matrices do not match allocated dim x dim (MemoryError or ComplexityCap)
        if command in ("coupling-sweep", "split-pair"):
            from heatchern.serialization import matrix_to_json, split_to_json
            from heatchern.split import build_n2_susy_example

            s, gens = build_n2_susy_example(levels=((1.0, 0.5),))
            doc = dict(split_to_json(s), a=matrix_to_json(s.gamma))
            doc["q2_tilde"] = matrix_to_json(gens["Qt2"])
        else:
            doc = dict(
                EXCHANGE,
                a=[[1, 0], [0, -1]],
                q=[[0, [0, 1]], [[0, -1], 0]],
                regularizer=[[0.5, 0], [0, 1.5]],
            )
        path = write(tmp_path, "m.json", {**doc, **fields})
        assert run_main([command, "--input", path, flag]) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {
            "error": {"type": error[0], "message": error[1]}
        }

    @pytest.mark.parametrize(
        "fields, argv, code, error",
        [
            ({"a": Z2, "q": ZERO2, "regularizer": [[1, 0], [0, 0]]},
             ["endpoint", "--eps-grid=0:7.07e153:2", "--lambda-grid=0:0:1"], 2,
             ("Overflow", SCALING.format("4.998e+307"))),
            ({"a": I2, "q": [[0, 1e154], [1e154, 0]]}, ["sweep", "--lambda-grid=0:0.7:2"], 2,
             ("Overflow", SCALING.format("4.900e+307"))),
            ({"a": I2}, ["beta-scan", "--beta-list=1e308"], 2,
             ("Overflow", SCALING.format("1.000e+308"))),
            ({"a": I2, "q": [[0, 1e154], [1e154, 0]]}, ["sweep", "--lambda-grid=1:1:1"], 2,
             ("Overflow", SCALING.format("1.000e+308"))),
            ({"a": I2, "q": ZERO2, "regularizer": I2}, ["endpoint", "--eps-grid=0:1e154:3"], 2,
             ("Overflow", SCALING.format("1.000e+308"))),
            ({"dim": 3, "Q": [[0, 0, 0], [0, 0, 7e153], [0, 7e153, 0]],
              "gamma": [[1, 0, 0], [0, 1, 0], [0, 0, -1]], "tuple": [I3, I3]}, ["jlo"], 2,
             ("Overflow", SCALING.format("4.900e+307"))),
            ({"group": {"cyclic": 3, "generator": [[1e308, 0], [0, 1]]}}, ["index"], 3,
             ("ValueError", "group[2] contains non-finite entries")),
        ],
        ids=["endpoint-scaling", "sweep-scaling", "beta-scan-graded", "sweep-graded",
             "endpoint-graded", "jlo-scaling", "index-cyclic-powers"],
    )
    def test_overflow_ends_in_one_error_object(
        self, tmp_path, capfd, fields, argv, code, error
    ):
        # an expm scaling 2^s past the float range took the exponential as I
        # (endpoint, sweep: exit 0, the sweep with a warning) or raised a
        # bare OverflowError (jlo); graded parts (h + gamma h gamma)/2
        # overflowed with two warnings, then exited 3 with a ValueError; and
        # the cyclic powers warned before their error.  Warnings are shown
        # on stderr as in a plain run, so stderr must be the error alone
        path = write(tmp_path, "o.json", {**EXCHANGE, **fields})
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            warnings.showwarning = _warning_to_stderr
            assert run_main([argv[0], "--input", path, *argv[1:]]) == code
        captured = capfd.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {"error": {"type": error[0], "message": error[1]}}

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["index", "--method=foo"], "argument --method: invalid choice: 'foo'"),
            (["index", "--tol=abc"], "argument --tol: invalid float value: 'abc'"),
            (["index", "--max-level=1.5"], "argument --max-level: invalid int value: '1.5'"),
            (["frobnicate"], "argument command: invalid choice: 'frobnicate'"),
            (["index", "--frobnicate=1"], "unrecognized arguments: --frobnicate=1"),
            ([], "the following arguments are required: command"),
        ],
        ids=["bad-choice", "bad-float", "bad-int", "unknown-command", "unknown-option",
             "no-command"],
    )
    def test_usage_error_exit_three(self, capsys, argv, message):
        # argparse printed its usage text and exited 2, the numerical-failure code
        assert run_main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)["error"]
        assert err["type"] == "ArgumentError"
        assert err["message"].startswith(message)

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_main(["--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: heatchern")

    @pytest.mark.parametrize(
        "argv, error",
        [
            (["index", "--tol=-1"], ("ValueError", "tol must be positive and finite, got -1.0")),
            (["validate", "--tol=0"], ("ValueError", "tol must be positive and finite, got 0.0")),
            (["jlo", "--tol=inf"], ("ValueError", "tol must be positive and finite, got inf")),
            (["index", "--quad-nodes=5"],
             ("ArgumentError", "unrecognized arguments: --quad-nodes=5")),
            (["validate", "--quad-nodes=2000"],
             ("ArgumentError", "unrecognized arguments: --quad-nodes=2000")),
            (["validate", "--max-level=-3"],
             ("ValueError", "max_level must be nonnegative, got -3")),
            (["pair", "--max-level=344"], ("ValueError", "max_level 344 exceeds 342")),
        ],
        ids=["index-tol", "validate-tol", "jlo-tol", "index-nodes", "validate-nodes",
             "validate-level", "pair-level"],
    )
    @pytest.mark.parametrize("input_ok", [True, False], ids=["input", "no-input"])
    def test_option_checked_on_every_command(self, tmp_path, capsys, argv, error, input_ok):
        # these commands do not use the option; they exited 0 and wrote the
        # bad value into the provenance block.  The option is checked before
        # the input is read; the removed --quad-nodes is a usage error.
        doc = dict(EXCHANGE, tuple=[[[1, 0], [0, 1]]])
        path = write(tmp_path, "t.json", doc) if input_ok else "/nonexistent.json"
        assert run_main(argv + ["--input", path]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {"error": {"type": error[0], "message": error[1]}}

    def test_gamma_even_sweep_direction_exit_one(self, tmp_path, capsys):
        doc = dict(EXCHANGE, a=[[1, 0], [0, -1]], q=[[1, 0], [0, -1]])
        path = write(tmp_path, "q.json", doc)
        assert run_main(["sweep", "--input", path, "--lambda-grid", "0:0.4:3"]) == 1
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "ValidationFailure"
        assert "deformed triple at lambda=" in err["message"]
        assert "Q gamma + gamma Q = 0" in err["message"]

    def test_memory_error_exit_two(self, tmp_path, capsys, monkeypatch):
        def exhausted(args):
            raise MemoryError("Unable to allocate 64.0 GiB")

        monkeypatch.setitem(cli._COMMANDS, "index", exhausted)
        path = write(tmp_path, "t.json", triple_to_json(zero_mode_triple()))
        assert run_main(["index", "--input", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {
            "error": {"type": "MemoryError", "message": "Unable to allocate 64.0 GiB"}
        }
        assert "Traceback" not in captured.err


class TestWriters:
    @pytest.mark.parametrize(
        "argv",
        [
            ["validate"],
            ["index"],
            ["pair"],
            ["jlo"],
            ["jlo", "--method=quadrature"],
            ["sweep", "--lambda-grid=0:0.4:3"],
            ["sweep", "--lambda-grid=0:0.4:3", "--format=csv"],
            ["beta-scan", "--format=csv"],
            ["endpoint", "--lambda-grid=0:0.4:2", "--eps-grid=0:0.4:2"],
            ["split-pair"],
            ["coupling-sweep", "--lambda-grid=0:0.4:3", "--format=csv"],
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_output_file_holds_the_stdout_bytes(self, tmp_path, capsys, argv):
        # selftest is the one command that prints something else (its table)
        if argv[0] in ("split-pair", "coupling-sweep"):
            from heatchern.serialization import matrix_to_json, split_to_json
            from heatchern.split import build_n2_susy_example

            s, gens = build_n2_susy_example(levels=((1.0, 0.5),))
            doc = dict(split_to_json(s), a=matrix_to_json(s.gamma))
            doc["q2_tilde"] = matrix_to_json(gens["Qt2"])
        else:
            doc = dict(
                EXCHANGE,
                a=[[1, 0], [0, -1]],
                q=[[0, [0, 1]], [[0, -1], 0]],
                regularizer=[[0.5, 0], [0, 1.5]],
                tuple=[[[1, 0], [0, 1]], [[1, 0], [0, -1]], [[2, 0], [0, 1]]],
            )
        command = [argv[0], "--input", write(tmp_path, "w.json", doc), *argv[1:]]
        assert run_main(command) == 0
        stdout = capsys.readouterr().out
        out = tmp_path / "out.txt"
        assert run_main([*command, "--output", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_bytes() == stdout.encode()


class TestParserReuse:
    SEQUENCE = (["nonsense"], ["pair", "--tol=1e-8"], ["pair"])

    def test_parse_args_keeps_no_state(self, capsys):
        def state(p):
            return repr(vars(p)) + repr([vars(a) for a in p._actions])

        p = cli.build_parser()
        before = state(p)
        for argv in self.SEQUENCE + (["--help"],):
            try:
                p.parse_args(argv + ["--input=x.json"])
            except (Exception, SystemExit):
                pass
        assert state(p) == before

    def test_reused_parser_answers_as_a_fresh_one(self, tmp_path, capsys):
        path = write(tmp_path, "e.json", dict(EXCHANGE, a=[[1, 0], [0, -1]]))

        def run(argv):
            code = run_main(argv[:1] + ["--input", path] + argv[1:])
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        cli._parser.cache_clear()
        reused = [run(argv) for argv in self.SEQUENCE]
        fresh = []
        for argv in self.SEQUENCE:
            cli._parser.cache_clear()
            fresh.append(run(argv))
        assert reused == fresh
        assert [code for code, _, _ in reused] == [3, 0, 0]
        assert json.loads(reused[1][1])["provenance"]["tol"] == 1e-8
        assert json.loads(reused[2][1])["provenance"]["tol"] == 1e-10


class TestSelftest:
    def test_table_and_report(self, selftest_run):
        # the suite's one selftest run, which the acceptance gate reads too
        code, table, doc = selftest_run
        assert code == 0
        assert "C01  PASS" in table
        assert "overall: PASS" in table
        assert doc["report"]["passed"] is True
        assert len(doc["report"]["criteria"]) == 15


class TestEntryPoint:
    def test_console_script_runs(self, tmp_path):
        doc = triple_to_json(zero_mode_triple())
        p = tmp_path / "t.json"
        p.write_text(dumps_canonical(doc))
        proc = subprocess.run(
            [sys.executable, "-m", "heatchern.cli", "index", "--input", str(p)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["values"][0] == [1.0, 0.0]

    def test_package_runs_as_module(self, tmp_path):
        p = tmp_path / "t.json"
        p.write_text(dumps_canonical(triple_to_json(zero_mode_triple())))
        proc = subprocess.run(
            [sys.executable, "-m", "heatchern", "validate", "--input", str(p)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["command"] == "validate"
