import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heatchern import serialization
from heatchern.errors import DimensionMismatch
from heatchern.linalg import opnorm
from heatchern.models import random_triple
from heatchern.serialization import (
    csv_text,
    dumps_canonical,
    matrix_from_json,
    matrix_to_json,
    split_from_json,
    split_to_json,
    triple_from_json,
    triple_to_json,
)
from heatchern.split import SplitTriple


class TestMatrixRoundTrip:
    def test_bit_exact(self, rng):
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        doc = matrix_to_json(m)
        text = dumps_canonical(doc)
        back = matrix_from_json(json.loads(text))
        assert np.array_equal(back, m)

    def test_real_scalars_accepted(self):
        m = matrix_from_json([[1, 0], [0, 2.5]])
        assert m[1, 1] == 2.5 + 0j

    def test_rejects_ragged(self):
        with pytest.raises(DimensionMismatch):
            matrix_from_json([[1, 0], [0]])


def _parse_outcome(parse, rows):
    """The bytes and shape of the parsed matrix, or the type and text of the error."""
    try:
        m = parse(rows)
    except Exception as exc:  # the two paths must fail alike, whatever the error
        return type(exc).__name__, str(exc)
    return m.dtype, m.shape, m.tobytes()


def _random_rows(rng, kind, n):
    """An n x n nested list of one kind of JSON entry."""
    if kind == "int":
        vals = rng.integers(-(2**62), 2**62, size=(n, n)) >> rng.integers(0, 62, size=(n, n))
        return [[int(v) for v in row] for row in vals]
    if kind == "bool":
        return [[bool(v) for v in row] for row in rng.integers(0, 2, size=(n, n))]
    special = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 1.7976931348623157e308]
    vals = rng.normal(size=(n, n, 2)) * 10.0 ** rng.integers(-300, 300, size=(n, n, 2))
    vals.flat[rng.integers(0, vals.size, size=3)] = rng.choice(special, size=3)
    if kind == "real":
        return [[float(v) for v in row] for row in vals[..., 0]]
    if kind == "mixed":  # ints and floats in one list infer a float array
        return [[float(v[0]) if (i + j) % 2 else int(rng.integers(-9, 9)) for j, v in enumerate(row)]
                for i, row in enumerate(vals)]
    return [[[float(v[0]), float(v[1])] for v in row] for row in vals]


class TestMatrixFastPath:
    @pytest.mark.parametrize("kind", ["real", "complex", "int", "bool", "mixed"])
    @pytest.mark.parametrize("n", [1, 2, 3, 7])
    def test_same_bits_as_entry_by_entry(self, kind, n, monkeypatch):
        by_entry = serialization._matrix_by_entry
        if kind != "bool":  # numpy reads bools as bool, which goes entry by entry

            def refused(rows):
                raise AssertionError("a well-formed list left the vectorised path")

            monkeypatch.setattr(serialization, "_matrix_by_entry", refused)
        rng = np.random.default_rng(n * 10 + len(kind))
        for _ in range(5):
            rows = json.loads(json.dumps(_random_rows(rng, kind, n)))
            fast = _parse_outcome(matrix_from_json, rows)
            assert fast == _parse_outcome(by_entry, rows)
            assert fast[1] == (n, n)

    @pytest.mark.parametrize(
        "rows",
        [
            [[1, 0], [0]],
            [[1, 0, 2], [0, 1, 3]],
            [[1, 2]],
            [[[1, 2], [3, 4, 5]], [[1, 2], [3, 4]]],
            [[[1, 2, 3], [3, 4, 5]], [[1, 2, 3], [3, 4, 5]]],
            [[1, [1, 2]], [1, 2]],
            [[1, "2"], [3, 4]],
            [["x"]],
            [[None]],
            [[1.0, 10**400]],
            [[2**64]],
            [[2**63 + 1, 3], [5, 2**64 - 1]],
            [[True, 2], [0, False]],
            [[[[1, 2]]]],
            [],
            [[]],
            [[[]]],
            5,
            "ab",
            {"a": 1},
            None,
        ],
    )
    def test_edge_inputs_parse_alike(self, rows):
        fast = _parse_outcome(matrix_from_json, rows)
        assert fast == _parse_outcome(serialization._matrix_by_entry, rows)


class TestTripleRoundTrip:
    def test_bit_exact(self):
        t = random_triple(4, seed=5, group="z2")
        text = dumps_canonical(triple_to_json(t))
        t2 = triple_from_json(json.loads(text))
        assert np.array_equal(t2.Q, t.Q)
        assert np.array_equal(t2.gamma, t.gamma)
        assert len(t2.group) == 2
        assert np.array_equal(t2.group[1], t.group[1])
        assert t2.tol == t.tol

    def test_missing_key(self):
        with pytest.raises(DimensionMismatch):
            triple_from_json({"dim": 2, "Q": [[0, 1], [1, 0]]})

    def test_default_group_is_identity(self):
        t = triple_from_json(
            {"dim": 2, "Q": [[0, 1], [1, 0]], "gamma": [[1, 0], [0, -1]]}
        )
        assert len(t.group) == 1
        assert np.array_equal(t.group[0], np.eye(2))

    def test_cyclic_shorthand(self):
        gen = [[0, -1], [1, 0]]  # rotation by pi/2, order 4
        t = triple_from_json(
            {
                "dim": 2,
                "Q": [[0, 0], [0, 0]],
                "gamma": [[1, 0], [0, 1]],
                "group": {"cyclic": 4, "generator": gen},
            }
        )
        assert len(t.group) == 4
        g = np.array(gen, dtype=complex)
        assert np.array_equal(t.group[0], np.eye(2))
        assert np.array_equal(t.group[2], g @ g)

    def test_split_parsing(self):
        doc = {
            "dim": 2,
            "Q1": [[0, 1], [1, 0]],
            "Q2": [[0, [0, -1]], [[0, 1], 0]],
            "gamma": [[1, 0], [0, -1]],
        }
        s = split_from_json(doc)
        assert opnorm(s.Q1 @ s.Q2 + s.Q2 @ s.Q1) < 1e-14


class TestHeatDataRoundTrip:
    """Every HeatData kind survives its codec and the canonical text bit for bit."""

    @staticmethod
    def assert_bitwise(a, b):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        dim=st.integers(1, 8),
        group=st.sampled_from(["trivial", "z2"]),
        seed=st.integers(0, 2**16),
        tol=st.floats(1e-14, 1e-6),
        split=st.booleans(),
    )
    def test_lossless(self, dim, group, seed, tol, split):
        t = random_triple(dim, seed=seed, group=group, tol=tol)
        if split:
            rng = np.random.default_rng(seed)
            q2 = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            h = SplitTriple(dim=dim, Q1=t.Q, Q2=q2, gamma=t.gamma, group=t.group, tol=tol)
            to_json, from_json = split_to_json, split_from_json
        else:
            h, to_json, from_json = t, triple_to_json, triple_from_json
        back = from_json(json.loads(dumps_canonical(to_json(h))))
        assert type(back) is type(h)
        assert back.dim == h.dim
        assert back.tol == h.tol
        for name in h.GENERATORS + ("gamma",):
            self.assert_bitwise(getattr(back, name), getattr(h, name))
        assert len(back.group) == len(h.group)
        for u, v in zip(back.group, h.group):
            self.assert_bitwise(u, v)

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"dim": [2]}, "dim must be a number, got [2]"),
            ({"dim": float("inf")}, "dim must be a number, got inf"),
            ({"tol": "small"}, "tol must be a number, got 'small'"),
        ],
        ids=["list", "infinite", "string"],
    )
    def test_non_numeric_field(self, doc, message):
        # the null fields are covered through the CLI in test_cli
        base = {"dim": 2, "Q": [[0, 1], [1, 0]], "gamma": [[1, 0], [0, -1]]}
        with pytest.raises(DimensionMismatch, match=re.escape(message)):
            triple_from_json({**base, **doc})

    @pytest.mark.parametrize("doc", [None, 5, [1, 2]])
    def test_non_object(self, doc):
        with pytest.raises(DimensionMismatch, match="split JSON must be an object"):
            split_from_json(doc)


class TestCanonicalDumps:
    def test_seventeen_digit_round_trip(self):
        vals = [1.0 / 3.0, 2.0**-52, 1e300, -0.1, 6.283185307179586]
        text = dumps_canonical(vals)
        back = json.loads(text)
        assert back == vals

    def test_numpy_scalars(self):
        doc = {
            "f": np.float64(0.25),
            "i": np.int64(3),
            "b": np.bool_(True),
            "z": np.complex128(1 + 2j),
        }
        text = dumps_canonical(doc)
        assert json.loads(text) == {"f": 0.25, "i": 3, "b": True, "z": [1.0, 2.0]}

    def test_deterministic(self):
        doc = {"a": [0.1, 0.2], "b": {"c": 3}}
        assert dumps_canonical(doc) == dumps_canonical(doc)

    def test_non_finite_floats_are_strings(self):
        # bare NaN / Infinity tokens are not JSON; every non-finite float
        # is written as a string that float() reads back
        def reject(token):
            raise ValueError(f"non-JSON constant {token}")

        text = dumps_canonical({"a": float("nan"), "b": np.inf, "c": -np.inf})
        assert text == '{"a":"NaN","b":"Infinity","c":"-Infinity"}'
        doc = json.loads(text, parse_constant=reject)
        assert np.isnan(float(doc["a"]))
        assert float(doc["b"]) == np.inf
        assert float(doc["c"]) == -np.inf

    def test_negative_zero_keeps_its_sign(self):
        text = dumps_canonical([-0.0, 0.0, complex(0.0, -0.0)])
        assert text == "[-0.0,0,[0,-0.0]]"
        back = json.loads(text)
        assert math.copysign(1.0, back[0]) == -1.0
        assert math.copysign(1.0, back[2][1]) == -1.0

    def test_complex_is_pair(self):
        assert dumps_canonical(1 - 2j) == "[1,-2]"

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        st.recursive(
            st.none()
            | st.booleans()
            | st.integers()
            | st.floats(allow_subnormal=True)
            | st.complex_numbers(),
            lambda inner: st.lists(inner, max_size=4)
            | st.dictionaries(st.text(max_size=4), inner, max_size=4),
            max_leaves=12,
        )
    )
    def test_payload_round_trip(self, payload):
        # floats come back bitwise (signed zeros, subnormals and infinities
        # included; every NaN reads back as NaN), an integral float may come
        # back as the equal int, complexes as [re, im], dict keys in order
        def same(x, back):
            if isinstance(x, bool) or x is None:
                assert back is x
            elif isinstance(x, int):
                assert type(back) is int and back == x
            elif isinstance(x, float):
                assert type(back) in (int, float, str)
                y = float(back)
                if math.isnan(x):
                    assert back == "NaN"
                else:
                    assert type(back) is not int or x.is_integer()
                    assert np.float64(y).tobytes() == np.float64(x).tobytes()
            elif isinstance(x, complex):
                assert isinstance(back, list) and len(back) == 2
                same(x.real, back[0])
                same(x.imag, back[1])
            elif isinstance(x, list):
                assert isinstance(back, list) and len(back) == len(x)
                for a, b in zip(x, back):
                    same(a, b)
            else:
                assert isinstance(back, dict) and list(back) == list(x)
                for k in x:
                    same(x[k], back[k])

        same(payload, json.loads(dumps_canonical(payload)))


class TestCsv:
    def test_format(self):
        rows = [["lambda", "re(value)"], [0.5, 1.0 / 3.0], [1.0, 2.0]]
        text = csv_text(rows)
        lines = text.strip().split("\n")
        assert lines[0] == "lambda,re(value)"
        assert lines[1].split(",")[1] == format(1.0 / 3.0, ".17g")

    def test_none_becomes_empty(self):
        assert csv_text([[None, 1]]).strip() == ",1"

    def test_floats_are_the_json_tokens_unquoted(self):
        # negative zero used to be written "-0", which reads back as +0
        text = csv_text([[-0.0, 0.0, float("nan"), np.inf, -np.inf]])
        assert text == "-0.0,0,NaN,Infinity,-Infinity\n"
        assert math.copysign(1.0, float(text.split(",")[0])) == -1.0
