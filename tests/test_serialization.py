import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
