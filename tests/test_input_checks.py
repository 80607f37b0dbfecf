"""Argument checks across the package: each bad argument raises its own
named error with its own message, before any arithmetic on it."""

import math
import re

import numpy as np
import pytest

from heatchern.cochains import Cochain, op_b, op_V
from heatchern.errors import BadExponent, ClassViolation, DimensionMismatch, ValidationFailure
from heatchern.expectations import (
    ExpectationValue,
    VertexSet,
    bound_expectation,
    expectation_value,
    heat_expectation,
)
from heatchern.jlo import PairingInput, jlo_cochain, jlo_component, pairing_series
from heatchern.linalg import simplex_exp
from heatchern.models import random_triple, zero_mode_triple
from heatchern.serialization import dumps_canonical, matrix_from_json
from heatchern.split import build_n2_susy_example, coupling_sweep
from heatchern.triples import (
    SpectralTriple,
    VertexType,
    algebraic_singular_integral,
    beta_fn,
    regularity_exponents,
)

I3 = np.eye(3, dtype=complex)


CASES = {
    "heat-expectation-method": (
        lambda t: heat_expectation(t, [I3], method="bogus"),
        ValueError, "unknown method 'bogus'"),
    "coupling-sweep-mode": (
        lambda t: coupling_sweep(lambda lam: t, PairingInput(a=I3), [0.0], mode="bogus"),
        ValueError, "unknown mode 'bogus'"),
    "cochain-class": (
        lambda t: Cochain(lambda n, mats, g: 0j, t.group, 2, cclass="X"),
        ValueError, "unknown class 'X'"),
    "b-of-class-D": (
        lambda t: op_b(Cochain(lambda n, mats, g: 0j, t.group, 2, cclass="D")),
        ClassViolation, "b needs a class-C cochain, got class D"),
    "V-negative": (
        lambda t: op_V(-1, jlo_cochain(t)),
        ValueError, "r must be nonnegative, got -1"),
    "b-at-level-0": (
        lambda t: op_b(jlo_cochain(t))(0, [I3]),
        DimensionMismatch, "b has no component at level 0"),
    "V-above-output-level": (
        lambda t: op_V(3, jlo_cochain(t))(1, [I3, I3]),
        DimensionMismatch, "V(3) undefined at output level 1"),
    "expectation-no-vertex": (
        lambda t: expectation_value(t, []),
        DimensionMismatch, "need at least one vertex"),
    "vertex-set-types": (
        lambda t: VertexSet([I3, I3], types=[VertexType()]),
        DimensionMismatch, "types list must match vertices"),
    "negative-error": (
        lambda t: ExpectationValue(0j, "exact", -1.0),
        ValueError, "estimated_error must be nonnegative"),
    "bound-mu": (
        lambda t: bound_expectation(t, VertexSet([I3]), mu=1),
        BadExponent, "mu must lie in (0, 1), got 1"),
    "jlo-tuple-length": (
        lambda t: jlo_component(t, 1, [I3]),
        DimensionMismatch, "level 1 needs 2 elements, got 1"),
    "simplex-no-point": (
        lambda t: simplex_exp([]),
        DimensionMismatch, "points must be a nonempty 1-d real vector"),
    "simplex-infinite": (
        lambda t: simplex_exp([math.inf]),
        ValueError, "points contain non-finite entries"),
    "random-triple-group": (
        lambda t: random_triple(2, group="bogus"),
        ValueError, "unknown group kind 'bogus'"),
    "matrix-entry": (
        lambda t: matrix_from_json([["x"]]),
        DimensionMismatch, "cannot parse complex scalar from 'x'"),
    "matrix-not-square": (
        lambda t: matrix_from_json([[1, 2]]),
        DimensionMismatch, "matrix must be square, got shape (1, 2)"),
    "dumps-object": (
        lambda t: dumps_canonical(object()),
        TypeError, "cannot serialize object"),
    "n2-no-level": (
        lambda t: build_n2_susy_example(levels=()),
        DimensionMismatch, "need at least one (h, p) level"),
    "n2-outside-cone": (
        lambda t: build_n2_susy_example(levels=((0.5, 1.0),)),
        ValidationFailure, "level (h=0.5, p=1.0) violates h >= |p|"),
    "beta-fn-empty": (
        lambda t: beta_fn([]),
        DimensionMismatch, "need at least one exponent"),
    "singular-integral-power": (
        lambda t: algebraic_singular_integral(lambda u: 1.0, -1.0, 0.0),
        BadExponent, "powers must exceed -1, got (-1.0, 0.0)"),
    "regularity-no-type": (
        lambda t: regularity_exponents([]),
        DimensionMismatch, "need at least one vertex type"),
    "vertex-type-negative": (
        lambda t: VertexType(-0.1),
        BadExponent, "vertex type must be nonnegative"),
}


@pytest.mark.parametrize("name", list(CASES))
def test_bad_argument_raises(zero_mode, name):
    call, error, message = CASES[name]
    with pytest.raises(error, match=re.escape(message)):
        call(zero_mode)


def test_tail_bound_is_inf_where_the_bound_overflows():
    # Q scaled by 40 on the zero-mode triple, a swapping the zero mode with a
    # mode of Q^2 = 1600: x = ||da||^2 / 4 = 800, so s e^x leaves the float
    # range while the level-2 terms stay finite
    t = zero_mode_triple()
    wide = SpectralTriple(dim=3, Q=40.0 * t.Q, gamma=t.gamma, group=list(t.group))
    a = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]], dtype=complex)
    value, level, tail = pairing_series(wide, PairingInput(a=a), max_level=2)
    assert level == 2 and math.isfinite(abs(value))
    assert tail == math.inf
