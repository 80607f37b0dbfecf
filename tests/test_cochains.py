import numpy as np
import pytest

from heatchern.cochains import (
    Cochain,
    check_cochain_invariants,
    cocycle_residual,
    norm_profile,
    op_A,
    op_B,
    op_T,
    op_U,
    op_V,
    op_b,
    op_partial,
    op_partial_bar,
    random_cochain,
)
from heatchern.errors import ClassViolation, DimensionMismatch
from heatchern.expectations import expectation_value
from heatchern.models import random_triple, zero_mode_triple


@pytest.fixture
def setup():
    t = random_triple(3, seed=77, group="z2")
    G = random_cochain(t, seed=78, max_level=7)
    fN = op_U(G)
    rng = np.random.default_rng(79)

    def even(count):
        out = []
        for _ in range(count):
            raw = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            out.append((raw + t.conj_gamma(raw)) / 2)
        return tuple(out)

    return t, G, fN, even


class TestElementaryOperators:
    def test_T_level_zero(self, setup):
        t, G, fN, even = setup
        (a0,) = even(1)
        tf = op_T(fN)
        expected = fN(0, (t.conj_group_inv(a0, 1),), 1)
        assert tf(0, (a0,), 1) == pytest.approx(expected)

    def test_T_sign_trivial_group(self, setup):
        t, G, fN, even = setup
        a0, a1 = even(2)
        tf = op_T(fN)
        assert tf(1, (a0, a1), 0) == pytest.approx(-fN(1, (a1, a0), 0))

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_T_power_identity(self, setup, n):
        t, G, fN, even = setup
        mats = even(n + 1)
        f = fN
        for _ in range(n + 1):
            f = op_T(f)
        for g in range(2):
            assert f(n, mats, g) == pytest.approx(fN(n, mats, g), abs=1e-12)

    def test_UV_is_identity(self, setup):
        t, G, fN, even = setup
        mats = even(3)
        uv = op_U(op_V(0, G))
        assert uv(2, mats, 1) == pytest.approx(G(2, mats, 1), abs=1e-12)

    @pytest.mark.parametrize("r", [1, 2])
    def test_UV_r_anticommutation(self, setup, r):
        t, G, fN, even = setup
        n = 2
        mats = even(n + 1)
        lhs = op_U(op_V(r, G))(n, mats, 0)
        rhs = op_V(r - 1, op_U(G))(n, mats, 0)
        assert abs(lhs + rhs) < 1e-12

    def test_UV_top_is_minus_T(self, setup):
        t, G, fN, even = setup
        n = 2
        mats = even(n + 1)
        lhs = op_U(op_V(n + 1, fN))(n, mats, 1)
        rhs = op_T(fN)(n, mats, 1)
        assert abs(lhs + rhs) < 1e-12

    @pytest.mark.parametrize("r,s", [(0, 0), (0, 1), (1, 2), (2, 3)])
    def test_V_anticommutation(self, setup, r, s):
        t, G, fN, even = setup
        mats = even(5)
        lhs = op_V(r, op_V(s, G))(4, mats, 0)
        rhs = op_V(s + 1, op_V(r, G))(4, mats, 0)
        assert abs(lhs + rhs) < 1e-12

    def test_A_equals_sum_of_T_powers(self, setup):
        t, G, fN, even = setup
        n = 2
        mats = even(n + 1)
        direct = op_A(fN)(n, mats, 1)
        acc = 0.0
        f = fN
        for _ in range(n + 1):
            acc += f(n, mats, 1)
            f = op_T(f)
        assert direct == pytest.approx(acc, abs=1e-12)


class TestCoboundaries:
    def test_b_of_trace_vanishes(self, setup):
        t, G, fN, even = setup

        def tr(n, mats, g):
            assert n == 0
            return complex(np.trace(mats[0]))

        f = Cochain(tr, t.group, 0, "C")
        a0, a1 = even(2)
        assert abs(op_b(f)(1, (a0, a1), 0)) < 1e-13

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_b_squared(self, setup, m):
        t, G, fN, even = setup
        mats = even(m + 2)
        assert abs(op_b(op_b(G))(m + 1, mats, 1)) < 1e-10

    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_B_squared(self, setup, m):
        t, G, fN, even = setup
        mats = even(m + 1)
        assert abs(op_B(op_B(G))(m, mats, 1)) < 1e-10

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_bB_plus_Bb(self, setup, m):
        t, G, fN, even = setup
        mats = even(m + 1)
        val = op_b(op_B(G))(m, mats, 0) + op_B(op_b(G))(m, mats, 0)
        assert abs(val) < 1e-10

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_partial_squared(self, setup, m):
        t, G, fN, even = setup
        mats = even(m + 1)
        assert abs(op_partial(op_partial(G))(m, mats, 1)) < 1e-10

    @pytest.mark.parametrize("m", [1, 2])
    def test_partial_bar_squared(self, setup, m):
        t, G, fN, even = setup
        mats = even(m + 1)
        assert abs(op_partial_bar(op_partial_bar(G))(m, mats, 0)) < 1e-10

    @pytest.mark.parametrize("m", [1, 2])
    def test_partial_and_partial_bar_differ_in_the_sign_of_B(self, setup, m):
        t, G, fN, even = setup
        mats = even(m + 1)
        b, B = op_b(G)(m, mats, 1), op_B(G)(m, mats, 1)
        assert abs(B) > 1e-6
        assert op_partial(G)(m, mats, 1) == b + B
        assert op_partial_bar(G)(m, mats, 1) == b - B

    def test_b_preserves_class_C(self, setup):
        t, G, fN, even = setup
        bf = op_b(G)
        mats = even(3)
        ident = np.eye(3, dtype=complex)
        for slot in (1, 2):
            probe = mats[:slot] + (ident,) + mats[slot + 1 :]
            assert abs(bf(2, probe, 0)) < 1e-11

    def test_B_lands_in_N(self, setup):
        t, G, fN, even = setup
        Bf = op_B(G)
        mats = even(2)
        ident = np.eye(3, dtype=complex)
        assert abs(Bf(1, (ident,) + mats[1:], 0)) < 1e-11


class TestRandomCochain:
    def test_level_zero_definition(self, setup):
        t, G, fN, even = setup
        # level 0 evaluator is the bare expectation of c_0 a_0
        val = G(0, (np.eye(3, dtype=complex),), 0)
        assert abs(val) > 0

    def test_identity_slot_vanishing(self, setup):
        t, G, fN, even = setup
        mats = even(3)
        ident = np.eye(3, dtype=complex)
        probe = mats[:2] + (ident,)
        assert G(2, probe, 0) == 0.0

    def test_diagonal_invariance(self, setup):
        t, G, fN, even = setup
        rep = check_cochain_invariants(G, t, seed=5, levels=(1, 2), samples=2)
        assert rep.passed

    def test_wrong_class_detected(self, setup):
        t, G, fN, even = setup
        liar = Cochain(G.evaluator, G.group, G.max_level, "N")
        rep = check_cochain_invariants(liar, t, seed=5, levels=(1,), samples=1)
        assert not rep.passed

    def test_T_raises_on_non_annihilating(self, setup):
        t, G, fN, even = setup
        mats = even(2)
        with pytest.raises(ClassViolation):
            op_T(G)(1, mats, 0)

    def test_level_bounds_enforced(self, setup):
        t, G, fN, even = setup
        with pytest.raises(DimensionMismatch):
            G(8, even(9), 0)
        with pytest.raises(DimensionMismatch):
            G(1, even(3), 0)


class TestCocycleResidual:
    def test_random_cochain_is_not_a_cocycle(self, setup):
        t, G, fN, even = setup
        assert cocycle_residual(G, t, samples=2, levels=(1, 2), seed=3) > 1e-6

    def test_coboundary_is_a_cocycle(self, setup):
        t, G, fN, even = setup
        dG = op_partial(G)
        assert cocycle_residual(dG, t, samples=2, levels=(1, 2), seed=3) < 1e-9

    def test_character_is_a_cocycle(self, setup):
        from heatchern.jlo import jlo_cochain

        t, G, fN, even = setup
        tau = jlo_cochain(t)
        assert cocycle_residual(tau, t, samples=3, levels=(1, 2, 3), seed=4) < 1e-8


class TestLevelsAboveMaxLevel:
    # each used to skip such a level, so the residual read 0.0, a pass
    @pytest.fixture
    def cut(self):
        t = zero_mode_triple()
        return random_cochain(t, 1, max_level=3), t

    def test_cocycle_residual_raises(self, cut):
        f, t = cut
        assert cocycle_residual(f, t, levels=(1, 2)) == pytest.approx(0.7210, abs=1e-4)
        with pytest.raises(DimensionMismatch, match=r"^level 5 outside \[0, 4\]$"):
            cocycle_residual(f, t, levels=(5, 6))

    def test_norm_profile_raises(self, cut):
        f, t = cut
        with pytest.raises(DimensionMismatch, match=r"^level 4 outside \[0, 3\]$"):
            norm_profile(f, t, levels=(3, 4))

    def test_invariant_check_raises(self, cut):
        f, t = cut
        with pytest.raises(DimensionMismatch, match=r"^level 4 outside \[0, 3\]$"):
            check_cochain_invariants(f, t, levels=(1, 4))


class TestEmptySampling:
    # a check that samples nothing used to read 0.0 or pass, on a non-cocycle
    @pytest.fixture
    def non_cocycle(self):
        t = random_triple(3, seed=1)
        f = random_cochain(t, seed=2)
        assert cocycle_residual(f, t, samples=5) > 0.1
        return f, t

    @pytest.mark.parametrize(
        "kw", [{"samples": 0}, {"samples": -1}, {"levels": ()}], ids=["zero", "negative", "no-level"]
    )
    def test_norm_profile_raises(self, non_cocycle, kw):
        f, t = non_cocycle
        with pytest.raises(ValueError, match="need samples >= 1 and a level"):
            norm_profile(f, t, **{"levels": (0, 1), **kw})
        with pytest.raises(ValueError, match="need samples >= 1 and a level"):
            cocycle_residual(f, t, **kw)

    @pytest.mark.parametrize("kw", [{"samples": 0}, {"levels": ()}], ids=["zero", "no-level"])
    def test_invariant_check_raises(self, non_cocycle, kw):
        f, t = non_cocycle
        with pytest.raises(ValueError, match="need samples >= 1 and a level"):
            check_cochain_invariants(f, t, **kw)


class TestNormProfile:
    def test_profile_decays(self, setup):
        t, G, fN, even = setup
        prof = norm_profile(G, t, levels=(1, 2, 3, 4), seed=6, samples=4)
        values = dict(prof.levels)
        assert values[4] < values[1]
        seq = prof.decay_sequence()
        assert len(seq) == 4
