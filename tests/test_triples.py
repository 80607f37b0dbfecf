import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import heatchern
from heatchern.errors import (
    BadExponent,
    DimensionMismatch,
    NotHermitian,
    Overflow,
    ValidationFailure,
)
from heatchern.expectations import expectation_value
from heatchern.homotopy import DeformationFamily
from heatchern.linalg import opnorm
from heatchern.models import random_triple
from heatchern.split import build_n2_susy_example, d1
from heatchern.triples import (
    AlgebraElement,
    SpectralTriple,
    VertexType,
    algebraic_singular_integral,
    derivative,
    interpolation_norm,
    kato_constants,
    numeric_c_mu,
    regularity_exponents,
    require_valid,
    sobolev_norm,
    validate_triple,
)


class TestValidation:
    def test_exchange_passes(self, exchange):
        assert validate_triple(exchange).passed

    def test_anticommutation_failure(self):
        gam = np.diag([1.0, -1.0]).astype(complex)
        t = SpectralTriple(dim=2, Q=gam.copy(), gamma=gam, group=[np.eye(2)])
        rep = validate_triple(t)
        assert not rep.passed
        failed = {c.name: c.residual for c in rep.failures}
        assert failed["Q gamma + gamma Q = 0"] == pytest.approx(2.0)

    def test_zero_mode_passes(self, zero_mode):
        assert validate_triple(zero_mode).passed

    def test_require_names_the_failures(self):
        gam = np.diag([1.0, -1.0]).astype(complex)
        t = SpectralTriple(dim=2, Q=gam.copy(), gamma=gam, group=[np.eye(2)])
        with pytest.raises(ValidationFailure) as exc:
            require_valid(t)
        assert str(exc.value) == (
            "triple fails validation:\n"
            "[FAIL] Q gamma + gamma Q = 0: residual 2.000e+00 (tol 1.000e-10)"
        )
        assert exc.value.report.failures[0].name == "Q gamma + gamma Q = 0"

    def test_z2_group_passes(self):
        t = random_triple(4, seed=7, group="z2")
        assert len(t.group) == 2
        assert validate_triple(t).passed

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "gamma, group, check",
        [([1e308, -1.0], [1.0, -1.0], "gamma^2 = I"), ([1.0, -1.0], [1e308, 1.0], "group[1] unitary")],
        ids=["gamma", "group"],
    )
    def test_residual_past_the_float_range_reads_inf(self, gamma, group, check):
        # the squares overflowed with a RuntimeWarning and read "residual nan"
        x = np.array([[0.0, 1.0], [1.0, 0.0]])
        t = SpectralTriple(dim=2, Q=x, gamma=np.diag(gamma), group=[np.eye(2), np.diag(group)])
        failed = {c.name: c.residual for c in validate_triple(t).failures}
        assert failed[check] == math.inf

    def test_check_names_in_order(self):
        rep = validate_triple(random_triple(3, seed=7, group="z2"))
        member = ["unitary", "commutes with gamma", "commutes with Q"]
        assert [c.name for c in rep.checks] == [
            "Q hermitian",
            "gamma hermitian",
            "gamma^2 = I",
            "Q gamma + gamma Q = 0",
            "group[0] = I",
            *(f"group[{k}] {m}" for k in range(2) for m in member),
        ]


class TestHeatData:
    def test_lift_scales_generator_and_derivation(self):
        t = random_triple(3, seed=5)
        lift = t.lifted(2, 0.5)
        assert lift.dim == 6
        q2 = np.kron(np.eye(2), t.Q @ t.Q)
        assert opnorm(lift.hamiltonian - 0.5 * q2) < 1e-12 * opnorm(q2)
        b = np.kron(np.eye(2), np.diag([1.0, 2.0, 3.0]))
        db = np.kron(np.eye(2), derivative(t, np.diag([1.0, 2.0, 3.0])))
        assert opnorm(lift.derive(b) - math.sqrt(0.5) * db) < 1e-12 * opnorm(db)

    def test_trivial_lift_is_the_same_data(self, zero_mode):
        assert zero_mode.lifted(1, 1.0) is zero_mode

    def test_block_heat_trace(self, zero_mode):
        assert zero_mode.lifted(3).heat_trace(0) == pytest.approx(
            3 * zero_mode.heat_trace(0), abs=1e-12
        )

    @pytest.mark.parametrize("beta", [0.0, -1.0, float("nan")])
    def test_lift_rejects_nonpositive_plane(self, zero_mode, beta):
        with pytest.raises(BadExponent, match="beta_plane must be positive"):
            zero_mode.lifted(1, beta)

    def test_lift_rejects_infinite_plane(self, zero_mode):
        # sqrt(inf) times the zero entries of Q used to warn and give NaN
        with pytest.raises(BadExponent, match="beta_plane must be finite, got inf"):
            zero_mode.lifted(1, math.inf)

    def test_empty_group_is_named(self):
        # validate_triple and validate_split used to raise a bare IndexError
        x, z = np.array([[0.0, 1.0], [1.0, 0.0]]), np.diag([1.0, -1.0])
        with pytest.raises(DimensionMismatch, match="group is empty"):
            SpectralTriple(dim=2, Q=x, gamma=z, group=[])
        s, _ = build_n2_susy_example(levels=((1.0, 0.5),))
        with pytest.raises(DimensionMismatch, match="group is empty"):
            replace(s, group=[])

    @pytest.mark.filterwarnings("error")
    def test_overflowing_generator_is_named(self):
        # H = Q^2 used to overflow with a RuntimeWarning into non-finite entries
        x, z = np.array([[0.0, 1e160], [1e160, 0.0]]), np.diag([1.0, -1.0])
        t = SpectralTriple(dim=2, Q=x, gamma=z, group=[np.eye(2)])
        with pytest.raises(Overflow, match="generator H has non-finite entries"):
            t.heat_data()


class TestDerivative:
    def test_identity(self, exchange):
        assert opnorm(derivative(exchange, np.eye(2))) == 0.0

    def test_gamma_hand_computed(self, exchange):
        expected = np.array([[0.0, -2.0], [2.0, 0.0]], dtype=complex)
        assert np.allclose(derivative(exchange, exchange.gamma), expected)

    @pytest.mark.parametrize("seed", range(5))
    def test_leibniz(self, seed):
        t = random_triple(4, seed=seed)
        rng = np.random.default_rng(seed + 50)
        raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        a = (raw + t.conj_gamma(raw)) / 2
        raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        b = (raw + t.conj_gamma(raw)) / 2
        lhs = derivative(t, a @ b)
        rhs = derivative(t, a) @ b + a @ derivative(t, b)
        assert opnorm(lhs - rhs) < 1e-12 * max(opnorm(rhs), 1.0)

    def test_derivative_is_gamma_odd(self, rng):
        t = random_triple(5, seed=3)
        raw = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        a = (raw + t.conj_gamma(raw)) / 2
        da = derivative(t, a)
        assert opnorm(t.conj_gamma(da) + da) < 1e-12 * opnorm(da)

    def test_commutes_with_group_conjugation(self):
        t = random_triple(4, seed=9, group="z2")
        rng = np.random.default_rng(90)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        u = t.group[1]
        lhs = derivative(t, u @ a @ u.conj().T)
        rhs = u @ derivative(t, a) @ u.conj().T
        assert opnorm(lhs - rhs) < 1e-12 * max(opnorm(rhs), 1.0)


class TestSobolevNorm:
    def test_identity(self, zero_mode):
        for p in (0.0, 0.5, 1.0):
            assert sobolev_norm(zero_mode, np.eye(3), p, p) == pytest.approx(1.0)

    def test_q_is_sub_unit(self, zero_mode):
        val = sobolev_norm(zero_mode, zero_mode.Q, 0.0, 1.0)
        assert val <= 1.0 + 1e-12

    def test_zero_scales_give_operator_norm(self, rng, zero_mode):
        x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        assert sobolev_norm(zero_mode, x, 0.0, 0.0) == pytest.approx(
            opnorm(x), rel=1e-12
        )


class TestCMu:
    def test_companion_integral(self):
        val = 2.0 * algebraic_singular_integral(lambda u: 1.0, -0.5, -0.5)
        assert val == pytest.approx(2.0 * math.pi, abs=1e-8)

    @pytest.mark.parametrize("mu", [0.0, 0.25, 0.5, 0.75, 0.9])
    def test_inner_integral_closed_form(self, mu):
        # independent oracle: 2 delta B(1 - delta/2, (1-mu)/2) via Gamma
        for delta in (0.2, 0.6, 1.0):
            got = 2.0 * delta * algebraic_singular_integral(
                lambda u: 1.0, -delta / 2.0, (1.0 - mu) / 2.0 - 1.0
            )
            exact = (
                2.0
                * delta
                * math.gamma(1.0 - delta / 2.0)
                * math.gamma((1.0 - mu) / 2.0)
                / math.gamma(1.0 - delta / 2.0 + (1.0 - mu) / 2.0)
            )
            assert got == pytest.approx(exact, rel=1e-10)

    @pytest.mark.parametrize("mu", [0.0, 0.3, 0.6, 0.9, 0.99])
    def test_c_mu_is_the_delta_one_value(self, mu):
        # 2 delta B(1 - delta/2, (1-mu)/2) increases in delta, so the sup is at 1
        exact = 2.0 * math.gamma(0.5) * math.gamma((1.0 - mu) / 2.0) / math.gamma(1.0 - mu / 2.0)
        assert numeric_c_mu(mu) == pytest.approx(exact, rel=1e-12)
        # the quadrature engine is the independent oracle for the closed form
        quad = 2.0 * algebraic_singular_integral(lambda u: 1.0, -0.5, (1.0 - mu) / 2.0 - 1.0)
        assert numeric_c_mu(mu) == pytest.approx(quad, rel=1e-12)

    def test_lower_bound_and_monotonicity(self):
        vals = [numeric_c_mu(mu) for mu in (0.0, 0.3, 0.6, 0.9)]
        assert all(v >= 2.0 * math.pi - 1e-10 for v in vals)
        assert all(b >= a - 1e-10 for a, b in zip(vals, vals[1:]))

    def test_mu_zero_value(self):
        assert numeric_c_mu(0.0) == pytest.approx(2.0 * math.pi, rel=1e-8)

    def test_bad_mu(self):
        with pytest.raises(BadExponent):
            numeric_c_mu(1.0)

    def test_import_leaves_the_integrator_unloaded(self):
        # only algebraic_singular_integral imports scipy, so the package needs numpy alone
        src = str(Path(heatchern.__file__).resolve().parents[1])
        code = (
            "import sys, heatchern, heatchern.cli; "
            "print([m for m in ('scipy.integrate', 'scipy.special') if m in sys.modules])"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


class TestInterpolationNorm:
    def test_identity(self, zero_mode):
        a = AlgebraElement(np.eye(3), "one")
        vt = VertexType(0.2, 0.3)
        assert interpolation_norm(zero_mode, a, vt) == pytest.approx(1.0)

    def test_gamma_on_exchange(self, exchange):
        a = AlgebraElement(exchange.gamma.copy(), "gamma")
        val = interpolation_norm(exchange, a, VertexType(0.0, 0.0))
        # derivative has norm 2, so the value is 1 + 2 c_0
        assert val == pytest.approx(1.0 + 2.0 * numeric_c_mu(0.0), rel=1e-8)

    @pytest.mark.parametrize("seed", range(4))
    def test_submultiplicative(self, seed):
        t = random_triple(4, seed=seed)
        rng = np.random.default_rng(seed + 11)
        vt = VertexType(0.25, 0.25)

        def rand_even():
            raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            return (raw + t.conj_gamma(raw)) / 2

        a, b = AlgebraElement(rand_even()), AlgebraElement(rand_even())
        ab = AlgebraElement(a.matrix @ b.matrix)
        lhs = interpolation_norm(t, ab, vt)
        rhs = interpolation_norm(t, a, vt) * interpolation_norm(t, b, vt)
        assert lhs <= rhs * (1 + 1e-10)

    @pytest.mark.parametrize("seed", range(3))
    def test_dominates_sobolev_scale(self, seed):
        # || x ||_(d,d) <= interpolation norm for 0 <= d <= 1 - beta
        t = random_triple(4, seed=seed + 20)
        rng = np.random.default_rng(seed + 31)
        raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        x = (raw + t.conj_gamma(raw)) / 2
        vt = VertexType(0.3, 0.2)
        bound = interpolation_norm(t, AlgebraElement(x), vt)
        for d in (0.0, 0.35, 0.7):
            assert sobolev_norm(t, x, d, d) <= bound * (1 + 1e-10)

    def test_bad_exponents(self, zero_mode):
        with pytest.raises(BadExponent):
            interpolation_norm(zero_mode, AlgebraElement(np.eye(3)), VertexType(0.6, 0.5))


class TestRegularityExponents:
    def test_bounded_vertices(self):
        rep = regularity_exponents([VertexType(0, 0)] * 4)
        assert rep.etas == [1.0] * 4
        assert rep.eta_local == rep.eta_global == 1.0
        assert rep.regular

    def test_character_vertex_pattern(self):
        beta, alpha = 0.4, 0.3
        types = [VertexType(beta, 0.0)] + [VertexType(beta, alpha)] * 3
        rep = regularity_exponents(types)
        assert rep.etas[0] == pytest.approx(1 - beta / 2)
        for eta in rep.etas[1:]:
            assert eta == pytest.approx(0.5 + (1 - alpha - beta) / 2)
        assert rep.regular

    def test_boundary_case_not_regular(self):
        types = [VertexType(0.0, 1.0), VertexType(1.0, 0.0)]
        rep = regularity_exponents(types)
        assert rep.etas[0] == pytest.approx(0.0)
        assert not rep.regular


class TestKatoConstants:
    def test_zero_perturbation(self, zero_mode):
        curve = kato_constants(zero_mode, np.zeros((3, 3)))
        assert all(a == 0.0 for _, a in curve.points)
        assert curve.achievable_below_one

    def test_q_equals_generator(self, exchange):
        curve = kato_constants(exchange, exchange.Q)
        assert curve.points[0][0] == 0.0
        assert curve.points[0][1] == pytest.approx(1.0, abs=1e-7)

    def test_identity_perturbation(self, exchange):
        curve = kato_constants(exchange, np.eye(2), m_grid=[0.0, 1.0])
        assert curve.a_at(1.0) == pytest.approx(0.0, abs=1e-7)

    def test_kernel_obstruction(self, zero_mode):
        # Q^2 has a kernel, so M = 0 forces a = inf for q = I
        curve = kato_constants(zero_mode, np.eye(3), m_grid=[0.0])
        assert math.isinf(curve.points[0][1])

    def test_not_hermitian(self, exchange):
        q = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(NotHermitian):
            kato_constants(exchange, q)


class TestShapeCheck:
    @pytest.mark.parametrize(
        "site, name, dim",
        [
            ("derivative", "b", 3),
            ("d1", "a", 4),
            ("sobolev_norm", "x", 3),
            ("kato_constants", "q", 3),
            ("expectation_value", "vertex[1]", 3),
            ("q_dot_at", "q_dot(lambda)", 3),
        ],
        ids=["derivative", "d1", "sobolev_norm", "kato_constants", "vertex", "q_dot_at"],
    )
    def test_wrong_shape_names_the_argument(self, zero_mode, site, name, dim):
        # every site raises through triples._check_shape, before any arithmetic
        x = np.eye(2)
        calls = {
            "derivative": lambda: derivative(zero_mode, x),
            "d1": lambda: d1(build_n2_susy_example()[0], x),
            "sobolev_norm": lambda: sobolev_norm(zero_mode, x, 0.0, 1.0),
            "kato_constants": lambda: kato_constants(zero_mode, x),
            "expectation_value": lambda: expectation_value(zero_mode, [np.eye(3), x]),
            "q_dot_at": lambda: DeformationFamily(
                zero_mode, lambda lam: lam * zero_mode.Q, lambda lam: x
            ).q_dot_at(0.0),
        }
        message = f"{name} has shape (2, 2), expected ({dim}, {dim})"
        with pytest.raises(DimensionMismatch, match=re.escape(message)):
            calls[site]()
