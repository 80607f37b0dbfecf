import math

import numpy as np
import pytest

from heatchern.errors import DimensionMismatch, PairingInputInvalid, ValidationFailure
from heatchern.homotopy import (
    DeformationFamily,
    L_cochain,
    beta_independence,
    coboundary_relation_residual,
    deform_triple,
    endpoint_grid,
    h_cochain,
    jlo_lambda_fd_residual,
    linear_family,
    regularity_report,
    sweep_invariant,
)
from heatchern.jlo import PairingInput, jlo_component, pairing_gaussian
from heatchern.linalg import opnorm
from heatchern.models import (
    random_involution,
    random_odd_element,
    random_triple,
    zero_mode_triple,
)


@pytest.fixture
def family():
    t = zero_mode_triple()
    rng = np.random.default_rng(97)
    q = random_odd_element(t, rng)
    q = 0.3 * q / opnorm(q)
    return linear_family(t, q, interval=(-0.6, 0.6))


def even_tuple(t, rng, count):
    out = []
    for _ in range(count):
        raw = rng.normal(size=(t.dim, t.dim)) + 1j * rng.normal(size=(t.dim, t.dim))
        out.append((raw + t.conj_gamma(raw)) / 2)
    return tuple(out)


class TestDeform:
    def test_origin_is_base(self, family):
        t = deform_triple(family, 0.0)
        assert opnorm(t.Q - family.base.Q) == 0.0

    def test_linear_endpoint(self, family):
        t = deform_triple(family, 1.0)
        assert np.allclose(t.Q, family.base.Q + family.q_at(1.0))

    def test_gamma_even_perturbation_rejected(self):
        t = zero_mode_triple()
        fam = linear_family(t, np.eye(3, dtype=complex))
        with pytest.raises(ValidationFailure):
            deform_triple(fam, 0.5)

    def test_family_validation(self, family):
        assert family.validate_at(0.3).passed


class TestRegularityReport:
    def test_small_linear_family(self, family):
        tab = regularity_report(family, np.linspace(-0.5, 0.5, 5))
        for row in tab.rows:
            assert row["fd_vs_qdot"] < 1e-8  # exact velocity on a linear family

    def test_scaling_family(self, exchange):
        # q(lambda) = lambda Q gives the minimal constant |lambda| at M = 0
        fam = linear_family(exchange, exchange.Q.copy(), interval=(-0.5, 0.5))
        tab = regularity_report(fam, [-0.4, 0.2])
        for row in tab.rows:
            assert row["kato_a_at_0"] == pytest.approx(abs(row["lambda"]), abs=1e-6)


class TestSweep:
    def test_constant_family_zero_spread(self, exchange):
        fam = linear_family(exchange, np.zeros((2, 2)))
        inp = PairingInput(a=exchange.gamma.copy())
        tab = sweep_invariant(fam, inp, [0.0, 0.3, 0.6])
        assert tab.spread() == 0.0

    def test_exchange_perturbation_invariance(self, exchange):
        q = np.array([[0.0, 1j], [-1j, 0.0]], dtype=complex)  # gamma-odd hermitian
        fam = linear_family(exchange, 0.4 * q)
        inp = PairingInput(a=exchange.gamma.copy())
        tab = sweep_invariant(fam, inp, np.linspace(-0.5, 0.5, 7))
        assert tab.spread() < 1e-6
        assert all(abs(complex(r["value"]) - 2.0) < 1e-6 for r in tab.rows)

    def test_index_rigidity(self, family):
        inp = PairingInput(a=np.eye(3, dtype=complex))
        tab = sweep_invariant(family, inp, np.linspace(-0.4, 0.4, 5))
        assert tab.spread() < 1e-8
        assert all(abs(complex(r["value"]) - 1.0) < 1e-8 for r in tab.rows)

    def test_invalid_input_aborts(self, family):
        bad = 2.0 * np.eye(3, dtype=complex)
        with pytest.raises(PairingInputInvalid):
            sweep_invariant(family, PairingInput(a=bad), [0.0, 0.1])

    def test_empty_grid_raises(self, family):
        # an empty table has spread 0, which would read as invariance
        inp = PairingInput(a=np.eye(3, dtype=complex))
        with pytest.raises(DimensionMismatch, match="lambda_grid has no points"):
            sweep_invariant(family, inp, [])


class TestLAndH:
    def test_zero_velocity(self, zero_mode, rng):
        fam = DeformationFamily(
            base=zero_mode,
            q=lambda lam: np.zeros((3, 3), dtype=complex),
            q_dot=lambda lam: np.zeros((3, 3), dtype=complex),
        )
        mats = even_tuple(zero_mode, rng, 3)
        assert L_cochain(fam, 0.2)(2, mats, 0) == 0.0
        assert h_cochain(fam, 0.2)(2, mats, 0) == 0.0

    def test_parity(self, family, rng):
        t = family.base
        L = L_cochain(family, 0.1)
        h = h_cochain(family, 0.1)
        assert abs(L(1, even_tuple(t, rng, 2), 0)) < 1e-12
        assert abs(h(2, even_tuple(t, rng, 3), 0)) < 1e-12
        assert abs(h(1, even_tuple(t, rng, 2), 0)) > 0

    @pytest.mark.parametrize("n", [0, 2])
    def test_central_difference(self, family, rng, n):
        mats = even_tuple(family.base, rng, n + 1)
        assert jlo_lambda_fd_residual(family, 0.15, n, mats, step=1e-4) < 1e-5

    def test_coboundary_relation(self, family):
        res = coboundary_relation_residual(
            family, 0.15, samples=3, levels=(0, 1, 2), seed=7
        )
        assert res < 1e-8

    def test_L_pairs_to_zero(self, family):
        # <L, a> = <dh, a> = 0; an involution with a small derivative
        # keeps the series tail below the target at affordable depth
        from heatchern.jlo import pairing_coefficient
        from heatchern.linalg import expm

        s = np.zeros((3, 3), dtype=complex)
        s[0, 1], s[1, 0] = -1j, 1j
        r = expm(0.35j * s)
        a = r @ np.diag([-1.0, 1.0, 1.0]).astype(complex) @ r.conj().T
        L = L_cochain(family, 0.15)
        total = sum(
            pairing_coefficient(k) * L(2 * k, (a,) * (2 * k + 1), 0)
            for k in range(6)
        )
        assert abs(total) < 1e-8

    def test_difference_is_integrated_coboundary(self, family, rng):
        # tau(l2) - tau(l1) pointwise equals the trapezoid integral of dh
        from heatchern.cochains import op_partial

        l1, l2 = -0.2, 0.3
        n = 2
        mats = even_tuple(family.base, rng, n + 1)
        lhs = jlo_component(
            deform_triple(family, l2), n, mats, check_even=False
        ) - jlo_component(deform_triple(family, l1), n, mats, check_even=False)
        grid = np.linspace(l1, l2, 21)
        vals = [op_partial(h_cochain(family, lam))(n, mats, 0) for lam in grid]
        integral = np.trapezoid(vals, grid)
        assert abs(lhs - integral) < 1e-5


class TestBetaIndependence:
    def test_repeated_beta_identical(self, exchange):
        inp = PairingInput(a=exchange.gamma.copy())
        tab = beta_independence(exchange, inp, [1.0, 1.0])
        vals = tab.values()
        assert vals[0] == vals[1]

    def test_zero_mode_identity(self, zero_mode):
        inp = PairingInput(a=np.eye(3, dtype=complex))
        tab = beta_independence(zero_mode, inp, [0.5, 1.0, 2.0])
        assert tab.spread() < 1e-8
        assert all(abs(complex(r["value"]) - 1.0) < 1e-8 for r in tab.rows)

    def test_exchange_gamma(self, exchange):
        inp = PairingInput(a=exchange.gamma.copy())
        tab = beta_independence(exchange, inp, [0.5, 1.0, 2.0])
        assert tab.spread() < 1e-6
        assert all(abs(complex(r["value"]) - 2.0) < 1e-6 for r in tab.rows)

    def test_empty_list_raises(self, exchange):
        inp = PairingInput(a=exchange.gamma.copy())
        with pytest.raises(DimensionMismatch, match="beta_list has no values"):
            beta_independence(exchange, inp, [])


class TestEndpointGrid:
    def make_family(self, reg):
        t = zero_mode_triple()
        rng = np.random.default_rng(41)
        q = random_odd_element(t, rng)
        q = 0.3 * q / opnorm(q)
        return linear_family(t, q, regularizer=reg)

    def test_eps_zero_row_matches_sweep(self):
        fam = self.make_family(np.diag([0.5, 1.0, 1.5]).astype(complex))
        inp = PairingInput(a=np.eye(3, dtype=complex))
        lg = [0.1, 0.3]
        grid = endpoint_grid(fam, [0.0, 0.3], lg, inp)
        sweep = sweep_invariant(fam, inp, lg)
        sweep_vals = {r["lambda"]: r["value"] for r in sweep.rows}
        for row in grid.rows:
            if row["eps"] == 0.0:
                assert abs(row["value"] - sweep_vals[row["lambda"]]) < 1e-10

    def test_zero_regularizer_constant_in_eps(self):
        fam = self.make_family(np.zeros((3, 3), dtype=complex))
        inp = PairingInput(a=np.eye(3, dtype=complex))
        grid = endpoint_grid(fam, [0.0, 0.4, 0.8], [0.2], inp)
        vals = grid.values()
        assert max(abs(vals - vals[0])) < 1e-12

    def test_eps_convergence_monotone(self):
        fam = self.make_family(np.diag([0.5, 1.0, 1.5]).astype(complex))
        rng = np.random.default_rng(43)
        inp = PairingInput(a=random_involution(fam.base, rng))
        lam = 0.25
        grid = endpoint_grid(fam, [0.0, 0.2, 0.4, 0.6], [lam], inp)
        base = [r["value"] for r in grid.rows if r["eps"] == 0.0][0]
        gaps = [abs(r["value"] - base) for r in grid.rows]
        assert all(b >= a - 1e-12 for a, b in zip(gaps, gaps[1:]))

    def test_requires_regularizer(self, family):
        inp = PairingInput(a=np.eye(3, dtype=complex))
        with pytest.raises(ValidationFailure):
            endpoint_grid(family, [0.0], [0.1], inp)

    @pytest.mark.parametrize(
        "eps, lam, name",
        [([], [0.1], "eps_grid"), ([0.0], [], "lambda_grid")],
        ids=["eps", "lambda"],
    )
    def test_empty_grid_raises(self, eps, lam, name):
        # an empty lambda grid used to raise IndexError, an empty eps grid
        # gave an empty table
        fam = self.make_family(np.diag([0.5, 1.0, 1.5]).astype(complex))
        inp = PairingInput(a=np.eye(3, dtype=complex))
        with pytest.raises(DimensionMismatch, match=f"{name} has no points"):
            endpoint_grid(fam, eps, lam, inp)

    def test_fd_estimates_attached(self):
        fam = self.make_family(np.diag([0.5, 1.0, 1.5]).astype(complex))
        inp = PairingInput(a=np.eye(3, dtype=complex))
        grid = endpoint_grid(fam, [0.0, 0.2, 0.4], [0.1, 0.2, 0.3], inp)
        interior = [
            r
            for r in grid.rows
            if r["eps"] == 0.2 and r["lambda"] == pytest.approx(0.2)
        ]
        assert interior and interior[0]["dZ_deps"] is not None
        assert interior[0]["dZ_dlambda"] is not None


class TestSweepTable:
    def test_csv_round_structure(self, exchange):
        inp = PairingInput(a=exchange.gamma.copy())
        tab = beta_independence(exchange, inp, [0.5, 1.0])
        rows = tab.to_csv_rows()
        assert rows[0] == ["beta", "re(value)", "im(value)"]
        assert len(rows) == 3

    def test_jsonable(self, exchange):
        inp = PairingInput(a=exchange.gamma.copy())
        tab = beta_independence(exchange, inp, [0.5, 1.0])
        doc = tab.to_jsonable()
        assert doc["columns"] == ["beta", "value"]
        assert isinstance(doc["rows"][0]["value"], list)
