import math
from dataclasses import replace

import numpy as np
import pytest

from heatchern import homotopy
from heatchern.errors import (
    BadExponent,
    ComplexityCap,
    DimensionMismatch,
    PairingInputInvalid,
    ValidationFailure,
)
from heatchern.homotopy import (
    DeformationFamily,
    _Regularized,
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
from heatchern.split import build_n2_susy_example, coupling_sweep


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

    def test_check_names_in_order(self):
        t = random_triple(3, seed=5, group="z2")
        q = random_odd_element(t, np.random.default_rng(6))
        fam = linear_family(t, q, regularizer=np.eye(3))
        rep = fam.validate_at(0.3)
        assert rep.passed
        assert [c.name for c in rep.checks] == [
            "q hermitian",
            "q gamma-odd",
            "q commutes with group[0]",
            "q commutes with group[1]",
            "regularizer hermitian",
            "regularizer PSD",
            "regularizer gamma-even",
            "regularizer commutes with group[0]",
            "regularizer commutes with group[1]",
        ]


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
        assert jlo_lambda_fd_residual(family, 0.15, n, mats) < 1e-5

    def test_coboundary_relation(self, family):
        res = coboundary_relation_residual(
            family, 0.15, samples=3, levels=(0, 1, 2), seed=7
        )
        assert res < 1e-8

    def test_family_without_velocity(self, family, rng):
        # q(lambda) = lambda^2 q0 without q_dot: the velocity is the
        # difference quotient, and both residuals hold with it
        q0 = family.q_at(1.0)
        fam = DeformationFamily(base=family.base, q=lambda lam: lam**2 * q0)
        assert opnorm(fam.q_dot_at(0.3) - 0.6 * q0) < 1e-12
        mats = even_tuple(fam.base, rng, 3)
        assert jlo_lambda_fd_residual(fam, 0.3, 2, mats) < 1e-5
        assert coboundary_relation_residual(fam, 0.3, samples=2, seed=5) < 1e-8

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


    def test_derivatives_are_central_differences(self):
        fam = self.make_family(np.diag([0.5, 1.0, 1.5]).astype(complex))
        inp = PairingInput(a=random_involution(fam.base, np.random.default_rng(43)))
        eg, lg = [0.0, 0.2, 0.5], [0.1, 0.2, 0.4]
        tab = endpoint_grid(fam, eg, lg, inp)
        assert [(r["lambda"], r["eps"]) for r in tab.rows] == [(l, e) for l in lg for e in eg]
        v = {(r["eps"], r["lambda"]): r["value"] for r in tab.rows}
        row = tab.rows[4]  # eps = 0.2, lambda = 0.2
        assert row["dZ_deps"] == (v[0.5, 0.2] - v[0.0, 0.2]) / (0.5 - 0.0)
        assert row["dZ_dlambda"] == (v[0.2, 0.4] - v[0.2, 0.1]) / (0.4 - 0.1)
        ends = [r for r in tab.rows if r["eps"] != 0.2]
        assert all(r["dZ_deps"] is None for r in ends)

    def test_repeated_point_takes_its_own_neighbours(self):
        # each copy of lambda = 0.2 is its own grid point; both copies used to
        # take the neighbours of the first
        fam = self.make_family(np.diag([0.5, 1.0, 1.5]).astype(complex))
        inp = PairingInput(a=random_involution(fam.base, np.random.default_rng(43)))
        tab = endpoint_grid(fam, [0.3], [0.1, 0.2, 0.2, 0.4], inp)
        v = [r["value"] for r in tab.rows]
        assert tab.rows[1]["dZ_dlambda"] == (v[2] - v[0]) / (0.2 - 0.1)
        assert tab.rows[2]["dZ_dlambda"] == (v[3] - v[1]) / (0.4 - 0.2)

    def test_grid_over_budget_refused_before_any_pairing(self, monkeypatch):
        def no_pairing(*args, **kwargs):
            raise AssertionError("a pairing ran on a grid over budget")

        monkeypatch.setattr(homotopy, "_gaussian", no_pairing)
        fam = self.make_family(np.diag([0.5, 1.0, 1.5]).astype(complex))
        inp = PairingInput(a=np.eye(3, dtype=complex))
        with pytest.raises(ComplexityCap) as err:
            endpoint_grid(fam, [0.0, 0.1], np.linspace(0.0, 1.0, 1025), inp)
        assert str(err.value) == (
            "the (eps, lambda) grid 2*1025 has 2050 points, which exceeds budget 2048"
        )

    def test_generator_grid(self):
        # a generator lambda grid was used up by _grid, and the family check
        # then indexed a 0-dimensional array (IndexError)
        fam = self.make_family(np.diag([0.5, 1.0, 1.5]).astype(complex))
        inp = PairingInput(a=np.eye(3, dtype=complex))
        tab = endpoint_grid(fam, [0.0, 0.3], (lam for lam in [0.3, 0.1]), inp)
        assert tab.rows == endpoint_grid(fam, [0.0, 0.3], [0.1, 0.3], inp).rows

    def test_regularized_lift_only_on_plane_one(self):
        # lifted(1, 2.0) scaled R by sqrt(2) where plane 2 needs 2 R: its H
        # missed 2 (Q^2 + R) by 0.293 here
        t = random_triple(4, seed=1)
        r = np.eye(4) / 2
        reg = _Regularized(t.dim, t.Q, t.gamma, t.group, t.tol, R=r)
        with pytest.raises(BadExponent, match="plane 1 only, got beta_plane 2.0"):
            reg.lifted(1, 2.0)
        assert reg.lifted(1, 1.0) is reg
        lift = reg.lifted(2, 1.0)
        h = np.kron(np.eye(2), t.Q @ t.Q + r)
        assert isinstance(lift, _Regularized) and lift.dim == 8
        assert opnorm(lift.hamiltonian - h) <= 1e-14 * opnorm(h)

    def test_csv_header_independent_of_grid(self):
        # an all-None derivative column on a 2-point axis used to be one column
        fam = self.make_family(np.diag([0.5, 1.0, 1.5]).astype(complex))
        inp = PairingInput(a=np.eye(3, dtype=complex))
        two = endpoint_grid(fam, [0.0, 0.5], [0.0, 1.0], inp).to_csv_rows()
        three = endpoint_grid(fam, [0.0, 0.25, 0.5], [0.0, 0.5, 1.0], inp).to_csv_rows()
        assert two[0] == three[0] == [
            "lambda", "eps", "re(value)", "im(value)", "re(dZ_deps)", "im(dZ_deps)",
            "re(dZ_dlambda)", "im(dZ_dlambda)",
        ]
        assert two[1][4:] == ["", "", "", ""]


def _sweep_cases():
    """name -> (run the sweep, its input, the heat data of each row's point
    in row order, the PairingInput.validate calls the sweep makes)."""
    zero = zero_mode_triple()
    q = random_odd_element(zero, np.random.default_rng(97))
    fam = linear_family(zero, 0.3 * q / opnorm(q), regularizer=np.diag([0.5, 1.0, 1.5]))
    inp = PairingInput(a=random_involution(zero, np.random.default_rng(5)))
    block = PairingInput(a=np.kron(np.array([[0, 1], [1, 0]]), np.eye(3)), m=2)
    lams, epss, betas = [-0.4, 0.0, 0.4], [0.0, 0.3], [0.5, 1.0, 2.0]

    def regularized(lam, eps):
        t = deform_triple(fam, lam)
        return _Regularized(t.dim, t.Q, t.gamma, t.group, t.tol, R=eps**2 * fam.regularizer)

    s, gens = build_n2_susy_example(levels=((1.0, 0.5), (2.0, 1.0)), taus=(0.7,), thetas=(0.9,))

    def rotated(lam):
        return replace(s, Q2=math.cos(lam) * gens["Q2"] + math.sin(lam) * gens["Qt2"])

    split_inp = PairingInput(a=s.gamma.copy(), g=1)
    return {
        "sweep": (lambda: sweep_invariant(fam, inp, lams), inp,
                  [deform_triple(fam, lam) for lam in lams], 1),
        "endpoint": (lambda: endpoint_grid(fam, epss, lams, inp), inp,
                     [regularized(lam, eps) for lam in lams for eps in epss], 1),
        "beta": (lambda: beta_independence(zero, block, betas), block,
                 [zero.lifted(1, beta) for beta in betas], 1),
        "coupling": (lambda: coupling_sweep(rotated, split_inp, lams), split_inp,
                     [rotated(lam) for lam in lams], len(lams)),
    }


@pytest.mark.parametrize("name", ["sweep", "endpoint", "beta", "coupling"])
def test_sweep_validates_its_input_once_per_request(name, monkeypatch):
    # the plain sweeps validated their input at every grid point (the endpoint
    # grid at every (eps, lambda)); only the coupling sweep's family may move
    # gamma, the group or P, so it alone checks each point
    run, inp, points, expected = _sweep_cases()[name]
    calls, validate = [], PairingInput.validate

    def counted(self, t):
        calls.append(t)
        return validate(self, t)

    monkeypatch.setattr(PairingInput, "validate", counted)
    tab = run()
    assert len(calls) == expected
    monkeypatch.undo()
    assert len(tab.rows) == len(points)
    for row, point in zip(tab.rows, points):
        assert row["value"] == pairing_gaussian(point, inp)


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

    def test_jsonable_without_value_column(self, family):
        # regularity_report's table has no "value" column; it used to raise KeyError
        doc = regularity_report(family, [-0.4, 0.2]).to_jsonable()
        assert "spread" not in doc
        assert [r["lambda"] for r in doc["rows"]] == [-0.4, 0.2]
        inp = PairingInput(a=np.eye(3, dtype=complex))
        assert sweep_invariant(family, inp, [0.0, 0.2]).to_jsonable()["spread"] < 1e-8
