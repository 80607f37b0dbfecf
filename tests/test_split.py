import math

import numpy as np
import pytest

from heatchern import split
from heatchern.cochains import op_partial
from heatchern.errors import (
    DimensionMismatch,
    PNotFixed,
    ValidationFailure,
    ZeroMomentumViolation,
)
from heatchern.jlo import (
    PairingInput,
    gauss_hermite_transform,
    jlo_cochain,
    pairing_gaussian,
)
from heatchern.linalg import expm, opnorm
from heatchern.split import (
    SplitAlgebraElement,
    SplitTriple,
    build_n2_susy_example,
    coupling_sweep,
    d1,
    n2_index_table,
    split_jlo_component,
    split_pairing,
    validate_split,
    zero_momentum_project,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


@pytest.fixture
def pauli_split():
    return SplitTriple(
        dim=4,
        Q1=np.kron(SX, np.eye(2)),
        Q2=np.kron(SY, np.eye(2)),
        gamma=np.kron(SZ, np.eye(2)),
        group=[np.eye(4, dtype=complex)],
    )


class TestValidation:
    def test_pauli_split_passes(self, pauli_split):
        assert validate_split(pauli_split).passed

    def test_dependence_detected(self, pauli_split):
        s = SplitTriple(
            dim=4,
            Q1=pauli_split.Q1,
            Q2=pauli_split.Q1.copy(),
            gamma=pauli_split.gamma,
            group=[np.eye(4)],
        )
        rep = validate_split(s)
        assert not rep.passed
        bad = {c.name: c.residual for c in rep.failures}
        assert bad["independence Q1 Q2 + Q2 Q1 = 0"] == pytest.approx(
            2.0 * opnorm(pauli_split.Q1 @ pauli_split.Q1)
        )

    def test_degenerate_second_part(self, pauli_split):
        s = SplitTriple(
            dim=4,
            Q1=pauli_split.Q1,
            Q2=np.zeros((4, 4)),
            gamma=pauli_split.gamma,
            group=[np.eye(4)],
        )
        rep = validate_split(s)
        assert rep.passed  # H - P = 0 is an allowed boundary case


class TestD1:
    def test_identity(self, pauli_split):
        assert opnorm(d1(pauli_split, np.eye(4))) == 0.0

    def test_commuting_element(self, pauli_split):
        assert opnorm(d1(pauli_split, pauli_split.Q1 @ pauli_split.Q1)) < 1e-14

    def test_definition(self, pauli_split, rng):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        expected = pauli_split.Q1 @ a - a @ pauli_split.Q1
        assert np.allclose(d1(pauli_split, a), expected)


class TestSplitCharacter:
    def test_level_zero_identity(self, pauli_split):
        val = split_jlo_component(pauli_split, 0, [np.eye(4)])
        assert val == pytest.approx(pauli_split.heat_trace(0), abs=1e-13)

    def test_odd_components_vanish(self, pauli_split, rng):
        mats = []
        for _ in range(2):
            raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            even = (raw + pauli_split.conj_gamma(raw)) / 2
            mats.append(zero_momentum_project(pauli_split, even))
        assert abs(split_jlo_component(pauli_split, 1, mats)) < 1e-12

    def test_zero_momentum_guard(self):
        s, gens = build_n2_susy_example(levels=((1.0, 0.5), (2.0, 1.0)))
        rng = np.random.default_rng(3)
        raw = rng.normal(size=(s.dim, s.dim)) + 1j * rng.normal(size=(s.dim, s.dim))
        even = (raw + s.conj_gamma(raw)) / 2
        with pytest.raises(ZeroMomentumViolation):
            split_jlo_component(s, 0, [even])

    def test_cocycle(self, pauli_split, rng):
        tau = jlo_cochain(pauli_split)
        ptau = op_partial(tau)
        worst = 0.0
        for n in (1, 2, 3):
            mats = []
            for _ in range(n + 1):
                raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
                mats.append((raw + pauli_split.conj_gamma(raw)) / 2)
            worst = max(worst, abs(ptau(n, tuple(mats), 0)))
        assert worst < 1e-9


class TestSplitPairing:
    def test_identity_gives_index(self, pauli_split):
        res = split_pairing(pauli_split, PairingInput(a=np.eye(4, dtype=complex)))
        assert res.value == pytest.approx(pauli_split.heat_trace(0), abs=1e-10)

    def test_series_vs_quadrature(self, pauli_split):
        a = np.kron(SZ, SZ)  # gamma-even involution; P = 0 so zero-momentum
        res = split_pairing(pauli_split, PairingInput(a=a))
        assert abs(res.series_value - res.quadrature_value) < 1e-8

    def test_degenerate_split_matches_direct_formula(self, pauli_split):
        # Q2 = 0: the pairing equals the Gaussian transform assembled by
        # hand from H = Q1^2/2 and the d1 derivative
        s = SplitTriple(
            dim=4,
            Q1=pauli_split.Q1,
            Q2=np.zeros((4, 4)),
            gamma=pauli_split.gamma,
            group=[np.eye(4)],
        )
        a = np.kron(SZ, SZ)
        got = pairing_gaussian(s, PairingInput(a=a))
        h = s.Q1 @ s.Q1 / 2.0
        da = s.Q1 @ a - a @ s.Q1
        front = s.gamma @ a
        direct = gauss_hermite_transform(
            lambda tt: complex(np.trace(front @ expm(-h + 1j * tt * da))), 64, 1e-10
        )
        assert got == pytest.approx(direct, abs=1e-12)

    def test_input_preconditions(self, pauli_split):
        with pytest.raises(ValidationFailure):
            pairing_gaussian(
                pauli_split, PairingInput(a=2 * np.eye(4, dtype=complex))
            )


class TestZeroMomentumPrecondition:
    # gamma-even, a^2 = I and group-invariant, but it swaps the P = 0.5 and
    # P = 1 sectors: ||[P, a]|| = 0.5
    def nonzero_momentum(self):
        s, gens = build_n2_susy_example(levels=((1.0, 0.5), (2.0, 1.0)))
        return s, gens, PairingInput(a=np.kron(SX, np.eye(4)))

    def test_input_passes_the_other_preconditions(self):
        s, _, inp = self.nonzero_momentum()
        assert inp.validate(s).passed
        p = s.momentum
        assert opnorm(p @ inp.a - inp.a @ p) == pytest.approx(0.5)

    def test_split_pairing_refuses(self):
        s, _, inp = self.nonzero_momentum()
        with pytest.raises(ZeroMomentumViolation):
            split_pairing(s, inp)

    def test_coupling_sweep_refuses(self):
        s, gens, inp = self.nonzero_momentum()

        def family(lam):
            return SplitTriple(
                dim=s.dim,
                Q1=gens["Q1"],
                Q2=math.cos(lam) * gens["Q2"] + math.sin(lam) * gens["Qt2"],
                gamma=s.gamma,
                group=list(s.group),
                tol=s.tol,
            )

        with pytest.raises(ZeroMomentumViolation):
            coupling_sweep(family, inp, [0.0, 0.3])


class TestCouplingSweep:
    def test_constant_family(self, pauli_split):
        a = np.kron(SZ, SZ)
        tab = coupling_sweep(
            lambda lam: pauli_split, PairingInput(a=a), [0.0, 0.2, 0.4]
        )
        assert tab.spread() == 0.0

    def test_validates_each_grid_point_once(self, pauli_split, monkeypatch):
        calls = []

        def counted(s):
            calls.append(s)
            return validate_split(s)

        monkeypatch.setattr(split, "validate_split", counted)
        a = np.kron(SZ, SZ)
        coupling_sweep(lambda lam: pauli_split, PairingInput(a=a), [0.0, 0.4])
        assert len(calls) == 2

    def test_empty_grid_raises(self, pauli_split):
        # used to raise IndexError at grid[0]
        a = np.kron(SZ, SZ)
        with pytest.raises(DimensionMismatch, match="lambda_grid has no points"):
            coupling_sweep(lambda lam: pauli_split, PairingInput(a=a), [])

    def test_rotation_family_invariance(self):
        s, gens = build_n2_susy_example(
            levels=((1.0, 0.5), (2.0, 1.0)), taus=(0.7,), thetas=(0.9,)
        )

        def family(lam):
            return SplitTriple(
                dim=s.dim,
                Q1=gens["Q1"],
                Q2=math.cos(lam) * gens["Q2"] + math.sin(lam) * gens["Qt2"],
                gamma=s.gamma,
                group=list(s.group),
                tol=s.tol,
            )

        tab = coupling_sweep(
            family, PairingInput(a=s.gamma.copy(), g=1), np.linspace(0.0, 0.6, 5)
        )
        assert tab.spread() < 1e-6

    def test_p_not_fixed_guard(self, pauli_split):
        def family(lam):
            return SplitTriple(
                dim=4,
                Q1=pauli_split.Q1,
                Q2=(1.0 + lam) * np.kron(SY, np.diag([1.0, 2.0])),
                gamma=pauli_split.gamma,
                group=[np.eye(4)],
            )

        with pytest.raises(PNotFixed):
            coupling_sweep(
                family, PairingInput(a=np.kron(SZ, SZ)), [0.0, 0.3]
            )

    def test_q1_commuting_mode(self, pauli_split):
        a = np.kron(np.eye(2), SZ)  # commutes with Q1 = SX (x) I

        def family(lam):
            return SplitTriple(
                dim=4,
                Q1=(1.0 + 0.3 * lam) * pauli_split.Q1,
                Q2=pauli_split.Q2,
                gamma=pauli_split.gamma,
                group=[np.eye(4)],
            )

        tab = coupling_sweep(
            family, PairingInput(a=a), [0.0, 0.5, 1.0], mode="q1_commuting"
        )
        assert tab.spread() < 1e-8

    def test_q1_commuting_guard(self, pauli_split):
        a = np.kron(SZ, SZ)  # anticommutes with Q1

        def family(lam):
            return SplitTriple(
                dim=4,
                Q1=(1.0 + 0.3 * lam) * pauli_split.Q1,
                Q2=pauli_split.Q2,
                gamma=pauli_split.gamma,
                group=[np.eye(4)],
            )

        with pytest.raises(ValidationFailure):
            coupling_sweep(family, PairingInput(a=a), [0.0, 0.5], mode="q1_commuting")


class TestN2Model:
    def test_minimal_model_validates(self):
        s, gens = build_n2_susy_example()
        assert validate_split(s).passed

    def test_all_four_generators_anticommute(self):
        s, gens = build_n2_susy_example(levels=((2.0, 1.0),))
        names = ["Q1", "Q2", "Qt1", "Qt2"]
        for i, x in enumerate(names):
            for y in names[i + 1 :]:
                anti = gens[x] @ gens[y] + gens[y] @ gens[x]
                assert opnorm(anti) < 1e-12

    def test_squares_give_energy_momentum(self):
        s, gens = build_n2_susy_example(levels=((2.0, 1.0),))
        h, p = s.hamiltonian, s.momentum
        assert opnorm(gens["Q1"] @ gens["Q1"] - (h + p)) < 1e-12
        assert opnorm(gens["Qt2"] @ gens["Qt2"] - (h - p)) < 1e-12

    def test_rotation_generator_commutants(self):
        s, gens = build_n2_susy_example(levels=((1.0, 0.5), (2.0, 1.0)))
        j = gens["J"]
        for name in ("Q1",):
            assert opnorm(j @ gens[name] - gens[name] @ j) < 1e-12
        assert opnorm(j @ s.gamma - s.gamma @ j) < 1e-12
        assert opnorm(j @ s.hamiltonian - s.hamiltonian @ j) < 1e-12
        assert opnorm(j @ s.momentum - s.momentum @ j) < 1e-12

    def test_rotation_action_on_q2(self):
        s, gens = build_n2_susy_example(levels=((2.0, 1.0),))
        theta = 0.8
        u = expm(1j * theta * gens["J"])
        rotated = u @ gens["Q2"] @ u.conj().T
        expected = math.cos(theta) * gens["Q2"] + math.sin(theta) * gens["Qt2"]
        assert opnorm(rotated - expected) < 1e-12

    def test_trivial_group_element(self):
        s, gens = build_n2_susy_example(taus=(0.0,), thetas=(0.0,))
        assert len(s.group) == 1  # (0, 0) collapses to the identity

    def test_index_table_diagnostics(self):
        s, gens = build_n2_susy_example(levels=((1.0, 1.0), (2.0, 1.0)))
        taus = [0.0, math.pi, 2 * math.pi]
        tab = n2_index_table(s, gens, taus, [0.0, 0.5])
        assert len(tab.rows) == 6
        # integer momentum spectrum: 2 pi periodicity in tau
        by_theta = {}
        for r in tab.rows:
            by_theta.setdefault(r["theta"], {})[r["tau"]] = r["value"]
        for theta, vals in by_theta.items():
            assert abs(vals[0.0] - vals[2 * math.pi]) < 1e-10


class TestZeroMomentumStructure:
    def test_momentum_commutes_with_heat_kernel(self):
        s, gens = build_n2_susy_example(levels=((1.0, 0.5), (2.0, 1.0)))
        lam, basis = s.heat_data()
        heat = (basis * np.exp(-0.7 * lam)) @ basis.conj().T
        p = s.momentum
        assert opnorm(p @ heat - heat @ p) < 1e-12

    @pytest.mark.parametrize("seed", range(3))
    def test_second_derivative_reduces_to_d1(self, seed):
        # on zero-momentum b: [Q^2, b] = Q1 (d1 b) + (d1 b) Q1
        s, gens = build_n2_susy_example(levels=((1.0, 0.5), (2.0, 1.0)))
        rng = np.random.default_rng(seed)
        raw = rng.normal(size=(s.dim, s.dim)) + 1j * rng.normal(size=(s.dim, s.dim))
        b = zero_momentum_project(s, raw)
        p = s.momentum
        assert opnorm(p @ b - b @ p) < 1e-12
        h = s.hamiltonian
        lhs = h @ b - b @ h
        db = d1(s, b)
        rhs = s.Q1 @ db + db @ s.Q1
        assert opnorm(lhs - rhs) < 1e-10 * max(opnorm(rhs), 1.0)


class TestSplitAlgebraElement:
    def test_validation(self, pauli_split):
        good = SplitAlgebraElement(np.kron(SZ, SZ), "a")
        assert good.validate(pauli_split).passed
        bad = SplitAlgebraElement(np.kron(SX, np.eye(2)), "odd")
        assert not bad.validate(pauli_split).passed
