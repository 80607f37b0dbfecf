import math

import numpy as np
import pytest

from heatchern import split
from heatchern.cochains import op_partial
from heatchern.errors import (
    DimensionMismatch,
    PairingInputInvalid,
    PNotFixed,
    ValidationFailure,
    ZeroMomentumViolation,
)
from heatchern.jlo import (
    PairingInput,
    coboundary_pairing_residual,
    equivariant_index,
    gauss_hermite_transform,
    generating_functional,
    jlo_cochain,
    pairing,
    pairing_gaussian,
    pairing_series,
)
from heatchern.linalg import expm, opnorm
from heatchern.split import (
    SplitAlgebraElement,
    SplitTriple,
    build_n2_susy_example,
    coupling_sweep,
    d1,
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

    def test_check_names_in_order(self):
        s, _ = build_n2_susy_example(taus=(0.7,), thetas=(0.9,))
        member = ["unitary", "commutes with gamma", "commutes with Q1", "commutes with Q2^2"]
        assert [c.name for c in validate_split(s).checks] == [
            "Q1 hermitian",
            "Q2 hermitian",
            "gamma hermitian",
            "gamma^2 = I",
            "independence Q1 Q2 + Q2 Q1 = 0",
            "Q1 gamma + gamma Q1 = 0",
            "Q2 gamma + gamma Q2 = 0",
            "group[0] = I",
            *(f"group[{k}] {m}" for k in range(2) for m in member),
            "Q^2 = (Q1^2 + Q2^2)/2",
            "spectral cone H + P >= 0",
            "spectral cone H - P >= 0",
        ]

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

    @pytest.mark.parametrize("q", [0.5, 1.0, 1.5])
    def test_closed_form_at_the_default_level(self, q):
        # Q1 = q X, Q2 = 0, a = gamma: H = q^2/2 and d1(gamma) has
        # eigenvalues +-2qi, so the pairing is 2 exp(q^2/2)
        s = SplitTriple(dim=2, Q1=q * SX, Q2=np.zeros((2, 2)), gamma=SZ, group=[np.eye(2)])
        exact = 2.0 * math.exp(q * q / 2.0)
        res = split_pairing(s, PairingInput(a=SZ.copy()))
        assert abs(res.quadrature_value - exact) < 1e-12
        assert abs(res.series_value - exact) <= res.tail_bound
        # at the old default level 24 the series missed by 4.7e-6 at q = 1.5
        assert abs(res.series_value - res.quadrature_value) < 1e-8

    def test_input_preconditions(self, pauli_split):
        with pytest.raises(ValidationFailure):
            pairing_gaussian(
                pauli_split, PairingInput(a=2 * np.eye(4, dtype=complex))
            )

    def test_block_input_is_paired_on_the_lift(self):
        # I_2 (x) a on the lift pairs to twice a; it used to be refused
        s, _ = build_n2_susy_example(levels=((1.0, 0.5), (2.0, 1.0)), taus=(0.7,), thetas=(0.9,))
        one = split_pairing(s, PairingInput(a=s.gamma.copy(), g=1))
        two = split_pairing(s, PairingInput(a=np.kron(np.eye(2), s.gamma), m=2, g=1))
        assert abs(two.value - 2.0 * one.value) <= 1e-12
        assert abs(two.series_value - 2.0 * one.series_value) <= 1e-12


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

    @pytest.mark.parametrize(
        "route",
        [
            pairing,
            pairing_gaussian,
            pairing_series,
            lambda s, inp: generating_functional(s, inp, 0.3),
            lambda s, inp: coboundary_pairing_residual(s, jlo_cochain(s), inp, 2),
        ],
        ids=["pairing", "gaussian", "series", "generating-functional", "coboundary"],
    )
    def test_every_pairing_refuses(self, route):
        # each used to return a number for this input
        s, _, inp = self.nonzero_momentum()
        with pytest.raises(ZeroMomentumViolation, match=r"argument 0 fails \[P, a\] = 0"):
            route(s, inp)

    def test_refused_before_the_other_preconditions(self):
        # 2a fails a^2 = I too; the momentum is reported, as before
        s, _, inp = self.nonzero_momentum()
        with pytest.raises(ZeroMomentumViolation, match="residual 1.000e"):
            split_pairing(s, PairingInput(a=2.0 * inp.a))

    def test_block_input_refused_on_the_lift(self):
        s, _, inp = self.nonzero_momentum()
        with pytest.raises(ZeroMomentumViolation, match="residual 5.000e-01"):
            split_pairing(s, PairingInput(a=np.kron(np.eye(2), inp.a), m=2))

    def test_wrong_shape_reported_first(self):
        s, _, _ = self.nonzero_momentum()
        with pytest.raises(DimensionMismatch, match=r"a is 2x2, expected m\*dim = 8"):
            split_pairing(s, PairingInput(a=SZ.copy()))

    def test_split_jlo_component_wrong_shape(self):
        # [P, a] used to be formed first and end in numpy's matmul ValueError
        s, _ = build_n2_susy_example()
        message = r"tuple\[0\] has shape \(2, 2\), expected \(4, 4\)"
        with pytest.raises(DimensionMismatch, match=message):
            split_jlo_component(s, 0, [np.eye(2)])

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

    def test_input_checked_before_the_precondition_at_every_point(self):
        # at lambda = 0.3 P has moved and a no longer commutes with it: the
        # input's check, which runs first at every point, reports it (only the
        # first point's input was checked first; later ones raised PNotFixed)
        def family(lam):
            return SplitTriple(
                dim=4,
                Q1=np.kron(SX, np.eye(2)),
                Q2=np.kron(SY, np.diag([1.0, 1.0 + lam])),
                gamma=np.kron(SZ, np.eye(2)),
                group=[np.eye(4)],
            )

        with pytest.raises(ZeroMomentumViolation, match="residual 3.450e-01"):
            coupling_sweep(family, PairingInput(a=np.kron(np.eye(2), SX)), [0.0, 0.3])

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

    @pytest.mark.parametrize("mode", ["coupling", "q1_commuting"])
    def test_block_input_on_the_lift(self, pauli_split, mode):
        a = np.kron(np.eye(2), SZ)  # commutes with Q1 = SX (x) I, and P = 0
        rate = 0.3 if mode == "q1_commuting" else 0.0  # a moving Q1 moves P

        def family(lam):
            return SplitTriple(
                dim=4,
                Q1=(1.0 + rate * lam) * pauli_split.Q1,
                Q2=pauli_split.Q2,
                gamma=pauli_split.gamma,
                group=[np.eye(4)],
            )

        grid = [0.0, 0.5]
        one = coupling_sweep(family, PairingInput(a=a), grid, mode=mode)
        two = coupling_sweep(family, PairingInput(a=np.kron(np.eye(2), a), m=2), grid, mode=mode)
        for r1, r2 in zip(one.rows, two.rows):
            assert abs(r2["value"] - 2.0 * r1["value"]) <= 1e-12

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


    def test_q1_commuting_wrong_shape(self):
        # ||[Q1, a]|| used to be formed first and end in numpy's matmul ValueError
        s, _ = build_n2_susy_example()
        with pytest.raises(DimensionMismatch, match=r"a is 2x2, expected m\*dim = 4"):
            coupling_sweep(lambda lam: s, PairingInput(a=SZ.copy()), [0.0], mode="q1_commuting")

    def test_invalid_input_reported_before_q1_precondition(self, pauli_split):
        # 2 a anticommutes with Q1 and fails a^2 = I: the input is reported
        # first, as in mode "coupling"
        def family(lam):
            return SplitTriple(
                dim=4,
                Q1=(1.0 + 0.3 * lam) * pauli_split.Q1,
                Q2=pauli_split.Q2,
                gamma=pauli_split.gamma,
                group=[np.eye(4)],
            )

        inp = PairingInput(a=2.0 * np.kron(SZ, SZ))
        with pytest.raises(PairingInputInvalid, match="a\\^2 = I"):
            coupling_sweep(family, inp, [0.0, 0.5], mode="q1_commuting")


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

    @staticmethod
    def _index_grid():
        taus, thetas = (0.0, math.pi, 2 * math.pi), (0.0, 0.5)
        s, gens = build_n2_susy_example(
            levels=((1.0, 1.0), (2.0, 1.0)), taus=taus, thetas=thetas
        )
        grid = [(tau, theta) for tau in taus for theta in thetas]
        assert len(s.group) == len(grid)  # (0, 0) is the identity, group[0]
        return s, gens, grid

    def test_index_table_diagnostics(self):
        s, gens, grid = self._index_grid()
        index = {tt: equivariant_index(s, g) for g, tt in enumerate(grid)}
        assert len(index) == 6
        # integer momentum spectrum: 2 pi periodicity in tau
        for theta in (0.0, 0.5):
            assert abs(index[0.0, theta] - index[2 * math.pi, theta]) < 1e-10

    def test_index_table_is_the_heat_trace(self):
        # oracle: the hand-written Tr(gamma U(tau, theta) e^{-H}) in the
        # eigenbasis of H; same arithmetic as heat_trace, same bits
        s, gens, grid = self._index_grid()
        lam, v = s.heat_data()
        for g, (tau, theta) in enumerate(grid):
            u = expm(1j * (tau * gens["P"] + theta * gens["J"]))
            w = v.conj().T @ (s.gamma @ u) @ v
            oracle = complex(np.sum(np.diag(w) * np.exp(-lam)))
            assert equivariant_index(s, g) == oracle


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

    def test_check_names_in_order(self, pauli_split):
        rep = SplitAlgebraElement(np.kron(SZ, SZ), "a").validate(pauli_split)
        assert [c.name for c in rep.checks] == ["a gamma-even", "a zero-momentum"]
        rep = SplitAlgebraElement(np.kron(SZ, SZ)).validate(pauli_split)
        assert [c.name for c in rep.checks] == ["element gamma-even", "element zero-momentum"]
