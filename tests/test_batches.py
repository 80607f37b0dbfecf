"""The batched evaluation path: ``Cochain.many`` and ``expectation_values``.

Every batch must give, bit for bit, the values of one-at-a-time calls, and
the values of the same operator tree over a leaf that evaluates one tuple
at a time.
"""

import tracemalloc

import numpy as np
import pytest

from heatchern import cochains, expectations, linalg
from heatchern.cochains import (
    Cochain,
    _batched,
    _random_even_tuple,
    cocycle_residual,
    norm_profile,
    op_A,
    op_B,
    op_T,
    op_U,
    op_V,
    op_b,
    op_partial,
    random_cochain,
)
from heatchern.errors import ClassViolation, ComplexityCap
from heatchern.expectations import (
    check_cyclic,
    check_d_invariance,
    check_insert_identity,
    expectation_value,
    expectation_values,
)
from heatchern.homotopy import (
    L_cochain,
    coboundary_relation_residual,
    deform_triple,
    h_cochain,
    linear_family,
)
from heatchern.jlo import jlo_cochain
from heatchern.linalg import opnorm
from heatchern.models import random_even_element, random_odd_element, random_triple
from heatchern.triples import derivative


def scalar_copy(f: Cochain) -> Cochain:
    """The same cochain through a plain evaluator, evaluated one tuple at a time."""
    return Cochain(f.evaluator, f.group, f.max_level, f.cclass)


def recording_expm(monkeypatch):
    """Record the shape of every exponential ``expectations`` takes."""
    shapes, expm = [], expectations.expm
    monkeypatch.setattr(
        expectations, "expm", lambda m, *a, **kw: shapes.append(np.shape(m)) or expm(m, *a, **kw)
    )
    return shapes


@pytest.fixture(scope="module")
def z2():
    t = random_triple(3, seed=21, group="z2")
    rng = np.random.default_rng(22)
    q = random_odd_element(t, rng)
    fam = linear_family(t, 0.3 * q / opnorm(q), interval=(-0.6, 0.6))
    return t, fam, rng


def recurring_tuples(t, rng, n, count=3):
    """``count`` tuples of n+1 gamma-even arguments drawn from n+1 objects,
    so objects recur within a tuple and across tuples."""
    pool = [random_even_element(t, rng) for _ in range(n + 1)]
    return [tuple(pool[(k * j + k + j) % len(pool)] for j in range(n + 1)) for k in range(count)]


class TestExpectationValues:
    def test_matches_one_at_a_time_across_stacks(self, monkeypatch):
        # dim 12, 4 vertices: order 48, 28 slices a stack, so 31 lists of that
        # length take two exponentials; the length-2 lists take one more
        t = random_triple(12, seed=5, group="z2")
        rng = np.random.default_rng(6)
        pool = [rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12)) for _ in range(5)]
        real = rng.normal(size=(12, 12))  # converted afresh in every list
        lists = []
        for k in range(31):
            lists.append([pool[k % 5], pool[0], real if k % 3 else pool[1], pool[(2 * k) % 5]])
            if k % 10 == 0:
                lists.append([pool[k % 5], real])
        for g in range(2):
            shapes = recording_expm(monkeypatch)
            got = expectation_values(t, lists, g)
            monkeypatch.undo()
            assert shapes == [(28, 48, 48), (3, 48, 48), (4, 24, 24)]
            assert got == [expectation_value(t, mats, g) for mats in lists]

    def test_stack_budget_keeps_values(self, monkeypatch):
        t = random_triple(4, seed=7)
        rng = np.random.default_rng(8)
        lists = [[rng.normal(size=(4, 4)) for _ in range(3)] for _ in range(5)]
        want = expectation_values(t, lists)
        shapes = recording_expm(monkeypatch)
        monkeypatch.setattr(linalg, "_STACK_ENTRIES", 2 * 12 * 12)
        assert expectation_values(t, lists) == want
        assert shapes == [(2, 12, 12), (2, 12, 12), (1, 12, 12)]

    def test_empty_batch(self):
        t = random_triple(2, seed=1)
        assert expectation_values(t, []) == []
        assert op_T(op_U(jlo_cochain(t))).many(1, []) == []


def operator_trees():
    """(name, build) for each operator over a leaf; T and A take U(leaf),
    which is class N."""
    return [
        ("T", lambda f: op_T(op_U(f))),
        ("A", lambda f: op_A(op_U(f))),
        ("U", op_U),
        ("V0", lambda f: op_V(0, f)),
        ("V1", lambda f: op_V(1, f)),
        ("Vtop", lambda f: op_V(2, f)),
        ("b", op_b),
        ("B", op_B),
        ("partial", op_partial),
        ("bb", lambda f: op_b(op_b(f))),
        ("partial_partial", lambda f: op_partial(op_partial(f))),
    ]


def leaves(t, fam):
    return {
        "jlo": jlo_cochain(t),
        "random": random_cochain(t, seed=23, max_level=7),
        "h": h_cochain(fam, 0.2),
        "L": L_cochain(fam, 0.2),
    }


@pytest.mark.parametrize("leaf", ["jlo", "random", "h", "L"])
class TestCochainMany:
    def test_leaf_matches_one_at_a_time(self, z2, leaf):
        t, fam, rng = z2
        f = leaves(t, fam)[leaf]
        for n in range(4):
            tuples = recurring_tuples(t, rng, n)
            for g in range(2):
                got = f.many(n, tuples, g)
                assert got == [f(n, mats, g) for mats in tuples]
                assert got == scalar_copy(f).many(n, tuples, g)

    @pytest.mark.parametrize("name,build", operator_trees())
    def test_operator_matches_one_at_a_time(self, z2, leaf, name, build):
        t, fam, rng = z2
        f = leaves(t, fam)[leaf]
        tree, reference = build(f), build(scalar_copy(f))
        # V(r) and b need output level 1 at least (V(2) level 2), and bb level 2
        levels = {"V0": (1, 2), "V1": (1, 2), "Vtop": (2, 3), "b": (1, 2), "bb": (2, 3),
                  "partial_partial": (0, 1)}
        for n in levels.get(name, (0, 1, 2)):
            tuples = recurring_tuples(t, rng, n)
            for g in range(2):
                got = tree.many(n, tuples, g)
                assert got == [tree(n, mats, g) for mats in tuples]
                assert got == reference.many(n, tuples, g)


class TestTermOrder:
    # each batched sum against its formula written out term by term, so a
    # batch that reorders the terms of a sum cannot pass
    def test_b_and_A(self, z2):
        t, fam, rng = z2
        G = random_cochain(t, seed=25)
        fN = op_U(G)
        for m in (1, 2, 3):
            tuples = recurring_tuples(t, rng, m)
            for g in range(2):
                want_b, want_A = [], []
                for mats in tuples:
                    tot = 0.0 + 0.0j
                    for r in range(m):
                        merged = mats[:r] + (mats[r] @ mats[r + 1],) + mats[r + 2 :]
                        tot += (-1) ** r * G(m - 1, merged, g)
                    wrap = (t.conj_group_inv(mats[m], g) @ mats[0],) + mats[1:m]
                    tot += (-1) ** m * G(m - 1, wrap, g)
                    want_b.append(tot)
                    tot = 0.0 + 0.0j
                    for j in range(m + 1):
                        head = tuple(t.conj_group_inv(a, g) for a in mats[m + 1 - j :])
                        tot += (-1) ** (m * j) * fN(m, head + mats[: m + 1 - j], g)
                    want_A.append(tot)
                assert op_b(G).many(m, tuples, g) == want_b
                assert op_A(fN).many(m, tuples, g) == want_A

    def test_h_and_L(self, z2):
        t, fam, rng = z2
        t_lam, qdot = deform_triple(fam, 0.2), fam.q_dot_at(0.2)
        dl_qdot = t_lam.Q @ qdot + qdot @ t_lam.Q
        for n in (0, 1, 2, 3):
            tuples = recurring_tuples(t, rng, n)
            for g in range(2):
                want_h, want_L = [], []
                for mats in tuples:
                    d = [t_lam.derive(a) for a in mats]
                    tot = 0.0 + 0.0j
                    for k in range(n + 1):
                        verts = [mats[0]] + d[1 : k + 1] + [qdot] + d[k + 1 :]
                        tot += (-1) ** k * expectation_value(t_lam, verts, g)
                    want_h.append(-tot)
                    tot = 0.0 + 0.0j
                    for j in range(1, n + 1):
                        commutator = qdot @ mats[j] - mats[j] @ qdot
                        verts = [mats[0]] + d[1:j] + [commutator] + d[j + 1 :]
                        tot += expectation_value(t_lam, verts, g)
                    for j in range(n + 1):
                        verts = [mats[0]] + d[1 : j + 1] + [dl_qdot] + d[j + 1 :]
                        tot -= expectation_value(t_lam, verts, g)
                    want_L.append(tot)
                assert h_cochain(fam, 0.2).many(n, tuples, g) == want_h
                assert L_cochain(fam, 0.2).many(n, tuples, g) == want_L


def scalar_profile_max(f, t, levels, seed, samples):
    """``norm_profile``'s largest level value, one tuple and group element at a time."""
    rng = np.random.default_rng(seed)
    best = 0.0
    for n in levels:
        level_best = 0.0
        for _ in range(samples):
            mats = _random_even_tuple(t, rng, n)
            for g in range(len(t.group)):
                level_best = max(level_best, abs(f(n, mats, g)))
        best = max(best, level_best)
    return best


class TestResiduals:
    def test_samples_go_down_in_bounded_batches(self, z2, monkeypatch):
        # level 1 at dim 3: 18 argument entries a tuple, so 36 entries take
        # two tuples a batch; the profile keeps its bits
        t, fam, rng = z2
        G = random_cochain(t, seed=26)
        want = norm_profile(G, t, levels=(1, 2), seed=7, samples=5).levels
        sizes = []

        def recorded(n, tuples, g):
            sizes.append((n, g, len(tuples)))
            return G.many(n, tuples, g)

        monkeypatch.setattr(cochains, "_BATCH_ENTRIES", 36)
        got = norm_profile(_batched(recorded, G.group, G.max_level, "C"), t, (1, 2), 7, 5)
        assert got.levels == want
        level_1 = [(1, g, k) for k in (2, 2, 1) for g in (0, 1)]
        assert sizes == level_1 + [(2, g, 1) for _ in range(5) for g in (0, 1)]

    def test_cocycle_residual_keeps_its_bits(self, z2):
        t, fam, rng = z2
        tau = jlo_cochain(t)
        got = cocycle_residual(tau, t, samples=3, levels=(0, 1, 2, 3), seed=4)
        ref = scalar_profile_max(op_partial(scalar_copy(tau)), t, (0, 1, 2, 3), 4, 3)
        assert got == ref

    def test_relation_residual_keeps_its_bits(self, z2):
        t, fam, rng = z2
        got = coboundary_relation_residual(fam, 0.2, samples=2, levels=(0, 1, 2), seed=5)
        L = scalar_copy(L_cochain(fam, 0.2))
        ph = op_partial(scalar_copy(h_cochain(fam, 0.2)))
        gap = Cochain(lambda n, mats, g: L(n, mats, g) - ph(n, mats, g), L.group, 32, "D")
        assert got == scalar_profile_max(gap, t, (0, 1, 2), 5, 2)

    @pytest.mark.parametrize("m", [0, 1, 2, 3])
    def test_cocycle_residual_takes_two_exponentials_per_group_element(self, z2, monkeypatch, m):
        # b and B each send their m+1 faces or rotations down as one batch,
        # where each used to take its own exponential.  At even m both read
        # the character's odd levels, which the grading makes 0 with no
        # exponential at all
        t, fam, rng = z2
        shapes = recording_expm(monkeypatch)
        cocycle_residual(jlo_cochain(t), t, samples=1, levels=(m,))
        assert len(shapes) == (2 if m % 2 else 0) * len(t.group)
        slices = sum(s[0] if len(s) == 3 else 1 for s in shapes)
        assert slices == (2 * (m + 1) if m % 2 else 0) * len(t.group)


class TestIdentityChecks:
    @pytest.fixture
    def verts(self):
        rng = np.random.default_rng(31)
        return random_triple(4, seed=30, group="z2"), [
            rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)) for _ in range(4)
        ]

    def test_insert_identity_keeps_its_bits(self, verts):
        t, x = verts
        ident = np.eye(4, dtype=complex)
        for g in range(2):
            rhs = 0.0 + 0.0j
            for j in range(1, len(x) + 1):
                rhs += expectation_value(t, x[:j] + [ident] + x[j:], g)
            assert check_insert_identity(t, x, g) == abs(expectation_value(t, x, g) - rhs)

    def test_d_invariance_keeps_its_bits(self, verts):
        t, x = verts
        for g in range(2):
            tot = 0.0 + 0.0j
            for j in range(len(x)):
                mats = [t.conj_gamma(v) for v in x[:j]] + [derivative(t, x[j])] + x[j + 1 :]
                tot += expectation_value(t, mats, g)
            assert check_d_invariance(t, x, g) == abs(tot)

    def test_cyclic_keeps_its_bits(self, verts):
        t, x = verts
        for g in range(2):
            rotated = t.conj_gamma(t.conj_group_inv(x[-1], g))
            want = abs(expectation_value(t, x, g) - expectation_value(t, [rotated] + x[:-1], g))
            assert check_cyclic(t, x, g) == want


class TestBatchedChecks:
    @pytest.mark.parametrize("op", [op_T, op_A])
    def test_lazy_class_check_raises_through_a_batch(self, z2, op):
        t, fam, rng = z2
        G = random_cochain(t, seed=24)
        tuples = recurring_tuples(t, rng, 1)
        with pytest.raises(ClassViolation) as batched:
            op(G).many(1, tuples, 1)
        with pytest.raises(ClassViolation) as scalar:
            op(scalar_copy(G))(1, tuples[0], 1)
        name = op.__name__[-1]
        assert str(batched.value).startswith(
            f"{name} needs an identity-annihilating (class N) cochain; witnessed |f_1(I, ...)| = "
        )
        assert str(batched.value) == str(scalar.value)

    def test_block_budget_refused_before_any_allocation(self):
        # level 16 at dim 128: block order 17*128 = 2176 > 2048.  One block
        # matrix would take 76 MB; the refusal allocates no block matrix
        t = random_triple(128, seed=3)
        t.heat_data()
        rng = np.random.default_rng(4)
        tuples = recurring_tuples(t, rng, 16, count=3)
        tracemalloc.start()
        try:
            with pytest.raises(ComplexityCap, match=r"block order \(n\+1\)\*dim = 17\*128 = 2176"):
                jlo_cochain(t).many(16, tuples, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
