"""The cyclic cochain complex: evaluable cochains and their operators.

Cochains are closures, not stored tensors: a cochain evaluates lazily at
(level n, tuple of n+1 matrices, group index).  The operators here wrap
evaluators; none of them precompute anything.  Class membership (D, C, N)
is declared and spot-checked, never proven.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ClassViolation, DimensionMismatch
from .expectations import expectation_value
from .models import random_even_element
from .triples import SpectralTriple, ValidationReport

__all__ = [
    "Cochain",
    "CochainNormProfile",
    "op_T",
    "op_A",
    "op_U",
    "op_V",
    "op_b",
    "op_B",
    "op_partial",
    "op_partial_bar",
    "random_cochain",
    "cocycle_residual",
    "check_cochain_invariants",
    "norm_profile",
]

_CLASS_RANK = {"D": 0, "C": 1, "N": 2}


@dataclass
class Cochain:
    """A lazily evaluable family {f_n} over a fixed group of unitaries.

    evaluator(n, mats, g) returns the complex value of f_n on a tuple of
    n+1 matrices at group index g.  ``cclass`` declares membership: D for
    no vanishing constraint, C for vanishing when any argument past the
    zeroth is the identity, N when the zeroth argument counts as well.
    """

    evaluator: Callable[[int, tuple, int], complex]
    group: list[np.ndarray]
    max_level: int
    cclass: str = "C"

    def __post_init__(self):
        if self.cclass not in _CLASS_RANK:
            raise ValueError(f"unknown class {self.cclass!r}")

    def __call__(self, n: int, mats, g: int = 0) -> complex:
        if n < 0 or n > self.max_level:
            raise DimensionMismatch(
                f"level {n} outside [0, {self.max_level}]"
            )
        mats = tuple(mats)
        if len(mats) != n + 1:
            raise DimensionMismatch(
                f"level {n} needs {n + 1} arguments, got {len(mats)}"
            )
        return self.evaluator(n, mats, g)

    def conj_group_inv(self, a, g: int):
        u = self.group[g]
        return u.conj().T @ a @ u


def _require_class(f: Cochain, needed: str, op: str):
    if _CLASS_RANK[f.cclass] < _CLASS_RANK[needed]:
        raise ClassViolation(
            f"{op} needs a class-{needed} cochain, got class {f.cclass}"
        )


def _lazy_annihilator_check(f: Cochain, op: str):
    """One-shot check, on first evaluation, that f kills the identity.

    Cochains declared class N are trusted; anything else is probed with
    the identity substituted into the zeroth slot of the first tuple seen
    and a ClassViolation names the witnessing level on failure.
    """
    done = [f.cclass == "N"]

    def ensure(n, mats, g):
        if done[0]:
            return
        done[0] = True
        dim = f.group[0].shape[0]
        probe = (np.eye(dim, dtype=complex),) + mats[1:]
        scale = abs(f(n, mats, g)) + 1.0
        val = abs(f(n, probe, g))
        if val > 1e-8 * scale:
            raise ClassViolation(
                f"{op} needs an identity-annihilating (class N) cochain; "
                f"witnessed |f_{n}(I, ...)| = {val:.3e} (declared class "
                f"{f.cclass})"
            )

    return ensure


def op_T(f: Cochain) -> Cochain:
    """Cyclic transposition (Tf)(a_0..a_n;g) = (-1)^n f(a_n^{g^-1}, a_0..a_{n-1};g)."""
    ensure = _lazy_annihilator_check(f, "T")

    def ev(n, mats, g):
        ensure(n, mats, g)
        rot = (f.conj_group_inv(mats[-1], g),) + mats[:-1]
        return (-1) ** n * f(n, rot, g)

    return Cochain(ev, f.group, f.max_level, "N")


def op_A(f: Cochain) -> Cochain:
    """Cyclic antisymmetrization, the sum of all powers of T at each level."""
    ensure = _lazy_annihilator_check(f, "A")

    def ev(n, mats, g):
        ensure(n, mats, g)
        tot = 0.0 + 0.0j
        for j in range(n + 1):
            head = tuple(f.conj_group_inv(a, g) for a in mats[n + 1 - j :])
            tot += (-1) ** (n * j) * f(n, head + mats[: n + 1 - j], g)
        return tot

    return Cochain(ev, f.group, f.max_level, "N")


def op_U(f: Cochain) -> Cochain:
    """Annihilation: (Uf)(a_0..a_{n-1}) = f(I, a_0..a_{n-1}); lowers the level."""
    dim = f.group[0].shape[0]
    out_class = "N" if f.cclass in ("C", "N") else "D"

    def ev(n, mats, g):
        return f(n + 1, (np.eye(dim, dtype=complex),) + mats, g)

    return Cochain(ev, f.group, f.max_level - 1, out_class)


def _face(f: Cochain, r: int, m: int, mats, g: int) -> complex:
    """The signed face (V(r) f)_m: adjacent product at r, or the wrap at r = m."""
    if r <= m - 1:
        merged = mats[:r] + (mats[r] @ mats[r + 1],) + mats[r + 2 :]
        return (-1) ** r * f(m - 1, merged, g)
    if r == m:
        merged = (f.conj_group_inv(mats[m], g) @ mats[0],) + mats[1:m]
        return (-1) ** m * f(m - 1, merged, g)
    raise DimensionMismatch(f"V({r}) undefined at output level {m}")


def op_V(r: int, f: Cochain) -> Cochain:
    """Creation conjugated by r cyclic steps; raises the level by one.

    At output level m: multiplies arguments r and r+1 for r <= m-1 with
    sign (-1)^r, and for r = m wraps a_m^{g^-1} onto a_0 with sign (-1)^m.
    """
    if r < 0:
        raise ValueError(f"r must be nonnegative, got {r}")

    def ev(m, mats, g):
        return _face(f, r, m, mats, g)

    return Cochain(ev, f.group, f.max_level + 1, "D")


def op_b(f: Cochain) -> Cochain:
    """Hochschild coboundary, the sum of the faces V(0..m); raises the level by one."""
    _require_class(f, "C", "b")

    def ev(m, mats, g):
        if m < 1:
            raise DimensionMismatch("b has no component at level 0")
        tot = 0.0 + 0.0j
        for r in range(m + 1):
            tot += _face(f, r, m, mats, g)
        return tot

    return Cochain(ev, f.group, f.max_level + 1, "C")


def op_B(f: Cochain) -> Cochain:
    """Connes coboundary B = A U (antisymmetrized annihilation); lowers the level."""
    _require_class(f, "C", "B")
    return op_A(op_U(f))


def _coboundary(f: Cochain, sign_B: int) -> Cochain:
    """b + B, or b - B when sign_B is negative."""
    bf = op_b(f)
    Bf = op_B(f)

    def ev(m, mats, g):
        tot = 0.0 + 0.0j
        if m <= Bf.max_level:
            tot = Bf(m, mats, g) if sign_B > 0 else -Bf(m, mats, g)
        if m >= 1:
            tot += bf(m, mats, g)
        return tot

    return Cochain(ev, f.group, f.max_level + 1, "C")


def op_partial(f: Cochain) -> Cochain:
    """The coboundary b + B of entire cyclic cohomology."""
    return _coboundary(f, 1)


def op_partial_bar(f: Cochain) -> Cochain:
    """The companion coboundary b - B (also nilpotent); no pairing attached."""
    return _coboundary(f, -1)


def random_cochain(t: SpectralTriple, seed: int, max_level: int = 6) -> Cochain:
    """Seeded class-C cochain of heat-expectation form.

    G_n(a_0..a_n;g) = <c_0 a_0, c_1 pi(a_1), ..., c_n pi(a_n); g>_n with
    fixed random interleavers c_j (gamma-even, commuting with the group,
    normalized to unit norm) and the trace-free projection
    pi(a) = a - (Tr a / dim) I.  The projection makes the class-C
    vanishing hold identically, and group-invariant interleavers make the
    diagonal invariance exact.
    """
    rng = np.random.default_rng(seed)
    dim = t.dim
    cs = [
        random_even_element(t, rng, group_invariant=True)
        for _ in range(max_level + 1)
    ]
    ident = np.eye(dim, dtype=complex)

    def pi(a):
        return a - (np.trace(a) / dim) * ident

    def ev(n, mats, g):
        verts = [cs[0] @ mats[0]] + [cs[j] @ pi(mats[j]) for j in range(1, n + 1)]
        return expectation_value(t, verts, g)

    return Cochain(ev, t.group, max_level, "C")


def _random_even_tuple(t: SpectralTriple, rng, n: int):
    return tuple(random_even_element(t, rng) for _ in range(n + 1))


def _require_samples(levels, samples: int):
    if samples < 1 or len(levels) == 0:
        raise ValueError(f"need samples >= 1 and a level, got {samples} and {levels!r}")


def cocycle_residual(
    f: Cochain,
    t: SpectralTriple,
    samples: int = 5,
    levels=(0, 1, 2, 3),
    seed: int = 0,
) -> float:
    """max |(bf + Bf)_n| over seeded gamma-even tuples, levels, and group."""
    prof = norm_profile(op_partial(f), t, levels, seed=seed, samples=samples)
    return max(v for _, v in prof.levels)


def check_cochain_invariants(
    f: Cochain,
    t: SpectralTriple,
    seed: int = 0,
    levels=(1, 2),
    samples: int = 3,
) -> ValidationReport:
    """Spot-check declared class vanishing and the diagonal invariance.

    Violations are reported with the witnessing level and slot; this is a
    diagnostic, not a proof of membership.  No levels or ``samples`` < 1
    raise ValueError, since a check of nothing would pass.
    """
    _require_samples(levels, samples)
    rng = np.random.default_rng(seed)
    rep = ValidationReport()
    ident = np.eye(t.dim, dtype=complex)
    for n in levels:
        for k in range(samples):
            mats = _random_even_tuple(t, rng, n)
            if f.cclass in ("C", "N"):
                for slot in range(1, n + 1):
                    probe = mats[:slot] + (ident,) + mats[slot + 1 :]
                    rep.add(
                        f"class-{f.cclass} vanishing, level {n}, slot {slot}, sample {k}",
                        abs(f(n, probe, 0)),
                        1e-10,
                    )
            if f.cclass == "N":
                probe = (ident,) + mats[1:]
                rep.add(
                    f"class-N vanishing, level {n}, slot 0, sample {k}",
                    abs(f(n, probe, 0)),
                    1e-10,
                )
            for g in range(len(t.group)):
                conj = tuple(t.conj_group_inv(a, g) for a in mats)
                rep.add(
                    f"diagonal invariance, level {n}, g {g}, sample {k}",
                    abs(f(n, conj, g) - f(n, mats, g)),
                    1e-10,
                )
    return rep


@dataclass
class CochainNormProfile:
    """Sampled lower bounds to the level norms, for entire-decay monitoring."""

    levels: list[tuple[int, float]] = field(default_factory=list)

    def decay_sequence(self):
        """n^(1/2) ||f_n||^(1/n) over the sampled levels with n >= 1."""
        return [
            (n, float(np.sqrt(n) * v ** (1.0 / n)))
            for n, v in self.levels
            if n >= 1 and v > 0
        ]


def norm_profile(
    f: Cochain,
    t: SpectralTriple,
    levels,
    seed: int = 0,
    samples: int = 8,
) -> CochainNormProfile:
    """Sampled sup of |f_n| over unit-norm gamma-even tuples, per level.

    No levels or ``samples`` < 1 raise ValueError: the profile would be empty.
    """
    _require_samples(levels, samples)
    rng = np.random.default_rng(seed)
    prof = CochainNormProfile()
    for n in levels:
        best = 0.0
        for _ in range(samples):
            mats = _random_even_tuple(t, rng, n)
            for g in range(len(t.group)):
                best = max(best, abs(f(n, mats, g)))
        prof.levels.append((n, best))
    return prof
