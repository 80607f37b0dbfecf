"""The cyclic cochain complex: evaluable cochains and their operators.

Cochains are closures, not stored tensors: a cochain evaluates lazily at
(level n, tuple of n+1 matrices, group index), or at a list of tuples of
one level (``Cochain.many``).  The operators here wrap evaluators and
store no values.  Each passes all its faces, rotations or insertions for
all its tuples down as one batch, and sums each tuple's terms in a fixed
order, so a batch gets the bits of one-at-a-time calls.  The package's
heat-expectation cochains evaluate a batch with one stacked exponential
per level (``expectations.expectation_values``).  A cochain built from a
plain evaluator loops over a batch.  Class membership (D, C, N) is
declared and spot-checked, never proven.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ClassViolation, DimensionMismatch
from .expectations import _once_per_object, expectation_values
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
# Most complex entries of the tuples one batch of samples sends down (1 MiB
# of arguments).  The faces, rotations and insertions a batch expands into
# are a small multiple of it, so a large sample count is evaluated in
# bounded memory, as one tuple at a time was.
_BATCH_ENTRIES = 2**16


def _batch_size(n: int, dim: int) -> int:
    """How many tuples of n+1 dim x dim arguments one batch takes: at least
    one, and ``_BATCH_ENTRIES`` entries when more than one."""
    return max(1, _BATCH_ENTRIES // ((n + 1) * dim * dim))


@dataclass
class Cochain:
    """A lazily evaluable family {f_n} over a fixed group of unitaries.

    evaluator(n, mats, g) returns the complex value of f_n on a tuple of
    n+1 matrices at group index g.  ``cclass`` declares membership: D for
    no vanishing constraint, C for vanishing when any argument past the
    zeroth is the identity, N when the zeroth argument counts as well.
    ``many`` evaluates a list of tuples at one level: a cochain built here
    passes the whole list down as one batch, and one built from a plain
    evaluator loops over it.
    """

    evaluator: Callable[[int, tuple, int], complex]
    group: list[np.ndarray]
    max_level: int
    cclass: str = "C"
    _many: Callable[[int, list, int], list] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        if self.cclass not in _CLASS_RANK:
            raise ValueError(f"unknown class {self.cclass!r}")

    def __call__(self, n: int, mats, g: int = 0) -> complex:
        return self.many(n, [mats], g)[0]

    def many(self, n: int, tuples, g: int = 0) -> list[complex]:
        """[f_n(mats; g) for mats in tuples], with the bits of each call alone."""
        if n < 0 or n > self.max_level:
            raise DimensionMismatch(
                f"level {n} outside [0, {self.max_level}]"
            )
        tuples = [tuple(mats) for mats in tuples]
        for mats in tuples:
            if len(mats) != n + 1:
                raise DimensionMismatch(
                    f"level {n} needs {n + 1} arguments, got {len(mats)}"
                )
        if self._many is None:
            return [self.evaluator(n, mats, g) for mats in tuples]
        return self._many(n, tuples, g) if tuples else []

    def conj_group_inv(self, a, g: int):
        u = self.group[g]
        return u.conj().T @ a @ u


def _batched(many, group, max_level: int, cclass: str) -> Cochain:
    """The cochain evaluated by ``many(n, tuples, g)``, a list of values; its
    ``evaluator`` is a batch of one."""
    f = Cochain(lambda n, mats, g: many(n, [mats], g)[0], group, max_level, cclass)
    f._many = many
    return f


def _signed_sums(vals, count: int, signs) -> list[complex]:
    """Per consecutive run of len(signs) values, sum_j signs[j] * value_j,
    accumulated from 0 in order; ``count`` runs."""
    out = []
    for i in range(count):
        tot = 0.0 + 0.0j
        for j, sign in enumerate(signs):
            tot += sign * vals[i * len(signs) + j]
        out.append(tot)
    return out


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

    def ensure(n, tuples, g):
        if done[0]:
            return
        done[0] = True
        mats = tuples[0]
        dim = f.group[0].shape[0]
        probe = (np.eye(dim, dtype=complex),) + mats[1:]
        value, probed = f.many(n, [mats, probe], g)
        scale = abs(value) + 1.0
        val = abs(probed)
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

    def many(n, tuples, g):
        ensure(n, tuples, g)
        rots = [(f.conj_group_inv(mats[-1], g),) + mats[:-1] for mats in tuples]
        return [(-1) ** n * v for v in f.many(n, rots, g)]

    return _batched(many, f.group, f.max_level, "N")


def op_A(f: Cochain) -> Cochain:
    """Cyclic antisymmetrization, the sum of all powers of T at each level.

    Every power of every tuple goes down as one batch; a tuple's conjugated
    arguments are formed once and shared by its powers.
    """
    ensure = _lazy_annihilator_check(f, "A")

    def many(n, tuples, g):
        ensure(n, tuples, g)
        rots = []
        for mats in tuples:
            conj = [f.conj_group_inv(a, g) for a in mats[1:]]
            rots += [tuple(conj[n - j :]) + mats[: n + 1 - j] for j in range(n + 1)]
        signs = [(-1) ** (n * j) for j in range(n + 1)]
        return _signed_sums(f.many(n, rots, g), len(tuples), signs)

    return _batched(many, f.group, f.max_level, "N")


def op_U(f: Cochain) -> Cochain:
    """Annihilation: (Uf)(a_0..a_{n-1}) = f(I, a_0..a_{n-1}); lowers the level."""
    dim = f.group[0].shape[0]
    out_class = "N" if f.cclass in ("C", "N") else "D"

    def many(n, tuples, g):
        ident = np.eye(dim, dtype=complex)
        return f.many(n + 1, [(ident,) + mats for mats in tuples], g)

    return _batched(many, f.group, f.max_level - 1, out_class)


def _face(f: Cochain, r: int, m: int, mats, g: int) -> tuple:
    """The arguments of the face (V(r) f)_m, of sign (-1)^r: the adjacent
    product at r, or the wrap at r = m."""
    if r <= m - 1:
        return mats[:r] + (mats[r] @ mats[r + 1],) + mats[r + 2 :]
    if r == m:
        return (f.conj_group_inv(mats[m], g) @ mats[0],) + mats[1:m]
    raise DimensionMismatch(f"V({r}) undefined at output level {m}")


def op_V(r: int, f: Cochain) -> Cochain:
    """Creation conjugated by r cyclic steps; raises the level by one.

    At output level m: multiplies arguments r and r+1 for r <= m-1 with
    sign (-1)^r, and for r = m wraps a_m^{g^-1} onto a_0 with sign (-1)^m.
    """
    if r < 0:
        raise ValueError(f"r must be nonnegative, got {r}")

    def many(m, tuples, g):
        faces = [_face(f, r, m, mats, g) for mats in tuples]
        return [(-1) ** r * v for v in f.many(m - 1, faces, g)]

    return _batched(many, f.group, f.max_level + 1, "D")


def op_b(f: Cochain) -> Cochain:
    """Hochschild coboundary, the sum of the faces V(0..m); raises the level by one.

    Every face of every tuple goes down as one batch.
    """
    _require_class(f, "C", "b")

    def many(m, tuples, g):
        if m < 1:
            raise DimensionMismatch("b has no component at level 0")
        faces = [_face(f, r, m, mats, g) for mats in tuples for r in range(m + 1)]
        signs = [(-1) ** r for r in range(m + 1)]
        return _signed_sums(f.many(m - 1, faces, g), len(tuples), signs)

    return _batched(many, f.group, f.max_level + 1, "C")


def op_B(f: Cochain) -> Cochain:
    """Connes coboundary B = A U (antisymmetrized annihilation); lowers the level."""
    _require_class(f, "C", "B")
    return op_A(op_U(f))


def _coboundary(f: Cochain, sign_B: int) -> Cochain:
    """b + B, or b - B when sign_B is negative."""
    bf = op_b(f)
    Bf = op_B(f)

    def many(m, tuples, g):
        tots = [0.0 + 0.0j] * len(tuples)
        if m <= Bf.max_level:
            tots = [v if sign_B > 0 else -v for v in Bf.many(m, tuples, g)]
        if m >= 1:
            tots = [tot + v for tot, v in zip(tots, bf.many(m, tuples, g))]
        return tots

    return _batched(many, f.group, f.max_level + 1, "C")


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

    def many(n, tuples, g):
        # one vertex per (slot, argument object)
        slots = [_once_per_object(lambda a: cs[0] @ a)] + [
            _once_per_object(lambda a, c=c: c @ pi(a)) for c in cs[1 : n + 1]
        ]
        return expectation_values(
            t, [[slots[j](a) for j, a in enumerate(mats)] for mats in tuples], g
        )

    return _batched(many, t.group, max_level, "C")


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

    A level's samples go to ``f.many`` as batches of ``_batch_size``, one
    per group element, drawn in order.  No levels or ``samples`` < 1 raise
    ValueError: the profile would be empty.
    """
    _require_samples(levels, samples)
    rng = np.random.default_rng(seed)
    prof = CochainNormProfile()
    for n in levels:
        best = 0.0
        per_batch = _batch_size(n, t.dim)
        for lo in range(0, samples, per_batch):
            tuples = [_random_even_tuple(t, rng, n) for _ in range(min(per_batch, samples - lo))]
            by_group = [f.many(n, tuples, g) for g in range(len(t.group))]
            for k in range(len(tuples)):
                for vals in by_group:
                    best = max(best, abs(vals[k]))
        prof.levels.append((n, best))
    return prof
