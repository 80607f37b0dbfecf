"""Ready-made triples and seeded random constructions used in testing.

The two named triples are the standing small examples: the exchange
triple (two-dimensional, Q the exchange matrix, index zero) and the
zero-mode triple (three-dimensional with a one-dimensional kernel,
index one).
"""

from __future__ import annotations

import numpy as np

from .linalg import opnorm
from .triples import HeatData, SpectralTriple

__all__ = [
    "exchange_triple",
    "zero_mode_triple",
    "random_triple",
    "random_even_element",
    "random_odd_element",
    "random_involution",
]


def exchange_triple(tol: float = 1e-10) -> SpectralTriple:
    """dim 2, Q = [[0,1],[1,0]], gamma = diag(1,-1), trivial group."""
    return SpectralTriple(
        dim=2,
        Q=np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
        gamma=np.diag([1.0, -1.0]).astype(complex),
        group=[np.eye(2, dtype=complex)],
        tol=tol,
    )


def zero_mode_triple(tol: float = 1e-10) -> SpectralTriple:
    """dim 3, gamma = diag(1,1,-1), one zero mode; equivariant index 1."""
    q = np.zeros((3, 3), dtype=complex)
    q[1, 2] = q[2, 1] = 1.0
    return SpectralTriple(
        dim=3,
        Q=q,
        gamma=np.diag([1.0, 1.0, -1.0]).astype(complex),
        group=[np.eye(3, dtype=complex)],
        tol=tol,
    )


def _balanced_grading(dim: int) -> np.ndarray:
    signs = [1.0 if k < (dim + 1) // 2 else -1.0 for k in range(dim)]
    return np.diag(signs).astype(complex)


def random_triple(
    dim: int,
    seed: int = 0,
    group: str = "trivial",
    tol: float = 1e-10,
) -> SpectralTriple:
    """Seeded triple with balanced grading and gamma-odd Hermitian Q of norm 1.

    group "trivial" gives the identity alone; "z2" adjoins the involution
    that flips the sign of one spectral cluster of Q^2 (it commutes with
    Q and gamma by construction).
    """
    rng = np.random.default_rng(seed)
    gamma = _balanced_grading(dim)
    p = (dim + 1) // 2
    m = dim - p
    block = rng.normal(size=(p, m)) + 1j * rng.normal(size=(p, m))
    q = np.zeros((dim, dim), dtype=complex)
    q[:p, p:] = block
    q[p:, :p] = block.conj().T
    # times the reciprocal: a division rounds differently and moves every seeded value
    q *= 1.0 / max(opnorm(q), 1e-12)
    members = [np.eye(dim, dtype=complex)]
    if group == "z2":
        w, v = np.linalg.eigh(q @ q)
        # flip the top spectral cluster; keep degenerate eigenvalues together
        cut = w[-1] - 1e-8 * max(w[-1], 1.0)
        signs = np.where(w >= cut, -1.0, 1.0)
        u = (v * signs) @ v.conj().T
        members.append(u.astype(complex))
    elif group != "trivial":
        raise ValueError(f"unknown group kind {group!r}")
    return SpectralTriple(dim=dim, Q=q, gamma=gamma, group=members, tol=tol)


def _group_project(t: HeatData, m: np.ndarray) -> np.ndarray:
    acc = np.zeros_like(m)
    for u in t.group:
        acc += u @ m @ u.conj().T
    return acc / len(t.group)


def random_even_element(
    t: HeatData, rng, unit: bool = True, group_invariant: bool = False
) -> np.ndarray:
    """Random gamma-even matrix, optionally group-averaged and unit-norm."""
    raw = rng.normal(size=(t.dim, t.dim)) + 1j * rng.normal(size=(t.dim, t.dim))
    a = (raw + t.conj_gamma(raw)) / 2.0
    if group_invariant:
        a = _group_project(t, a)
    if unit:
        a = a / max(opnorm(a), 1e-12)
    return a


def random_odd_element(t: SpectralTriple, rng) -> np.ndarray:
    """Random gamma-odd group-commuting Hermitian matrix."""
    raw = rng.normal(size=(t.dim, t.dim)) + 1j * rng.normal(size=(t.dim, t.dim))
    a = (raw - t.conj_gamma(raw)) / 2.0
    a = _group_project(t, a)
    return (a + a.conj().T) / 2.0


def random_involution(t: SpectralTriple, rng) -> np.ndarray:
    """Gamma-even group-commuting square root of unity.

    Built as the sign of a random Hermitian gamma-even group-invariant
    matrix, with the spectrum pushed away from zero.
    """
    h = random_even_element(t, rng, unit=False, group_invariant=True)
    h = (h + h.conj().T) / 2.0
    w, v = np.linalg.eigh(h)
    gap = 0.05 * max(abs(w[0]), abs(w[-1]), 1.0)
    w = np.where(np.abs(w) < gap, np.where(w >= 0, gap, -gap), w)
    return (v * np.sign(w)) @ v.conj().T
