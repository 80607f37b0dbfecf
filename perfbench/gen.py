"""Seeded inputs for the benchmark, independent of ``heatchern.models``.

Every generator takes a ``numpy.random.Generator`` and returns plain numpy
arrays, so a change to the library cannot change what the benchmark feeds
it.  Each constructed object is checked admissible here, with the
benchmark's own residual checks, before anything is timed; a check that
fails raises ``InadmissibleInput``.

Scale convention: a triple paired with an involution ``a`` is rescaled so
that ``||[Q, a]|| = DA_NORM``.  The series route's truncation level, and so
its cost, follows ``||da||``; fixing it keeps the cost of a request class
the same from one seed to the next.
"""

from __future__ import annotations

import json
import math

import numpy as np

DA_NORM = 1.0  # ||[Q, a]|| of every generated (triple, involution) pair
MIN_DA = 0.8  # least ||[Q, a]|| accepted before rescaling a unit-norm Q
MIN_FRONT_TERM = 1e-3  # least |level-0 series term| accepted
Q_PERTURBATION = 0.35  # ||q|| / ||Q|| for deformation families (as in C09)
RESIDUAL_TOL = 1e-11  # admissibility residual, below the library's 1e-10


class InadmissibleInput(ValueError):
    """A generated object failed one of its structural checks."""


def opnorm(m) -> float:
    return float(np.linalg.norm(m, 2))


def _cgauss(rng, n: int) -> np.ndarray:
    return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))


def _require(name: str, residual: float, scale: float = 1.0):
    if not residual <= RESIDUAL_TOL * max(scale, 1.0):
        raise InadmissibleInput(f"{name}: residual {residual:.3e}")


def grading(dim: int) -> np.ndarray:
    signs = [1.0 if k < (dim + 1) // 2 else -1.0 for k in range(dim)]
    return np.diag(signs).astype(complex)


def _group_average(group, m: np.ndarray) -> np.ndarray:
    return sum(u @ m @ u.conj().T for u in group) / len(group)


def _pinch(m: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Keep only the blocks of ``m`` inside eigenspaces of Hermitian ``s``."""
    w, v = np.linalg.eigh(s)
    same = np.abs(w[:, None] - w[None, :]) < 1e-9 * max(1.0, float(np.abs(w).max()))
    return v @ ((v.conj().T @ m @ v) * same) @ v.conj().T


def _sign(h: np.ndarray) -> np.ndarray:
    """Sign of a Hermitian matrix, with the spectrum pushed away from 0."""
    h = (h + h.conj().T) / 2.0
    w, v = np.linalg.eigh(h)
    gap = 0.05 * max(abs(w[0]), abs(w[-1]), 1.0)
    w = np.where(np.abs(w) < gap, np.where(w >= 0, gap, -gap), w)
    return (v * np.sign(w)) @ v.conj().T


# -- plain triples ---------------------------------------------------------


def triple(rng, dim: int, group: str = "trivial") -> dict:
    """Unit-norm gamma-odd Hermitian Q on a balanced grading.

    ``group`` "z2" adjoins the unitary flipping the top spectral cluster of
    Q^2, which commutes with Q and gamma.
    """
    gamma = grading(dim)
    p = (dim + 1) // 2
    block = rng.normal(size=(p, dim - p)) + 1j * rng.normal(size=(p, dim - p))
    q = np.zeros((dim, dim), dtype=complex)
    q[:p, p:] = block
    q[p:, :p] = block.conj().T
    q /= opnorm(q)
    members = [np.eye(dim, dtype=complex)]
    if group == "z2":
        w, v = np.linalg.eigh(q @ q)
        signs = np.where(w >= w[-1] - 1e-8 * max(w[-1], 1.0), -1.0, 1.0)
        members.append((v * signs) @ v.conj().T)
    elif group != "trivial":
        raise ValueError(f"unknown group kind {group!r}")
    return {"dim": dim, "Q": q, "gamma": gamma, "group": members}


def check_triple(t: dict):
    q, gam, ident = t["Q"], t["gamma"], np.eye(t["dim"])
    _require("Q hermitian", opnorm(q - q.conj().T))
    _require("gamma^2 = I", opnorm(gam @ gam - ident))
    _require("Q gamma + gamma Q = 0", opnorm(q @ gam + gam @ q), opnorm(q))
    _require("group[0] = I", opnorm(t["group"][0] - ident))
    for u in t["group"]:
        _require("group unitary", opnorm(u.conj().T @ u - ident))
        _require("group commutes with gamma", opnorm(u @ gam - gam @ u))
        _require("group commutes with Q", opnorm(u @ q - q @ u), opnorm(q))


def blocked(t: dict, m: int) -> dict:
    """The Kronecker lift I_m (x) t, on which an m-blocked input acts."""
    em = np.eye(m)
    return {
        "dim": m * t["dim"],
        "Q": np.kron(em, t["Q"]),
        "gamma": np.kron(em, t["gamma"]),
        "group": [np.kron(em, u) for u in t["group"]],
    }


def involution(rng, gamma: np.ndarray, group) -> np.ndarray:
    """Gamma-even, group-commuting square root of unity."""
    raw = _cgauss(rng, gamma.shape[0])
    return _sign(_group_average(group, (raw + gamma @ raw @ gamma) / 2.0))


def check_involution(a: np.ndarray, gamma: np.ndarray, group):
    _require("a^2 = I", opnorm(a @ a - np.eye(a.shape[0])))
    _require("gamma a gamma = a", opnorm(gamma @ a @ gamma - a))
    for u in group:
        _require("a commutes with the group", opnorm(u @ a - a @ u))


def derivative(q: np.ndarray, gamma: np.ndarray, a: np.ndarray) -> np.ndarray:
    return q @ a - gamma @ a @ gamma @ q


def _front_term(lift: dict, a: np.ndarray, g: int) -> complex:
    """Tr(gamma U(g) a e^{-Q^2}), the level-0 term of the pairing series."""
    w, v = np.linalg.eigh(lift["Q"] @ lift["Q"])
    heat = (v * np.exp(-w)) @ v.conj().T
    return complex(np.trace(lift["gamma"] @ lift["group"][g] @ a @ heat))


def paired_triple(rng, dim: int, group: str = "trivial", m: int = 1, g: int = 0):
    """(triple, involution) with ||[Q, a]|| = DA_NORM; a is m-blocked.

    Q starts at unit norm.  An involution with ||[Q, a]|| < MIN_DA is
    redrawn, so the rescaled ||Q|| stays within [DA_NORM / 2, DA_NORM /
    MIN_DA]: the spread of the Q^2 spectrum, which also sets the series
    engine's cost, then stays in the same range for every seed.  So is one
    whose level-0 series term vanishes, on which the series route stops
    before doing any work.
    """
    t = triple(rng, dim, group)
    lift = blocked(t, m)
    for _ in range(64):
        a = involution(rng, lift["gamma"], lift["group"])
        da = opnorm(derivative(lift["Q"], lift["gamma"], a))
        if da >= MIN_DA:
            scaled = dict(lift, Q=lift["Q"] * (DA_NORM / da))
            if abs(_front_term(scaled, a, g)) >= MIN_FRONT_TERM:
                break
    else:
        raise InadmissibleInput("no involution with a working series route")
    t["Q"] = t["Q"] * (DA_NORM / da)
    check_triple(t)
    lift = blocked(t, m)
    check_involution(a, lift["gamma"], lift["group"])
    return t, a


def odd_perturbation(rng, t: dict) -> np.ndarray:
    """Gamma-odd Hermitian group-commuting q with ||q|| = 0.35 ||Q||."""
    raw = _cgauss(rng, t["dim"])
    q = _group_average(t["group"], (raw - t["gamma"] @ raw @ t["gamma"]) / 2.0)
    q = (q + q.conj().T) / 2.0
    q *= Q_PERTURBATION * opnorm(t["Q"]) / opnorm(q)
    _require("q hermitian", opnorm(q - q.conj().T))
    _require("q gamma-odd", opnorm(q @ t["gamma"] + t["gamma"] @ q), opnorm(q))
    for u in t["group"]:
        _require("q commutes with the group", opnorm(u @ q - q @ u), opnorm(q))
    return q


def regularizer(rng, t: dict) -> np.ndarray:
    """Unit-norm PSD Z*Z that is gamma-even and commutes with the group."""
    z = _cgauss(rng, t["dim"])
    zz = _group_average(t["group"], z.conj().T @ z)
    zz = (zz + t["gamma"] @ zz @ t["gamma"]) / 2.0
    zz = (zz + zz.conj().T) / 2.0
    zz /= opnorm(zz)
    _require("Z*Z PSD", max(0.0, -float(np.linalg.eigvalsh(zz)[0])))
    _require("Z*Z gamma-even", opnorm(t["gamma"] @ zz @ t["gamma"] - zz))
    for u in t["group"]:
        _require("Z*Z commutes with the group", opnorm(u @ zz - zz @ u))
    return zz


# -- split triples: the Clifford model of two supercharge pairs ------------

_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SZ = np.array([[1, 0], [0, -1]], dtype=complex)
_G = [np.kron(_SX, np.eye(2)), np.kron(_SY, np.eye(2)),
      np.kron(_SZ, _SX), np.kron(_SZ, _SY)]


def _blockdiag(blocks) -> np.ndarray:
    n = 4 * len(blocks)
    out = np.zeros((n, n), dtype=complex)
    for k, b in enumerate(blocks):
        out[4 * k : 4 * k + 4, 4 * k : 4 * k + 4] = b
    return out


def _expi(h: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(h)
    return (v * np.exp(1j * w)) @ v.conj().T


def split_triple(rng, blocks: int) -> dict:
    """Clifford model on 4*blocks dims with a zero-momentum involution.

    Each block carries levels h > |p| with Q1^2 = (h+p) I, Q2^2 = (h-p) I;
    ``Q2t`` is the rotation partner of Q2 and the group is
    {I, exp(i(tau P + theta J))}.  The input ``a`` commutes with gamma, P
    and J, hence with the group, and is rescaled with Q1 so that
    ||[Q1, a]|| = DA_NORM.
    """
    levels = []
    for _ in range(blocks):
        p = float(rng.uniform(-0.8, 0.8))
        levels.append((abs(p) + float(rng.uniform(0.2, 1.0)), p))
    gam = _blockdiag([np.kron(_SZ, _SZ)] * blocks)
    jop = _blockdiag([0.5j * (_G[2] @ _G[3])] * blocks)
    pop = _blockdiag([p * np.eye(4) for _, p in levels])
    q1 = _blockdiag([math.sqrt(h + p) * _G[0] for h, p in levels])
    q2 = _blockdiag([math.sqrt(h - p) * _G[2] for h, p in levels])
    q2t = _blockdiag([math.sqrt(h - p) * _G[3] for h, p in levels])
    tau, theta = (float(x) for x in rng.uniform(0.2, 1.2, size=2))
    group = [np.eye(4 * blocks, dtype=complex), _expi(tau * pop + theta * jop)]
    for _ in range(64):
        raw = _cgauss(rng, 4 * blocks)
        a = _sign(_pinch(_pinch(_pinch(raw, gam), pop), jop))
        da = opnorm(q1 @ a - a @ q1)
        if da > 0.05:
            break
    else:
        raise InadmissibleInput("no split involution with a nonzero derivative")
    s = {"dim": 4 * blocks, "Q1": q1 * (DA_NORM / da), "Q2": q2,
         "Q2t": q2t, "gamma": gam, "group": group, "a": a}
    check_split(s)
    return s


def check_split(s: dict):
    q1, q2, gam, a = s["Q1"], s["Q2"], s["gamma"], s["a"]
    ident = np.eye(s["dim"])
    for name, q in (("Q1", q1), ("Q2", q2), ("Q2t", s["Q2t"])):
        _require(f"{name} hermitian", opnorm(q - q.conj().T))
        _require(f"{name} gamma-odd", opnorm(q @ gam + gam @ q), opnorm(q))
    _require("gamma^2 = I", opnorm(gam @ gam - ident))
    _require("Q1 Q2 + Q2 Q1 = 0", opnorm(q1 @ q2 + q2 @ q1), opnorm(q1) * opnorm(q2))
    _require("Q2 Q2t + Q2t Q2 = 0",
             opnorm(q2 @ s["Q2t"] + s["Q2t"] @ q2), opnorm(q2) ** 2)
    h = (q1 @ q1 + q2 @ q2) / 2.0
    p = (q1 @ q1 - q2 @ q2) / 2.0
    for sign in (1.0, -1.0):
        _require("spectral cone |P| <= H",
                 max(0.0, -float(np.linalg.eigvalsh(h + sign * p)[0])), opnorm(h))
    q2sq = q2 @ q2
    for u in s["group"]:
        _require("group unitary", opnorm(u.conj().T @ u - ident))
        _require("group commutes with gamma", opnorm(u @ gam - gam @ u))
        _require("group commutes with Q1", opnorm(u @ q1 - q1 @ u), opnorm(q1))
        _require("group commutes with Q2^2", opnorm(u @ q2sq - q2sq @ u), opnorm(q2sq))
        _require("a commutes with the group", opnorm(u @ a - a @ u))
    _require("a^2 = I", opnorm(a @ a - ident))
    _require("gamma a gamma = a", opnorm(gam @ a @ gam - a))
    _require("[P, a] = 0", opnorm(p @ a - a @ p), opnorm(p))


# -- JSON documents in the CLI's input format --------------------------------


def matrix_json(m) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m)]


def triple_json(t: dict) -> dict:
    return {
        "dim": t["dim"],
        "Q": matrix_json(t["Q"]),
        "gamma": matrix_json(t["gamma"]),
        "group": [matrix_json(u) for u in t["group"]],
        "tol": 1e-10,
    }


def split_json(s: dict) -> dict:
    return {
        "dim": s["dim"],
        "Q1": matrix_json(s["Q1"]),
        "Q2": matrix_json(s["Q2"]),
        "gamma": matrix_json(s["gamma"]),
        "group": [matrix_json(u) for u in s["group"]],
        "tol": 1e-10,
    }


def dumps(doc) -> str:
    """Deterministic JSON text; Python writes floats in round-trip form."""
    return json.dumps(doc, separators=(",", ":"), sort_keys=True)
