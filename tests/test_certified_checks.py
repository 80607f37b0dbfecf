"""The Frobenius certificate decides every residual check as the SVD does.

A check ||x|| <= tol passes without an SVD when ||x||_F <= tol/2.  These
tests scale seeded residuals so that ||x||_2 lies in [tol/4, 4 tol], where
the certificate decides some and the SVD the rest, and compare each
decision and each read residual with the exact spectral norm, bit for bit.
"""

import tracemalloc

import numpy as np
import pytest

from heatchern.errors import NotHermitian, ValidationFailure, ZeroMomentumViolation
from heatchern.homotopy import linear_family, sweep_invariant
from heatchern.jlo import PairingInput, jlo_component, pairing
from heatchern.linalg import eig_hermitian, norm_certified, opnorm
from heatchern.models import random_involution, random_odd_element, random_triple, zero_mode_triple
from heatchern.split import build_n2_susy_example
from heatchern.triples import SpectralTriple, ValidationReport, validate_triple

# below 2^-399 the certificate declines and the SVD decides every check
TOLS = (1e-150, 1e-10, 1.0)
SCALES = (0.25, 0.4, 0.5, 0.7, 1.0, 1.5, 4.0)


def _unit(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def _residuals(seed: int):
    """Rank-1 and full-rank residuals of spectral norm 1, at dims 1-12."""
    rng = np.random.default_rng(seed)
    for dim in (1, 2, 3, 5, 8, 12):
        yield np.outer(_unit(rng, dim), _unit(rng, dim).conj())
        full = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        yield full / opnorm(full)


def _scaled(seed: int):
    for x in _residuals(seed):
        for tol in TOLS:
            for s in SCALES:
                yield s * tol * x, tol


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_a_norm_check_decides_and_reads_as_the_svd(seed):
    rep = ValidationReport()
    cases = list(_scaled(seed))
    for k, (x, tol) in enumerate(cases):
        rep.add_norm(f"case {k}", x, tol)
    assert any(c.certified for c in rep.checks)
    assert not all(c.certified for c in rep.checks)
    for c, (x, tol) in zip(rep.checks, cases):
        exact = opnorm(x)
        assert c.passed == (exact <= tol)
        assert c.residual == exact and c.tol == tol


def test_a_rank_one_residual_at_exactly_tol():
    # ||x||_F = ||x||_2 = tol: the certificate cannot decide, the SVD does
    tol = 1e-10
    x = np.zeros((4, 4), dtype=complex)
    x[1, 2] = tol
    rep = ValidationReport()
    rep.add_norm("edge", x, tol)
    (c,) = rep.checks
    assert not c.certified
    assert c.passed and c.residual == tol == opnorm(x)


@pytest.mark.parametrize("seed", [3, 4])
def test_relative_checks_certify_against_the_plain_tol(seed):
    rng = np.random.default_rng(seed)
    for (x, tol), s in zip(_scaled(seed), np.tile([0.3, 1.0, 7.0], 200)):
        dim = x.shape[0]
        scale = s * rng.normal(size=(dim, dim))
        rel, wide = ValidationReport(), ValidationReport()
        rel.add_norm("relative", x, tol, scale=scale)
        wide.add_norm("wide", x, tol, tol_scale=scale)
        exact_rel = opnorm(x) / max(opnorm(scale), 1.0)
        exact_tol = tol * max(opnorm(scale), 1.0)
        assert rel.checks[0].passed == (exact_rel <= tol)
        assert rel.checks[0].residual == exact_rel
        assert wide.checks[0].passed == (opnorm(x) <= exact_tol)
        assert wide.checks[0].tol == exact_tol


def test_only_an_open_check_takes_its_svd_when_recorded(monkeypatch):
    calls, svd = [], np.linalg.svd

    def counted(*args, **kw):
        calls.append(args[0].shape)
        return svd(*args, **kw)

    monkeypatch.setattr(np.linalg, "svd", counted)
    rep = ValidationReport()
    rep.add_norm("certified", 1e-12 * np.eye(2), 1e-10)
    assert calls == []
    rep.add_norm("open", 1e-10 * np.eye(3), 1e-10)
    assert len(calls) == 1
    assert rep.passed and len(calls) == 1
    # the certified residual is read, and computed, by the report's text
    assert str(rep).splitlines()[0] == f"[ok] certified: residual {1e-12:.3e} (tol {1e-10:.3e})"
    assert len(calls) == 2


def test_check_results_compare_and_print_by_value():
    x = 1e-12 * np.eye(2)
    lazy, exact = ValidationReport(), ValidationReport()
    lazy.add_norm("gamma^2 = I", x, 1e-10)
    exact.add("gamma^2 = I", opnorm(x), 1e-10)
    assert lazy.checks[0].certified and not exact.checks[0].certified
    assert lazy == exact
    assert repr(lazy.checks[0]) == repr(exact.checks[0]) == (
        f"CheckResult(name='gamma^2 = I', residual={opnorm(x)!r}, tol=1e-10)"
    )
    other = ValidationReport()
    other.add("gamma^2 = I", 2e-12, 1e-10)
    assert lazy != other


def test_a_group_report_holds_no_residual_per_member():
    # the member checks hold the functions that compute their residuals,
    # and a read computes the same bits as the product taken afresh
    base = random_triple(32, seed=2)
    members = [np.exp(2j * np.pi * k / 64) * np.eye(32) for k in range(64)]
    t = SpectralTriple(dim=32, Q=base.Q, gamma=base.gamma, group=members)
    tracemalloc.start()
    try:
        rep = validate_triple(t)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert rep.passed and all(c.certified for c in rep.checks[4:])
    assert held < len(members) * t.dim**2 * 16  # below one complex residual per member
    checks = {c.name: c for c in rep.checks}
    for k in (1, 17, 63):
        u = members[k]
        assert checks[f"group[{k}] unitary"].residual == opnorm(u.conj().T @ u - np.eye(32))
        for name, x in (("gamma", t.gamma), ("Q", t.Q)):
            assert checks[f"group[{k}] commutes with {name}"].residual == opnorm(u @ x - x @ u)


def test_q_hermitian_reads_the_relative_residual():
    t = random_triple(4, seed=11)
    rng = np.random.default_rng(11)
    for s in SCALES:
        skew = rng.normal(size=(4, 4)) * 1j
        skew = (skew + skew.conj().T) / 2  # anti-Hermitian part of Q
        bad = SpectralTriple(dim=4, Q=t.Q + s * 1e-10 * skew / opnorm(skew), gamma=t.gamma,
                             group=t.group)
        (check,) = [c for c in validate_triple(bad).checks if c.name == "Q hermitian"]
        exact = opnorm(bad.Q - bad.Q.conj().T) / max(opnorm(bad.Q), 1.0)
        assert check.passed == (exact <= bad.tol)
        assert check.residual == exact


def test_the_certificate_declines_what_it_cannot_prove():
    # squares of 1e-200 underflow to 0: a tol that small is left to the SVD
    x = np.full((3, 3), 1e-200, dtype=complex)
    assert not norm_certified(x, 1e-150)
    assert not norm_certified(np.zeros((3, 3)), 0.0)
    assert norm_certified(x, 1e-100)
    assert not norm_certified(np.full((2, 2), np.nan), 1.0)
    assert not norm_certified(np.full((2, 2), 1.0), np.nan)
    assert not norm_certified(np.full((2, 2), np.inf), np.inf)
    # a sum of squares past the float range certifies nothing, even against
    # a tol whose square overflows too
    assert not norm_certified(np.full((2, 2), 1e305), 1e300)
    assert norm_certified(np.full((2, 2), 1e150), 1e300)


@pytest.mark.parametrize("seed", [5, 6, 7])
def test_eig_hermitian_decides_as_the_exact_comparison(seed):
    rng = np.random.default_rng(seed)
    tol = 1e-8
    for dim in (2, 4, 9):
        raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        h = (raw + raw.conj().T) / 2
        skew = rng.normal(size=(dim, dim))
        skew = skew - skew.T
        base = np.abs(skew - skew.T).max()
        for s in (0.1, 0.25, 0.5, 0.7, 1.0, 2.0, 4.0):
            # the largest asymmetry is s tol max|a_ij| / 2 up to s tol ||a||
            a = h + s * tol * np.abs(h).max() * skew / base
            dev = np.abs(a - a.conj().T).max()
            limit = tol * max(opnorm(a), 1e-300)
            if dev > limit:
                with pytest.raises(NotHermitian, match=f"tolerance {limit:.3e}"):
                    eig_hermitian(a, tol)
            else:
                eig_hermitian(a, tol)


@pytest.mark.parametrize("seed", [8, 9])
def test_vertex_and_zero_momentum_guards_decide_as_the_svd(seed):
    rng = np.random.default_rng(seed)
    t = random_triple(6, seed=seed)
    s, _ = build_n2_susy_example(levels=((1.0, 0.5), (2.0, 1.0)))
    p = s.momentum
    for scale in SCALES:
        raw = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        even, odd = (raw + t.conj_gamma(raw)) / 2, (raw - t.conj_gamma(raw)) / 2
        a = even + scale * t.tol * odd / opnorm(t.conj_gamma(odd) - odd)
        x = t.conj_gamma(a) - a
        if opnorm(x) > t.tol * max(opnorm(a), 1.0):
            with pytest.raises(ValidationFailure, match="not gamma-even"):
                jlo_component(t, 0, [a])
        else:
            jlo_component(t, 0, [a])

        raw = rng.normal(size=(s.dim, s.dim)) + 1j * rng.normal(size=(s.dim, s.dim))
        comm = p @ raw - raw @ p
        b = np.eye(s.dim) + scale * s.tol * raw / opnorm(comm)
        r = opnorm(p @ b - b @ p)
        if r > s.tol * max(opnorm(b), 1.0):
            with pytest.raises(ZeroMomentumViolation, match=f"residual {r:.3e}"):
                s.check_algebra([b])
        else:
            s.check_algebra([b])


def test_a_sweep_takes_one_svd_per_point_and_one_for_a(monkeypatch):
    zero = zero_mode_triple()
    q = random_odd_element(zero, np.random.default_rng(97))
    fam = linear_family(zero, 0.3 * q / opnorm(q))
    inp = PairingInput(a=random_involution(zero, np.random.default_rng(5)))
    grid = np.linspace(-0.4, 0.4, 6)
    calls, svd = [], np.linalg.svd

    def counted(*args, **kw):
        calls.append(args[0].shape)
        return svd(*args, **kw)

    monkeypatch.setattr(np.linalg, "svd", counted)
    tab = sweep_invariant(fam, inp, grid)
    monkeypatch.undo()
    assert len(tab.rows) == len(grid)
    assert len(calls) <= len(grid) + 1


def test_opnorm_of_a_non_finite_matrix_is_inf_and_silent(capfd):
    # LAPACK wrote "On entry to DLASCL parameter number 4 had an illegal
    # value" to fd 2 for inf entries, and did not converge on NaN entries
    assert opnorm(np.full((3, 3), np.inf)) == np.inf
    assert opnorm(np.full((3, 3), np.nan)) == np.inf
    rep = ValidationReport()
    rep.add_norm("overflowed", np.array([[np.inf, 0.0], [0.0, np.nan]]), 1e-10)
    assert rep.checks[0].residual == np.inf and not rep.passed
    out, err = capfd.readouterr()
    assert out == "" and err == ""


def test_a_pairing_reads_the_norm_of_the_input_it_is_given():
    # the Hoelder bound scales with ||a||: an input whose a is replaced by a
    # valid involution of larger norm pairs as a fresh input with that a
    zero = zero_mode_triple()
    inp = PairingInput(a=np.diag([1.0, -1.0, 1.0]).astype(complex))
    pairing(zero, inp)
    wide = np.diag([1.0, -1.0, 1.0]).astype(complex)
    wide[0, 1] = 10.0  # [[1, c], [0, -1]] squares to I for every c
    inp.a = wide
    q = random_odd_element(zero, np.random.default_rng(97))
    fam = linear_family(zero, 0.3 * q / opnorm(q))
    grid = np.linspace(-0.4, 0.4, 3)
    again, fresh = pairing(zero, inp), pairing(zero, PairingInput(a=wide.copy()))
    assert again.truncation_level == fresh.truncation_level
    assert again.value == fresh.value
    swept = sweep_invariant(fam, inp, grid).values()
    assert np.array_equal(swept, sweep_invariant(fam, PairingInput(a=wide.copy()), grid).values())
