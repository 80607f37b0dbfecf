"""Record the library's values bit for bit on a fixed, seeded case list.

    python tools/value_hashes.py SRC OUT.json

SRC is the directory holding the ``heatchern`` package (``src`` in a
checkout).  OUT.json maps each case name to its values as ``float.hex``
strings (real, then imaginary part), so two trees are compared exactly,
signs of zeros included: run it on both and ``diff`` the files.  It covers
the library paths the CLI snapshot (``tools/cli_snapshot.py``) does not
reach:

- ``expectation_values`` on lists of gamma-even and gamma-odd vertices
  (pure parity), and on lists with a vertex of no parity (mixed);
- ``heat_expectation``: exact (value and error) and a small quadrature;
- the quadrature of graded level-2 lists [a_0, da_1, da_2], over more than
  one block of samples, on the trivial and z2 triples at dims 3, 6, 7, 8,
  12 and 24 at every group element; at dims 7, 8 and 24 the 5000 samples
  leave a ragged last chunk of points in each block;
- ``jlo_component`` at levels 0-6;
- the cocycle and coboundary-relation residuals, and ``norm_profile``.

Each runs on the trivial and z2 triples of ``models.random_triple`` at dims
1-12, at every group element, and on one unitarily rotated triple, whose
grading is not diagonal.  The pairings take ``pairing`` (value, series
value, tail bound and Connes value) and ``pairing_gaussian`` and
``pairing_series`` each alone, on a ``models.random_involution`` of the
trivial and z2 triples at dims 2-12 and every group element, of an m = 2
lift at dim 3, of a split triple (``build_n2_susy_example``), and of a
dim-96 triple scaled to ||da|| = 1, whose samples fill more than one stack
of exponentials.  The sweeps, which pair on one prepared pass per point,
take ``sweep_invariant``, ``beta_independence``, ``endpoint_grid`` and
``generating_functional`` on z2 triples at dims 3 and 6 at every group
element, and ``coupling_sweep`` on a split family whose Q2 rotates.
"""

import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np


def hexes(values):
    out = []
    for v in values:
        v = complex(v)
        out += [float.hex(v.real), float.hex(v.imag)]
    return out


def rotated(hc, t, seed):
    """``t`` conjugated by a seeded random unitary."""
    rng = np.random.default_rng(seed)
    w, _ = np.linalg.qr(rng.normal(size=(t.dim, t.dim)) + 1j * rng.normal(size=(t.dim, t.dim)))

    def rot(m):
        return w @ m @ w.conj().T

    return hc.SpectralTriple(dim=t.dim, Q=rot(t.Q), gamma=rot(t.gamma),
                             group=[rot(u) for u in t.group], tol=t.tol)


def triple_cases(hc, models, name, t, seed):
    """(name, values) of every case on one triple."""
    rng = np.random.default_rng(seed)
    dim = t.dim
    even = [models.random_even_element(t, rng) for _ in range(4)]
    odd = [models.random_odd_element(t, rng) for _ in range(3)]
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    pure = [[even[0]], [odd[0]], [even[0], odd[0]], [odd[0], odd[1]],
            [even[1], odd[0], odd[1]], [even[0], even[1], odd[2]],
            [odd[0], even[2], even[3], odd[1]], [even[0], odd[0], even[1], odd[1], odd[2]],
            [even[0], even[1], even[2], even[3], even[0]]]
    mixed = [[raw], [raw, odd[0]], [even[0], raw, even[1]], [odd[0], odd[1], raw, even[2]]]
    out = []
    for g in range(len(t.group)):
        at = f"{name}-g{g}"
        out += [(f"{at}-values-pure", hexes(hc.expectation_values(t, pure, g))),
                (f"{at}-values-mixed", hexes(hc.expectation_values(t, mixed, g)))]
        for k, verts in enumerate([pure[2], pure[4], pure[6], mixed[2]]):
            ev = hc.heat_expectation(t, verts, g)
            out.append((f"{at}-exact-{k}", hexes([ev.value, ev.estimated_error])))
        ev = hc.heat_expectation(t, pure[4], g, method="quadrature", samples=200, seed=3)
        out.append((f"{at}-quadrature", hexes([ev.value, ev.estimated_error])))
        args = [np.eye(dim, dtype=complex)] + even + even[:3]
        out.append((f"{at}-jlo", hexes([hc.jlo_component(t, n, args[: n + 1], g)
                                        for n in range(7)])))
    tau = hc.jlo_cochain(t)
    family = hc.linear_family(t, 0.3 * models.random_odd_element(t, rng))
    out += [(f"{name}-cocycle", hexes([hc.cocycle_residual(tau, t, samples=2,
                                                           levels=(0, 1, 2, 3), seed=seed)])),
            (f"{name}-relation", hexes([hc.coboundary_relation_residual(
                family, 0.4, samples=2, levels=(0, 1, 2), seed=seed)])),
            (f"{name}-profile", hexes([v for _, v in hc.norm_profile(
                tau, t, levels=(0, 1, 2, 3, 4), seed=seed, samples=3).levels]))]
    return out


def graded_quadratures(hc, models):
    """(name, values) of the quadrature on the character's level-2 lists."""
    out = []
    for dim, samples in [(3, 4097), (6, 4097), (12, 4097), (7, 5000), (8, 5000), (24, 5000)]:
        for group in ("trivial", "z2"):
            t = hc.random_triple(dim, seed=dim, group=group)
            rng = np.random.default_rng(30 + dim)
            a = [models.random_even_element(t, rng) for _ in range(3)]
            verts = [a[0], t.derive(a[1]), t.derive(a[2])]
            for g in range(len(t.group)):
                ev = hc.heat_expectation(t, verts, g, method="quadrature", samples=samples,
                                         seed=g)
                out.append((f"d{dim}-{group}-g{g}-quadrature-graded",
                            hexes([ev.value, ev.estimated_error])))
    return out


def pairing_cases(hc, name, t, inp):
    """(name, values) of both pairing routes, together and alone, at ``inp``."""
    res = hc.pairing(t, inp)
    series, trunc, tail = hc.pairing_series(t, inp)
    return [(f"{name}-pairing", hexes([res.value, res.series_value, res.tail_bound,
                                       res.connes_value, res.truncation_level])),
            (f"{name}-gaussian", hexes([hc.pairing_gaussian(t, inp)])),
            (f"{name}-series", hexes([series, trunc, tail]))]


def pairings(hc, models):
    """(name, values) of the pairing cases."""
    out = []
    for dim in range(2, 13):
        for group in ("trivial", "z2"):
            t = hc.random_triple(dim, seed=dim, group=group)
            a = models.random_involution(t, np.random.default_rng(dim))
            for g in range(len(t.group)):
                out += pairing_cases(hc, f"d{dim}-{group}-g{g}", t, hc.PairingInput(a=a, g=g))
    t = hc.random_triple(3, seed=54, group="z2")
    a = models.random_involution(t.lifted(2), np.random.default_rng(55))
    out += pairing_cases(hc, "d3-z2-m2", t, hc.PairingInput(a=a, m=2))
    s, _ = hc.build_n2_susy_example(levels=((1.0, 0.5), (2.5, 0.5)), taus=(0.0, 0.7))
    a = models.random_involution(s, np.random.default_rng(8))
    for g in range(len(s.group)):
        out += pairing_cases(hc, f"split-g{g}", s, hc.PairingInput(a=a, g=g))
    t = hc.random_triple(96, seed=97)
    a = models.random_involution(t, np.random.default_rng(97))
    q = t.Q / np.linalg.norm(t.derive(a), 2)
    t = hc.SpectralTriple(dim=96, Q=q, gamma=t.gamma, group=list(t.group))
    out += pairing_cases(hc, "d96-unit-da", t, hc.PairingInput(a=a))
    return out


def sweeps(hc, models):
    """(name, values) of the sweeps and of the generating functional."""
    out = []
    lams, epss, betas = [-0.4, 0.0, 0.4], [0.0, 0.3, 0.6], [0.5, 1.0, 2.0]
    for dim in (3, 6):
        t = hc.random_triple(dim, seed=60 + dim, group="z2")
        rng = np.random.default_rng(dim)
        a = models.random_involution(t, rng)
        q = models.random_odd_element(t, rng)
        e = models.random_even_element(t, rng, group_invariant=True)
        fam = hc.linear_family(t, 0.3 * q / np.linalg.norm(q, 2), regularizer=e @ e.conj().T)
        for g in range(len(t.group)):
            inp = hc.PairingInput(a=a, g=g)
            at = f"d{dim}-z2-g{g}"
            out += [(f"{at}-sweep", hexes(hc.sweep_invariant(fam, inp, lams).values())),
                    (f"{at}-beta", hexes(hc.beta_independence(t, inp, betas).values())),
                    (f"{at}-endpoint", hexes(hc.endpoint_grid(fam, epss, lams, inp).values())),
                    (f"{at}-functional", hexes([hc.generating_functional(t, inp, z)
                                                for z in (0.0, 0.7, 1.5j, 0.3 - 0.8j)]))]
    s, gens = hc.build_n2_susy_example(levels=((1.0, 0.5), (2.0, 1.0)), taus=(0.7,),
                                       thetas=(0.9,))

    def rotated(lam):
        return replace(s, Q2=math.cos(lam) * gens["Q2"] + math.sin(lam) * gens["Qt2"])

    for g in range(len(s.group)):
        inp = hc.PairingInput(a=s.gamma.copy(), g=g)
        out.append((f"split-g{g}-coupling", hexes(hc.coupling_sweep(rotated, inp, lams).values())))
    return out


def record(src, out):
    sys.path.insert(0, str(Path(src).resolve()))
    import heatchern as hc
    from heatchern import models

    if not Path(hc.__file__).resolve().is_relative_to(Path(src).resolve()):
        sys.exit(f"heatchern was imported from {hc.__file__}, not from {src}")
    result = {}
    triples = [(f"d{dim}-{group}", hc.random_triple(dim, seed=dim, group=group), dim)
               for dim in range(1, 13) for group in ("trivial", "z2")]
    triples.append(("d4-z2-rotated", rotated(hc, hc.random_triple(4, seed=4, group="z2"), 4), 4))
    for name, t, seed in triples:
        result.update(triple_cases(hc, models, name, t, seed))
    result.update(graded_quadratures(hc, models))
    result.update(pairings(hc, models))
    result.update(sweeps(hc, models))
    Path(out).write_text(json.dumps(result, indent=1) + "\n")


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    record(sys.argv[1], sys.argv[2])
