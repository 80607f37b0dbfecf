"""Record the CLI's answers to a fixed, seeded case list, for comparing two trees.

    python tools/cli_snapshot.py SRC OUT.json

SRC is the directory holding the ``heatchern`` package (``src`` in a checkout).
Each case runs ``heatchern.cli.main`` in process; OUT.json maps its name to
``[exit code, stdout, stderr]``, where the stdout of a case that writes
``--output`` ends with that file.  The inputs are built here with numpy alone,
so two trees see the same bytes: run it on both and ``diff`` the files.  The
cases cover every command, valid and failing inputs, trivial, z2, cyclic and
split groups, and every writer: standard output and ``--output``, JSON and CSV.
"""

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

SX = np.array([[0, 1], [1, 0]], complex)
SY = np.array([[0, -1j], [1j, 0]])
SZ = np.diag([1.0, -1.0]).astype(complex)


def mat(m):
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m, complex)]


def random_triple(dim, seed, group):
    """Balanced grading, gamma-odd unit-norm Q, and the group kind named."""
    rng = np.random.default_rng(seed)
    p, eye = (dim + 1) // 2, np.eye(dim)
    gamma = np.diag([1.0] * p + [-1.0] * (dim - p)).astype(complex)
    b = rng.normal(size=(p, dim - p)) + 1j * rng.normal(size=(p, dim - p))
    q = np.zeros((dim, dim), complex)
    q[:p, p:], q[p:, :p] = b, b.conj().T
    q /= np.linalg.norm(q, 2)
    w, v = np.linalg.eigh(q @ q)
    top = v[:, w >= w[-1] - 1e-8] @ v[:, w >= w[-1] - 1e-8].conj().T
    doc = {"dim": dim, "Q": mat(q), "gamma": mat(gamma)}
    lists = {"z2": [eye, eye - 2 * top], "bad": [eye, eye - 2 * top, np.roll(eye, 1, 0)]}
    if group == "cyclic":
        doc["group"] = {"cyclic": 3, "generator": mat(eye + (np.exp(2j * np.pi / 3) - 1) * top)}
    elif group in lists:
        doc["group"] = [mat(u) for u in lists[group]]
    return doc, q, gamma, rng


def split_model(levels, broken=False):
    """The Clifford two-pair model with the group {I, exp(i(0.7 P + 0.9 J))}."""
    dim = 4 * len(levels)

    def blocks(f):
        out = np.zeros((dim, dim), complex)
        for k, (h, p) in enumerate(levels):
            out[4 * k:4 * k + 4, 4 * k:4 * k + 4] = f(h, p)
        return out

    q1 = blocks(lambda h, p: np.sqrt(h + p) * np.kron(SX, np.eye(2)))
    q2 = blocks(lambda h, p: np.sqrt(h - p) * np.kron(SZ, SX))
    qt2 = blocks(lambda h, p: np.sqrt(h - p) * np.kron(SZ, SY))
    jop = blocks(lambda h, p: 0.5j * np.kron(SZ, SX) @ np.kron(SZ, SY))
    w, v = np.linalg.eigh(0.7 * blocks(lambda h, p: p * np.eye(4)) + 0.9 * jop)
    gamma = np.kron(np.eye(len(levels)), np.kron(SZ, SZ))
    return {"dim": dim, "Q1": mat(q1), "Q2": mat(q1 if broken else q2), "gamma": mat(gamma),
            "group": [mat(np.eye(dim)), mat((v * np.exp(1j * w)) @ v.conj().T)],
            "a": mat(gamma), "q2_tilde": mat(qt2)}


def cases():
    """(name, argv, input document or None) in a fixed order."""
    out, bases = [], {}
    for dim, seed, group in [(2, 1, "trivial"), (3, 2, "trivial"), (3, 3, "z2"),
                             (5, 4, "z2"), (4, 5, "cyclic"), (3, 6, "bad")]:
        doc, q, gamma, rng = random_triple(dim, seed, group)
        raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        even = (raw + gamma @ raw @ gamma) / 2
        last = {"z2": 1, "bad": 1, "cyclic": 2}.get(group, 0)
        base = bases[dim, group] = dict(
            doc, a=mat(gamma), q=mat(0.3 * q), regularizer=mat(np.eye(dim)),
            tuple=[mat(np.eye(dim)), mat(even), mat(even.conj().T)])
        grids = ["--eps-grid=0:0.5:3", "--lambda-grid=0:1:2"]
        not_odd = {"Q": mat(q + np.diag(np.arange(dim) * 0.1))}
        out += [(f"d{dim}-{group}-{name}", argv, {**base, **over}) for name, argv, over in [
            ("validate", ["validate"], {}), ("index", ["index"], {}), ("pair", ["pair"], {}),
            ("beta-scan", ["beta-scan"], {}), ("beta-scan-csv", ["beta-scan", "--format=csv"], {}),
            (f"pair-g{last}", ["pair", f"--group-index={last}"], {}),
            ("pair-m2", ["pair"], {"a": {"m": 2, "matrix": mat(np.kron(SX, np.eye(dim)))}}),
            ("pair-not-involution", ["pair"], {"a": mat(2 * np.eye(dim))}),
            ("sweep", ["sweep", "--lambda-grid=0:1:3"], {}),
            ("sweep-csv", ["sweep", "--lambda-grid=0:1:3", "--format=csv"], {}),
            ("endpoint", ["endpoint", *grids], {}),
            ("endpoint-csv", ["endpoint", *grids, "--format=csv"], {}),
            ("endpoint-bad-regularizer", ["endpoint", *grids], {"regularizer": mat(-np.eye(dim))}),
            ("jlo-exact", ["jlo"], {}),
            ("jlo-quadrature", ["jlo", "--method=quadrature", "--seed=7"], {}),
            ("jlo-odd", ["jlo"], {"tuple": [mat(np.eye(dim)), mat(q)]}),
            ("validate-not-odd", ["validate"], not_odd), ("pair-not-odd", ["pair"], not_odd)]]
    exchange = random_triple(2, 1, "trivial")[0]
    out.append(("group-absent-validate", ["validate"], exchange))
    for label, spec in [("null", None), ("empty-list", []), ("zero", 0), ("false", False),
                        ("empty-string", ""), ("empty-object", {})]:
        out.append((f"group-{label}-validate", ["validate"], dict(exchange, group=spec)))
    for levels, tag in [(((1.0, 0.5),), "n2"), (((1.0, 0.5), (2.0, 1.0)), "n2-two-levels")]:
        good, broken = split_model(levels), split_model(levels, broken=True)
        out += [(f"{tag}-{name}", argv, doc) for name, argv, doc in [
            ("validate", ["validate"], good), ("validate-broken", ["validate"], broken),
            ("split-pair", ["split-pair"], good), ("split-pair-broken", ["split-pair"], broken),
            ("split-pair-g1", ["split-pair", "--group-index=1"], good),
            ("coupling-sweep", ["coupling-sweep", "--lambda-grid=0:1:3"], good),
            ("coupling-sweep-csv", ["coupling-sweep", "--lambda-grid=0:1:3", "--format=csv"], good)]]
    # every writer: --output in JSON and CSV, and a failing validate's payload
    for cmd, extra in [("pair", []), ("index", []), ("jlo", []), ("sweep", ["--lambda-grid=0:1:3"])]:
        out += [(f"d3-z2-{cmd}-output-{fmt}", [cmd, *extra, f"--format={fmt}",
                                               f"--output={cmd}-{fmt}.out"], bases[3, "z2"])
                for fmt in ("json", "csv")]
    out.append(("d3-bad-validate-output", ["validate", "--output=bad.out"], bases[3, "bad"]))
    # a generator whose square overflows, and nested objects missing a key
    huge = dict(bases[2, "trivial"], Q=mat(1e160 * SX), tuple=[mat(np.eye(2)), mat(SZ)])
    out += [(f"overflow-{cmd}", [cmd], huge) for cmd in
            ["pair", "sweep", "beta-scan", "endpoint", "index", "jlo", "validate"]]
    split = split_model(((1.0, 0.5),))
    out.append(("overflow-split-pair", ["split-pair"],
                dict(split, Q1=mat(1e160 * np.kron(SX, np.eye(2))))))
    out += [("missing-a-matrix", ["pair"], dict(bases[2, "trivial"], a={"m": 2})),
            ("missing-cyclic-generator", ["pair"], dict(bases[2, "trivial"], group={"cyclic": 2}))]
    # a "dim" the matrices do not match, and an eps^2 Z*Z that overflows
    two = bases[2, "trivial"]
    out += [("dim-unmatched", ["pair"], dict(two, dim=40000)),
            ("dim-unmatched-cyclic", ["pair"],
             dict(two, dim=40000, group={"cyclic": 2, "generator": mat(np.eye(2))})),
            ("dim-negative", ["pair"], dict(two, dim=-1)),
            ("endpoint-eps-overflow", ["endpoint", "--eps-grid=0:1e200:2"], two),
            ("endpoint-regularizer-overflow", ["endpoint", "--eps-grid=0:1e10:2"],
             dict(two, regularizer=mat(1e300 * np.eye(2)))),
            ("endpoint-csv-two-point-axes",
             ["endpoint", "--eps-grid=0:0.5:2", "--lambda-grid=0:1:2", "--format=csv"], two)]
    # grids over the points budget, refused before any grid array
    out += [("sweep-grid-over-budget", ["sweep", "--lambda-grid=0:1:20000000"], two),
            ("endpoint-grid-over-budget", ["endpoint", "--lambda-grid=0:1:100000000"], two),
            ("endpoint-grid-product-over-budget",
             ["endpoint", "--eps-grid=0:1:2", "--lambda-grid=0:1:2000"], two)]
    # dim 128, once over the block budget (21 levels), pairs; so does dim 96.  A
    # series over the sample budget (points*dim^3, about 360 samples at dim
    # 320 and ||da|| = 20) is refused before any exponential
    wide, q, gamma, _ = random_triple(128, 7, "trivial")
    out.append(("pair-over-block-budget", ["pair"], dict(wide, Q=mat(0.5 * q), a=mat(gamma))))
    wide, q, gamma, _ = random_triple(96, 7, "trivial")
    out.append(("pair-d96", ["pair"], dict(wide, Q=mat(0.5 * q), a=mat(gamma))))
    wide, q, gamma, _ = random_triple(320, 7, "trivial")
    out.append(("pair-over-sample-budget", ["pair", "--max-level=342"],
                dict(wide, Q=mat(10 * q), a=mat(gamma))))
    moving = dict(split_model(((1.0, 0.5), (2.0, 1.0))), a=mat(np.kron(SX, np.eye(4))))
    # split inputs through the shared pairing checks: an m = 2 block input, a
    # wrong-shaped a, and a moving input that also fails a^2 = I
    n2 = split_model(((1.0, 0.5),))
    block = {"m": 2, "matrix": mat(np.kron(np.eye(2), np.kron(SZ, SZ)))}
    out += [("n2-split-pair-m2", ["split-pair"], dict(n2, a=block)),
            ("n2-split-pair-wrong-shape", ["split-pair"], dict(n2, a=mat(SZ))),
            ("n2-coupling-sweep-wrong-shape", ["coupling-sweep", "--lambda-grid=0:1:3"],
             dict(n2, a=mat(SZ))),
            ("n2-coupling-sweep-q1-commuting-wrong-shape",
             ["coupling-sweep", "--lambda-grid=0:1:3", "--mode=q1_commuting"], dict(n2, a=mat(SZ))),
            ("n2-two-levels-split-pair-moving-not-involution", ["split-pair"],
             dict(moving, a=mat(2 * np.kron(SX, np.eye(4)))))]
    # the exchange triple scaled: Q = 12X pairs with 229 nodes, Q = 20X needs a
    # non-finite 537-node rule; --quad-nodes is an unknown option
    out += [("exchange-q12-pair", ["pair"], dict(exchange, Q=mat(12 * SX), a=mat(SZ))),
            ("exchange-q20-pair", ["pair"], dict(exchange, Q=mat(20 * SX), a=mat(SZ))),
            ("usage-quad-nodes", ["pair", "--quad-nodes=64"], dict(exchange, a=mat(SZ)))]
    # checks whose products leave the float range: a, gamma and a group member
    huge = mat(np.diag([1e308, 1.0]))
    huge_gamma = dict(exchange, gamma=mat(np.diag([1e308, -1.0])), a=mat(SZ))
    huge_group = dict(exchange, group=[mat(np.eye(2)), huge], a=mat(SZ))
    out += [("huge-a-pair", ["pair"], dict(exchange, a=huge)),
            ("huge-gamma-validate", ["validate"], huge_gamma),
            ("huge-gamma-pair", ["pair"], huge_gamma),
            ("huge-group-validate", ["validate"], huge_group),
            ("huge-group-pair", ["pair"], huge_group)]
    # one sweep input with two faults each: which check reports first
    not_involution = dict(two, a=mat(2 * np.eye(2)))
    out += [("sweep-bad-a-non-hermitian-q", ["sweep", "--lambda-grid=0.5:1:2"],
             dict(not_involution, q=mat([[0, 1], [0, 0]]))),
            ("endpoint-bad-a-eps-overflow", ["endpoint", "--eps-grid=1e200:1e201:2"],
             not_involution),
            ("beta-scan-bad-a-negative-beta", ["beta-scan", "--beta-list=-1,1"], not_involution)]
    # an exponential whose scaling 2^s leaves the float range (1-norm past
    # 2^1022; eps = 6e153 and 1e150 stay inside it), graded parts
    # (h + gamma h gamma)/2 whose sum overflows while H is finite, and cyclic
    # group powers past the float range
    ex = dict(exchange, Q=mat(SX), a=mat(SZ), q=mat(np.zeros((2, 2))),
              regularizer=mat(np.diag([1.0, 0.0])))
    ex_one = dict(ex, a=mat(np.eye(2)))
    zero_mode = {"dim": 3, "Q": mat(7e153 * np.array([[0, 0, 0], [0, 0, 1], [0, 1, 0]])),
                 "gamma": mat(np.diag([1.0, 1.0, -1.0])), "tuple": [mat(np.eye(3))] * 2}
    out += [(f"endpoint-scaling-eps-{eps}", ["endpoint", f"--eps-grid=0:{eps}:2",
                                             "--lambda-grid=0:0:1"], ex)
            for eps in ("7.07e153", "6e153", "1e150")]
    out += [("sweep-scaling-overflow", ["sweep", "--lambda-grid=0:0.7:2"],
             dict(ex_one, q=mat(1e154 * SX))),
            ("beta-scan-graded-overflow", ["beta-scan", "--beta-list=1e308"], ex_one),
            ("sweep-graded-overflow", ["sweep", "--lambda-grid=1:1:1"],
             dict(ex_one, q=mat(1e154 * SX))),
            ("endpoint-graded-overflow", ["endpoint", "--eps-grid=0:1e154:3"],
             dict(ex_one, regularizer=mat(np.eye(2)))),
            ("jlo-scaling-overflow", ["jlo"], zero_mode),
            ("index-cyclic-powers-overflow", ["index"],
             dict(ex, group={"cyclic": 3, "generator": mat(np.diag([1e308, 1.0]))}))]
    return out + [("n2-two-levels-split-pair-moving-input", ["split-pair"], moving),
                  ("missing-input", ["pair", "--input=missing.json"], None),
                  ("usage-unknown-command", ["nonsense"], None),
                  ("usage-bad-tol", ["pair", "--tol=0"], exchange),
                  ("selftest-seed-0", ["selftest", "--seed=0", "--output=selftest.json"], None)]


def snapshot(src, out):
    sys.path.insert(0, str(Path(src).resolve()))
    from heatchern import cli

    if not Path(cli.__file__).resolve().is_relative_to(Path(src).resolve()):
        sys.exit(f"heatchern was imported from {cli.__file__}, not from {src}")
    result, here = {}, os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for k, (name, argv, doc) in enumerate(cases()):
                if doc is not None:
                    Path(f"in{k}.json").write_text(json.dumps(doc))
                    argv = argv[:1] + [f"--input=in{k}.json"] + argv[1:]
                stdout, stderr = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    code = cli.main(argv)
                text = stdout.getvalue() + "".join(
                    Path(a.removeprefix("--output=")).read_text()
                    for a in argv if a.startswith("--output="))
                result[name] = [code, text, stderr.getvalue()]
        finally:
            os.chdir(here)
    Path(out).write_text(json.dumps(result, indent=1) + "\n")


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    snapshot(sys.argv[1], sys.argv[2])
