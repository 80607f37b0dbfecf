import contextlib
import io
import itertools
import json

import numpy as np
import pytest

from numpy.lib.stride_tricks import sliding_window_view

from heatchern.cli import main
from heatchern.linalg import _TAYLOR_TERMS, _TAYLOR_THETA, simplex_exp
from heatchern.models import exchange_triple, random_triple, zero_mode_triple


@pytest.fixture
def exchange():
    return exchange_triple()


@pytest.fixture
def zero_mode():
    return zero_mode_triple()


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def triple_factory():
    return random_triple


def _tuple_sum(t, mats, g=0, beta=1.0):
    """Reference <x_0..x_n;g> on the simplex of size beta: a sum over all
    dim^(n+1) eigenindex tuples.

    In the eigenbasis of H the trace runs over closed index walks
    i_0 -> i_1 -> ... -> i_n -> i_0, and the simplex integral of each walk
    is the divided difference simplex_exp of its n+1 eigenvalues.  A divided
    difference does not depend on the order of its points, so it is
    computed once per multiset of indices.  The oracle takes the plane
    itself, so it checks the lift rather than going through it.
    """
    lam, v = t.heat_data()
    vh = v.conj().T
    es = [vh @ t.gamma @ t.group[g] @ mats[0] @ v] + [vh @ m @ v for m in mats[1:]]
    n = len(mats) - 1
    kernel = {}
    total = 0.0 + 0.0j
    for idx in itertools.product(range(t.dim), repeat=n + 1):
        prod = 1.0 + 0.0j
        for j in range(n + 1):
            prod *= es[j][idx[j], idx[(j + 1) % (n + 1)]]
        key = tuple(sorted(idx))
        if key not in kernel:
            kernel[key] = simplex_exp(lam[list(key)], beta)
        total += prod * kernel[key]
    return total


def _expm_toeplitz_row(d, x, n: int) -> np.ndarray:
    """Reference first block row [E_0 | E_1 | ... | E_n] of exp(M), shape
    (dim, (n+1)*dim): the block-Toeplitz engine the series levels once came
    from, kept as an oracle for them.

    M has order (n+1)*dim, diag(d) on every diagonal block (``d`` real)
    and the (dim, dim) matrix ``x`` on every superdiagonal block (none
    when n = 0).  Upper block-Toeplitz matrices are closed under products,
    and a product of two of them is determined by their first block rows,
    so this runs the steps of ``expm`` on M (the same polynomial and
    scaling, and the same number of squarings) on first block rows alone.
    The polynomial is evaluated by Horner, not by ``_taylor``: powers of M
    would need full Toeplitz products, where a Horner step costs one
    (dim, dim) by (dim, n*dim) product.  A squaring costs one
    (dim, (n+1)*dim) by M-sized product, so the cost is O(s n^2 dim^3)
    against O(s n^3 dim^3) for ``expm`` on M.
    """
    d = np.asarray(d, dtype=float)
    x = np.asarray(x, dtype=complex)
    dim = d.size
    width = (n + 1) * dim
    diag = (np.arange(dim), np.arange(dim))
    out = np.zeros((dim, width), dtype=complex)
    out[diag] = 1.0
    # the 1-norm of M: column j of block k >= 1 holds |d_j| and column j of x
    nrm = float((np.abs(d) + (np.abs(x).sum(axis=0) if n else 0.0)).max())
    if nrm == 0.0:
        return out
    s = max(0, int(np.ceil(np.log2(nrm / _TAYLOR_THETA))))
    ds, xs = d / 2.0**s, x / 2.0**s
    for k in range(_TAYLOR_TERMS, 0, -1):
        # Horner step I + (M / 2^s) R / k on the first block row of R
        step = ds[:, None] * out
        step[:, dim:] += xs @ out[:, : width - dim]
        out = step / k
        out[diag] += 1.0
    # Block row j of the current power is its first row shifted right by
    # j blocks: the windows of the zero-padded first row, one block apart.
    pad = np.zeros((dim, n * dim), dtype=complex)
    for _ in range(s):
        win = sliding_window_view(np.concatenate([pad, out], axis=1), width, axis=1)
        toeplitz = win[:, ::-dim].transpose(1, 0, 2).reshape(width, width)
        out = out @ toeplitz
    return out


@pytest.fixture(scope="session")
def expm_toeplitz_row():
    return _expm_toeplitz_row


@pytest.fixture(scope="session")
def tuple_sum():
    return _tuple_sum


@pytest.fixture(scope="session")
def selftest_run(tmp_path_factory):
    """One ``heatchern selftest --seed 0 --output FILE`` run through ``cli.main``.

    Returns the exit code, the printed table and the output JSON.  The run
    executes the battery twice (C15), so the suite shares this one.
    """
    out = tmp_path_factory.mktemp("selftest") / "report.json"
    table = io.StringIO()
    with contextlib.redirect_stdout(table):
        code = main(["selftest", "--seed", "0", "--output", str(out)])
    return code, table.getvalue(), json.loads(out.read_text())
