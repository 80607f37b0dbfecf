import contextlib
import io
import itertools
import json

import numpy as np
import pytest

from heatchern.cli import main
from heatchern.linalg import simplex_exp
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
