"""The preconditions as a contract: what `check_shape_sym` and `check_shape_ns` accept is recovered.

A small box of shapes: dense order 3 with every dims in 2..6, and symmetric
n = 2..6 with m = 2..4.  On every accepted (shape, r) an exact rank-r input
is recovered to `residual_gp <= 1e-8 ||F||` at seeds 0-2, and the first
rank past the accepted ones raises ValueError from the solver itself.
"""

import itertools
import math

import pytest

from gptensor.generate import gen_random_ns, gen_random_sym
from gptensor.nonsymapprox import approx_nonsym, check_shape_ns
from gptensor.symapprox import approx_sym, check_shape_sym

SEEDS = (0, 1, 2)
TOL = 1e-8


def accepted_ranks(check, shape, top):
    """The ranks from 1 up that `check` accepts, and the first one it rejects (at most top + 1)."""
    for r in range(1, top + 2):
        try:
            check(*shape, r)
        except ValueError:
            return list(range(1, r)), r
    raise AssertionError(f"{shape} accepts rank {top + 1}, past the bound")


SYM_SHAPES = [(n, m) for n in range(2, 7) for m in range(2, 5)]
DENSE_SHAPES = list(itertools.product(range(2, 7), repeat=3))


@pytest.mark.parametrize("n,m", SYM_SHAPES, ids=[f"{n}-{m}" for n, m in SYM_SHAPES])
def test_sym_accepted_ranks_are_recovered(n, m):
    ranks, rejected = accepted_ranks(check_shape_sym, (n, m), math.comb(n - 1 + m, m))
    assert ranks, f"({n},{m}) accepts no rank"
    for r in ranks:
        for seed in SEEDS:
            F, _, _ = gen_random_sym(n, m, r, 0.0, seed)
            res = approx_sym(F, r, refine=False, seed=seed)
            assert res.residual_gp <= TOL * F.norm(), (n, m, r, seed, res.residual_gp / F.norm())
    F, _, _ = gen_random_sym(n, m, 1, 0.0, 0)
    with pytest.raises(ValueError):
        approx_sym(F, rejected, refine=False)


@pytest.mark.parametrize("dims", DENSE_SHAPES, ids=["x".join(map(str, d)) for d in DENSE_SHAPES])
def test_dense_accepted_ranks_are_recovered(dims):
    ranks, rejected = accepted_ranks(lambda *a: check_shape_ns(a[:-1], a[-1]), dims, max(dims))
    assert ranks, f"{dims} accepts no rank"
    for r in ranks:
        for seed in SEEDS:
            F, _, _ = gen_random_ns(dims, r, 0.0, seed)
            res = approx_nonsym(F, r, refine=False, seed=seed)
            assert res.residual_gp <= TOL * F.norm(), (dims, r, seed, res.residual_gp / F.norm())
    F, _, _ = gen_random_ns(dims, 1, 0.0, 0)
    with pytest.raises(ValueError):
        approx_nonsym(F, rejected, refine=False)
