"""The preconditions as a contract: what `check_shape_sym` and `check_shape_ns` accept is recovered.

A small box of shapes: dense order 3 with every dims in 2..6, dense order 4
with dims in 2..5 taken in non-increasing order (the solver moves the largest
mode first, so that order is the only one it sees), and symmetric n = 2..6
with m = 2..5.  On every accepted (shape, r) an exact rank-r input is
recovered to `residual_gp <= 1e-8 ||F||` at seeds 0-2, and the first rank
past the accepted ones raises ValueError from the solver itself, and exit
code 2 from the command line for a few shapes.

The same box records how far stage iii is from the noise: at eps = 1e-6
the largest kappa = `residual_gp / ||E||` (`refine=False`) of each family
stays below a recorded bound.
"""

import itertools
import math

import pytest

from gptensor.cli import EXIT_PRECONDITION, main
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


def sym_ranks(n, m):
    return accepted_ranks(check_shape_sym, (n, m), math.comb(n - 1 + m, m))


def dense_ranks(dims):
    return accepted_ranks(lambda *a: check_shape_ns(a[:-1], a[-1]), dims, max(dims))


SYM_SHAPES = [(n, m) for n in range(2, 7) for m in range(2, 6)]
DENSE_SHAPES = list(itertools.product(range(2, 7), repeat=3))
DENSE_SHAPES += [d for d in itertools.product(range(5, 1, -1), repeat=4) if list(d) == sorted(d, reverse=True)]

EPS = 1e-6
# About twice the largest kappa over seeds 0-2, which is the same at one BLAS
# thread and at two: 0.944 at (6,2) r=1, 804 at (4,3) r=4, 345 at (6,4) r=5,
# 8,969 at (4,5) r=9, 223 at 6x6x6 r=6 and 154 at 4x3x2x2 r=4.  A better
# stage ii lowers these bounds; nothing may raise them.
KAPPA_BOUNDS = {
    "sym m=2": 2.0,
    "sym m=3": 1600.0,
    "sym m=4": 700.0,
    "sym m=5": 18000.0,
    "dense order 3": 450.0,
    "dense order 4": 310.0,
}


@pytest.mark.parametrize("n,m", SYM_SHAPES, ids=[f"{n}-{m}" for n, m in SYM_SHAPES])
def test_sym_accepted_ranks_are_recovered(n, m):
    ranks, rejected = sym_ranks(n, m)
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
    ranks, rejected = dense_ranks(dims)
    assert ranks, f"{dims} accepts no rank"
    for r in ranks:
        for seed in SEEDS:
            F, _, _ = gen_random_ns(dims, r, 0.0, seed)
            res = approx_nonsym(F, r, refine=False, seed=seed)
            assert res.residual_gp <= TOL * F.norm(), (dims, r, seed, res.residual_gp / F.norm())
    F, _, _ = gen_random_ns(dims, 1, 0.0, 0)
    with pytest.raises(ValueError):
        approx_nonsym(F, rejected, refine=False)


@pytest.mark.parametrize(
    "kind,shape",
    [("sym", (4, 3)), ("sym", (3, 5)), ("ns", (4, 3, 2)), ("ns", (5, 3, 3, 2))],
    ids=["sym-4-3", "sym-3-5", "dense-4x3x2", "dense-5x3x3x2"],
)
def test_first_rejected_rank_exits_2(tmp_path, capsys, kind, shape):
    _, rejected = sym_ranks(*shape) if kind == "sym" else dense_ranks(shape)
    tns = str(tmp_path / "t.tns")
    assert main(["gen", "--kind", kind, "--dims", ",".join(map(str, shape)), "--rank", "1", "-o", tns]) == 0
    command = "approx-sym" if kind == "sym" else "approx-ns"
    assert main([command, "--rank", str(rejected), tns]) == EXIT_PRECONDITION
    assert capsys.readouterr().err.startswith("error: ")


def family_kappas(family):
    """kappa of every accepted (shape, r) of the family at each seed, keyed by (shape, r, seed)."""
    if family.startswith("sym"):
        m = int(family.removeprefix("sym m="))
        shapes = [(n, m) for n, k in SYM_SHAPES if k == m]
        ranks, gen, solve = sym_ranks, gen_random_sym, approx_sym
    else:
        order = int(family.removeprefix("dense order "))
        shapes = [(d,) for d in DENSE_SHAPES if len(d) == order]
        ranks, gen, solve = dense_ranks, gen_random_ns, approx_nonsym
    kappas = {}
    for shape in shapes:
        for r in ranks(*shape)[0]:
            for seed in SEEDS:
                F, _, _ = gen(*shape, r, EPS, seed)
                kappas[shape, r, seed] = solve(F, r, refine=False, seed=seed).residual_gp / EPS
    return kappas


@pytest.mark.parametrize("family", KAPPA_BOUNDS)
def test_kappa_record(family):
    kappas = family_kappas(family)
    worst = max(kappas, key=kappas.get)
    assert kappas[worst] <= KAPPA_BOUNDS[family], (worst, kappas[worst])
