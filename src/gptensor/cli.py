"""Command-line interface.

Subcommands: approx-sym, approx-ns, rank-est, gen, bench, paper-tensor.
Exit codes: 0 success, 2 precondition violation (bad arguments or input),
3 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .experiments import bench_preset
from .generate import NAMED_TENSORS, gen_random_ns, gen_random_sym, named_tensor
from .linalg import NumericalError
from .nonsymapprox import approx_nonsym
from .rank import spectrum_ns, spectrum_sym
from .symapprox import approx_sym
from .tensorio import read_tensor, render_report, write_report, write_tensor

EXIT_OK = 0
EXIT_PRECONDITION = 2
EXIT_NUMERICAL = 3


def _parse_split(text: str):
    try:
        left, right = text.split("|")
        s1 = tuple(int(x) for x in left.split(","))
        s2 = tuple(int(x) for x in right.split(","))
    except ValueError as exc:
        raise ValueError(f"bad split {text!r}; expected e.g. '1,2|3'") from exc
    return s1, s2


def _emit_report(path, meta, sections):
    if path is None or path == "-":
        sys.stdout.write(render_report(meta, sections))
    else:
        write_report(path, meta, sections)


def _meta(F) -> dict:
    return {"kind": F.kind, "order": F.order, "dims": F.dims}


def _solve_sym(F, args):
    """approx-sym's solve and one report block per term."""
    if F.kind != "sym":
        raise ValueError("approx-sym requires a symmetric tensor file")
    res = approx_sym(F, args.rank, refine=not args.no_refine, seed=args.seed)
    blocks = [{"point": p, "coefficient": [c]} for p, c in zip(res.points, res.coefficients)]
    if res.refined:
        for block, u in zip(blocks, res.u_opt):
            block["u_opt"] = u
    return res, blocks


def _solve_dense(F, args):
    """As `_solve_sym`; `mode*` holds the refined vectors and `gp_mode*` the unrefined ones."""
    if F.kind != "dense" or F.order < 3:
        raise ValueError("approx-ns requires a dense tensor file of order >= 3")
    res = approx_nonsym(F, args.rank, refine=not args.no_refine, seed=args.seed)
    tuples = res.tuples_opt if res.refined else res.tuples
    blocks = [{f"mode{t + 1}": v for t, v in enumerate(tup)} for tup in tuples]
    if res.refined:
        for block, tup in zip(blocks, res.tuples):
            block.update({f"gp_mode{t + 1}": v for t, v in enumerate(tup)})
    return res, blocks


def _cmd_approx(args) -> int:
    F = read_tensor(args.file)
    res, blocks = args.solve(F, args)
    result = {"residual_gp": res.residual_gp, "refined": res.refined}
    if res.refined:
        result["residual_opt"] = res.residual_opt
    result.update(res.diagnostics)
    sections = {"result": result, **{f"term{s}": block for s, block in enumerate(blocks)}}
    _emit_report(args.output, {**_meta(F), "rank": args.rank, "seed": args.seed}, sections)
    return EXIT_OK


def _cmd_rank_est(args) -> int:
    F = read_tensor(args.file)
    if F.kind == "sym":
        if args.split:
            raise ValueError("--split applies only to dense tensors")
        spec = spectrum_sym(F)
    else:
        split = _parse_split(args.split) if args.split else None
        spec = spectrum_ns(F, split=split)
    sections = {
        "spectrum": {
            "singular_values": [complex(v) for v in spec.singular_values],
            "suggested_rank": -1 if spec.suggested_rank is None else spec.suggested_rank,
            "flattening": f"{spec.shape[0]}x{spec.shape[1]}",
            "summary": spec.describe(),
        }
    }
    _emit_report(args.output, _meta(F), sections)
    return EXIT_OK


def _cmd_gen(args) -> int:
    dims = tuple(int(d) for d in args.dims.split(","))
    if args.kind == "sym":
        if len(dims) != 2:
            raise ValueError("--dims for sym must be n,m")
        F, _, _ = gen_random_sym(dims[0], dims[1], args.rank, args.eps, args.seed)
    else:
        F, _, _ = gen_random_ns(dims, args.rank, args.eps, args.seed)
    write_tensor(F, args.output)
    return EXIT_OK


def _cmd_bench(args) -> int:
    header, reports = bench_preset(args.preset)
    for line in header:
        print(line)
    for rep in reports:
        s = rep.spec
        label = f"{s.kind} dims={s.dims} r={s.rank} eps={s.eps:g} trials={s.trials}"
        if s.eps > 0:
            name, value, spec = "mrlerr", rep.mrlerr, ".4f"
        else:
            name, value, spec = "max_rel_residual", rep.max_rel_residual, ".3e"
        # a row whose every trial failed has no value
        text = "n/a" if value is None else format(value, spec)
        print(f"{label}: {name}={text} mean_time={rep.mean_time:.3f}s")
        if rep.failures:
            print(f"  failures: {rep.failures}/{s.trials}")
    return EXIT_OK


def _cmd_paper_tensor(args) -> int:
    t = named_tensor(args.name, args.n)
    write_tensor(t, args.output)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process.

    It binds only this module's `_cmd_*` and `_solve_*` functions, and those
    look up the solvers, `read_tensor` and `write_report` when they run.
    """
    p = argparse.ArgumentParser(
        prog="gptensor", description="Low-rank tensor approximation via generating polynomials"
    )
    sub = p.add_subparsers(dest="command", required=True)

    for name, kind, solve in (
        ("approx-sym", "symmetric", _solve_sym),
        ("approx-ns", "nonsymmetric", _solve_dense),
    ):
        sp = sub.add_parser(name, help=f"{kind} rank-r approximation")
        sp.add_argument("--rank", type=int, required=True)
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--no-refine", action="store_true")
        sp.add_argument("-o", "--output", default=None, help="report file (default: stdout)")
        sp.add_argument("file")
        sp.set_defaults(func=_cmd_approx, solve=solve)

    sp = sub.add_parser("rank-est", help="suggest a rank from a flattening spectrum")
    sp.add_argument("--split", default=None, help="mode bipartition, e.g. 1,2|3")
    sp.add_argument("-o", "--output", default=None)
    sp.add_argument("file")
    sp.set_defaults(func=_cmd_rank_est)

    sp = sub.add_parser("gen", help="generate a random low-rank instance")
    sp.add_argument("--kind", choices=("sym", "ns"), required=True)
    sp.add_argument("--dims", required=True, help="n,m for sym; n1,n2,... for ns")
    sp.add_argument("--rank", type=int, required=True)
    sp.add_argument("--eps", type=float, default=0.0)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("-o", "--output", required=True)
    sp.set_defaults(func=_cmd_gen)

    sp = sub.add_parser("bench", help="run a preset experiment table")
    sp.add_argument("--preset", choices=("table1", "table2", "table3", "table4"), required=True)
    sp.set_defaults(func=_cmd_bench)

    sp = sub.add_parser("paper-tensor", help="write a named benchmark tensor")
    sp.add_argument("--name", choices=NAMED_TENSORS, required=True)
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("-o", "--output", required=True)
    sp.set_defaults(func=_cmd_paper_tensor)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_PRECONDITION if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
