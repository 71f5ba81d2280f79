"""Command-line front end.

Exit codes: 0 success, 2 a method declined the input (Fail), 3 bad input,
4 internal assertion (defect).
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .buchberger import buchberger, gen_random_system
from .field import PrimeField
from .fglm import classic_fglm, toplevel
from .generic import analyze_rows
from .bms import bms_change
from .poly import Fail, GroebnerBasis, MultiPoly
from .quotient import canonical_basis, density_stats, dump_matrix
from .shape import incremental_univariate, shape_det, shape_prob
from .sysio import ParseError, parse_system, poly_str, write_system


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path) as fh:
        return fh.read()


def _write(path: str, text: str):
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _basis_lines(gb: GroebnerBasis) -> list[str]:
    return [poly_str(g) for g in gb.polys]


def _load_quotient(args):
    field, polys = parse_system(_read(args.infile))
    gb = buchberger(polys, "drl", field)
    return field, gb, canonical_basis(gb, field)


def _bool(text: str) -> bool:
    if text.lower() in ("true", "1", "yes"):
        return True
    if text.lower() in ("false", "0", "no"):
        return False
    raise argparse.ArgumentTypeError(f"expected true/false, got {text!r}")


def _report(args, payload: dict) -> str:
    if args.format == "json":
        return json.dumps(payload, indent=2, default=str) + "\n"
    lines = []
    for k, v in payload.items():
        if k == "basis":
            lines.append("basis:")
            lines.extend(f"  {s}" for s in v)
        else:
            lines.append(f"{k}: {v}")
    return "\n".join(lines) + "\n"


def cmd_convert(args) -> int:
    field, gb, Q = _load_quotient(args)
    trace: list = []
    t0 = time.perf_counter()
    res = toplevel(
        gb,
        field,
        seed=args.seed,
        want_radical_ok=args.radical_ok,
        quotient=Q,
        bms_trace=trace,
    )
    wall = time.perf_counter() - t0
    if args.trace and trace:
        for u, F, delta in trace:
            sys.stderr.write(f"{u} | {len(F)} | {len(delta)}\n")
    stats = density_stats(Q.matrix(1))
    payload = {
        "method_used": res.method_used,
        "of_what": res.of_what,
        "D": Q.D,
        "nnz": stats["nnz"],
        "density": stats["percent_nonzero"],
        "passes": res.bms_passes,
        "wall_ms": round(wall * 1e3, 3),
        "seed": args.seed,
        "basis": _basis_lines(res.basis),
    }
    _write(args.out, _report(args, payload))
    return 0


def cmd_shape_prob(args) -> int:
    field, gb, Q = _load_quotient(args)
    res = shape_prob(Q, seed=args.seed)
    if isinstance(res, Fail):
        _write(args.out, f"Fail: {res.reason}\n")
        return 2
    payload = {"D": Q.D, "seed": args.seed, "basis": _basis_lines(res.to_groebner(field))}
    _write(args.out, _report(args, payload))
    return 0


def cmd_shape_det(args) -> int:
    field, gb, Q = _load_quotient(args)
    res = shape_det(Q)
    if isinstance(res, Fail):
        _write(args.out, f"Fail: {res.reason}\n")
        return 2
    sb, is_radical = res
    payload = {
        "of_what": "I" if is_radical else "radical(I)",
        "is_radical": is_radical,
        "D": Q.D,
        "basis": _basis_lines(sb.to_groebner(field)),
    }
    _write(args.out, _report(args, payload))
    return 0


def cmd_univar(args) -> int:
    field, gb, Q = _load_quotient(args)
    m = incremental_univariate(Q, seed=args.seed)
    _write(args.out, poly_str(MultiPoly.from_uni(Q.n, m)) + "\n")
    return 0


def cmd_bms(args) -> int:
    field, gb, Q = _load_quotient(args)
    trace: list = []
    res = bms_change(Q, seed=args.seed, trace=trace)
    if args.trace:
        for u, F, delta in trace:
            sys.stderr.write(f"{u} | {len(F)} | {len(delta)}\n")
    if isinstance(res, Fail):
        _write(args.out, f"Fail: {res.reason}\n")
        return 2
    payload = {
        "D": Q.D,
        "passes": len(trace),
        "seed": args.seed,
        "basis": _basis_lines(res),
    }
    _write(args.out, _report(args, payload))
    return 0


def cmd_fglm(args) -> int:
    field, gb, Q = _load_quotient(args)
    out = classic_fglm(Q, "lex")
    payload = {"D": Q.D, "basis": _basis_lines(out)}
    _write(args.out, _report(args, payload))
    return 0


def cmd_matrices(args) -> int:
    field, gb, Q = _load_quotient(args)
    chunks = [dump_matrix(Q, j) for j in range(1, Q.n + 1)]
    _write(args.out, "".join(chunks))
    return 0


def cmd_analyze(args) -> int:
    d_values = list(range(args.d, (args.dmax or args.d) + 1))
    rows = analyze_rows(args.n, d_values)
    lines = ["n,d,D,k0,m0,density_bound,asymptotic,ratio"]
    for r in rows:
        lines.append(
            f"{r['n']},{r['d']},{r['D']},{r['k0']},{r['m0']},"
            f"{r['density_bound']},{r['asymptotic']:.6f},{r['ratio']:.6f}"
        )
    _write(args.out, "\n".join(lines) + "\n")
    return 0


def cmd_gen(args) -> int:
    field = PrimeField(args.p)
    polys = gen_random_system(args.n, args.d, args.p, args.seed)
    _write(args.out, write_system(field, polys))
    return 0


def cmd_bench(args) -> int:
    lines = []
    for k in range(args.count):
        seed = args.seed + k
        polys = gen_random_system(args.n, args.d, args.p, seed)
        field = PrimeField(args.p)
        t0 = time.perf_counter()
        gb = buchberger(polys, "drl", field)
        t1 = time.perf_counter()
        Q = canonical_basis(gb, field)
        res = toplevel(gb, field, seed=seed, quotient=Q)
        t2 = time.perf_counter()
        stats = density_stats(Q.matrix(1))
        lines.append(
            f"seed={seed} D={Q.D} method={res.method_used} "
            f"nnz={stats['nnz']} density={stats['percent_nonzero']:.2f}% "
            f"gb_ms={1e3 * (t1 - t0):.1f} convert_ms={1e3 * (t2 - t1):.1f}"
        )
    _write(args.out, "\n".join(lines) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="sparsefglm",
        description="DRL-to-LEX change of ordering via sparse linear algebra",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--in", dest="infile", default="-", help="input system file")
        p.add_argument("--out", default="-", help="output file")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--trace", action="store_true")

    p = sub.add_parser("convert", help="full pipeline (toplevel dispatcher)")
    common(p)
    p.add_argument("--radical-ok", type=_bool, default=True)
    p.set_defaults(fn=cmd_convert)

    for name, fn in (
        ("shape-prob", cmd_shape_prob),
        ("shape-det", cmd_shape_det),
        ("univar", cmd_univar),
        ("bms", cmd_bms),
        ("fglm", cmd_fglm),
        ("matrices", cmd_matrices),
    ):
        p = sub.add_parser(name)
        common(p)
        p.set_defaults(fn=fn)

    p = sub.add_parser("analyze", help="sparsity prediction CSV")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--dmax", type=int)
    p.add_argument("--out", default="-")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("gen", help="random dense system")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="-")
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("bench", help="timing over generated systems")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--p", type=int, default=65521)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=5)
    p.add_argument("--out", default="-")
    p.set_defaults(fn=cmd_bench)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ParseError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except AssertionError as exc:
        sys.stderr.write(f"internal error: {exc}\n")
        return 4


if __name__ == "__main__":
    sys.exit(main())
