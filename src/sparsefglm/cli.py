"""Command-line front end: each subcommand declares only the flags it reads.

Handlers return text, a payload dict (text or JSON by ``--format``) or a
``Fail``; ``main`` writes each result.  Exit codes: 0 success, 2 a method
declined the input (Fail), 3 bad input or a malformed command line,
4 internal assertion (defect).  For timing, ``convert`` prints ``wall_ms``
and ``benchmark/run.py`` times seeded batches.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .buchberger import buchberger, gen_random_system
from .field import PrimeField
from .fglm import classic_fglm, toplevel
from .generic import asymptotic_estimate, density_bound, hilbert_profile
from .bms import bms_change
from .poly import Fail, MultiPoly
from .quotient import QuotientStructure, density_stats, dump_matrix
from .shape import incremental_univariate, shape_det, shape_prob
from .sysio import parse_system, poly_str, write_system


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, newline="") as fh:  # line ends are the parser's, as on stdin
        return fh.read()


def _write(path: str, text: str):
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _load_quotient(args):
    field, polys = parse_system(_read(args.infile))
    gb = buchberger(polys, "drl", field)
    return field, gb, QuotientStructure(gb, field)


def _bool(text: str) -> bool:
    if text.lower() in ("true", "1", "yes"):
        return True
    if text.lower() in ("false", "0", "no"):
        return False
    raise argparse.ArgumentTypeError(f"expected true/false, got {text!r}")


def _report(args, payload: dict) -> str:
    """Text or JSON for a payload whose last key, "basis", is a GroebnerBasis."""
    basis = [poly_str(g) for g in payload.pop("basis").polys]
    if args.format == "json":
        return json.dumps({**payload, "basis": basis}, indent=2) + "\n"
    lines = [f"{k}: {v}" for k, v in payload.items()]
    lines.append("basis:")
    lines.extend(f"  {s}" for s in basis)
    return "\n".join(lines) + "\n"


def _print_trace(args, trace: list):
    """One ``u | #F | #delta`` line per BMS sweep pass, on stderr."""
    if args.trace:
        for u, F, delta in trace:
            sys.stderr.write(f"{u} | {len(F)} | {len(delta)}\n")


def cmd_convert(args):
    """full pipeline (toplevel dispatcher)"""
    field, gb, Q = _load_quotient(args)
    t0 = time.perf_counter()
    res = toplevel(
        gb,
        field,
        seed=args.seed,
        want_radical_ok=args.radical_ok,
        quotient=Q,
    )
    wall = time.perf_counter() - t0
    _print_trace(args, res.bms_trace or [])
    stats = density_stats(Q.matrix(1))
    return {
        "method_used": res.method_used,
        "of_what": res.of_what,
        "D": Q.D,
        "nnz": stats["nnz"],
        "density": stats["percent_nonzero"],
        "passes": res.bms_passes,
        "wall_ms": round(wall * 1e3, 3),
        "seed": args.seed,
        "basis": res.basis,
    }


def cmd_shape_prob(args):
    """probabilistic shape-position conversion only"""
    field, gb, Q = _load_quotient(args)
    res = shape_prob(Q, next(Q.probes(args.seed)))
    if isinstance(res, Fail):
        return res
    return {"D": Q.D, "seed": args.seed, "basis": res.to_groebner(field)}


def cmd_shape_det(args):
    """deterministic peeling + CRT, radical flag"""
    field, gb, Q = _load_quotient(args)
    res = shape_det(Q)
    if isinstance(res, Fail):
        return res
    sb, is_radical = res
    return {
        "of_what": "I" if is_radical else "radical(I)",
        "is_radical": is_radical,
        "D": Q.D,
        "basis": sb.to_groebner(field),
    }


def cmd_univar(args):
    """incremental estimate of the minimal polynomial of x1"""
    field, gb, Q = _load_quotient(args)
    m = incremental_univariate(Q, next(Q.probes(args.seed)))
    return poly_str(MultiPoly.from_uni(Q.n, m)) + "\n"


def cmd_bms(args):
    """array sweep only"""
    field, gb, Q = _load_quotient(args)
    trace: list = []
    res = bms_change(Q, next(Q.probes(args.seed)), trace)
    _print_trace(args, trace)
    if isinstance(res, Fail):
        return res
    return {"D": Q.D, "passes": len(trace), "seed": args.seed, "basis": res}


def cmd_fglm(args):
    """classic dense conversion"""
    field, gb, Q = _load_quotient(args)
    return {"D": Q.D, "basis": classic_fglm(Q, "lex")}


def cmd_matrices(args):
    """dump T_1..T_n"""
    field, gb, Q = _load_quotient(args)
    return "".join(dump_matrix(Q, j) for j in range(1, Q.n + 1))


def cmd_analyze(args):
    """sparsity prediction CSV"""
    dmax = args.d if args.dmax is None else args.dmax
    if dmax < args.d:
        raise ValueError(f"--dmax {dmax} is below --d {args.d}")
    lines = ["n,d,D,k0,m0,density_bound,asymptotic,ratio"]
    for d in range(args.d, dmax + 1):
        prof, est = hilbert_profile(args.n, d), asymptotic_estimate(args.n, d)
        lines.append(
            f"{args.n},{d},{prof.ideal_degree},{prof.k0},{prof.m0},"
            f"{density_bound(args.n, d)},{est:.6f},{est / prof.m0:.6f}"
        )
    return "\n".join(lines) + "\n"


def cmd_gen(args):
    """random dense system"""
    polys = gen_random_system(args.n, args.d, args.p, args.seed)
    return write_system(PrimeField(args.p), polys)


_FLAGS = {
    "--in": {"dest": "infile", "default": "-", "help": "input system file"},
    "--out": {"default": "-", "help": "output file"},
    "--seed": {"type": int, "default": 0},
    "--format": {"choices": ("text", "json"), "default": "text"},
    "--trace": {"action": "store_true"},
    "--radical-ok": {"type": _bool, "default": True},
    "--n": {"type": int, "required": True},
    "--d": {"type": int, "required": True},
    "--dmax": {"type": int},
    "--p": {"type": int, "required": True},
}

# each subcommand with the flags its handler reads; its help is the docstring
_COMMANDS = (
    ("convert", cmd_convert, "--in --out --seed --format --trace --radical-ok"),
    ("shape-prob", cmd_shape_prob, "--in --out --seed --format"),
    ("shape-det", cmd_shape_det, "--in --out --format"),
    ("univar", cmd_univar, "--in --out --seed"),
    ("bms", cmd_bms, "--in --out --seed --format --trace"),
    ("fglm", cmd_fglm, "--in --out --format"),
    ("matrices", cmd_matrices, "--in --out"),
    ("analyze", cmd_analyze, "--n --d --dmax --out"),
    ("gen", cmd_gen, "--n --d --p --seed --out"),
)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="sparsefglm",
        description="DRL-to-LEX change of ordering via sparse linear algebra",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name, fn, flags in _COMMANDS:
        p = sub.add_parser(name, help=fn.__doc__)
        for flag in flags.split():
            p.add_argument(flag, **_FLAGS[flag])
        p.set_defaults(fn=fn)
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 after --help, 2 on a usage error
        return 3 if exc.code else 0
    try:
        out = args.fn(args)
        if isinstance(out, Fail):
            _write(args.out, f"Fail: {out.reason}\n")
            return 2
        _write(args.out, out if isinstance(out, str) else _report(args, out))
        return 0
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except AssertionError as exc:
        sys.stderr.write(f"internal error: {exc}\n")
        return 4


if __name__ == "__main__":
    sys.exit(main())
