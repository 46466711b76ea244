"""Command-line front end.

Every subcommand computes one report and prints it as a flat record, JSON by
default or CSV with --format csv.  Exit codes: 0 on success, 2 when a
precondition is violated (including bad arguments), 3 when a computation
refuses to start because its enumeration budget would be exceeded.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, Inexact
from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Optional

from .cayley import CayleyGraph, sample_cayley
from .cliques import chromatic_bracket, max_clique
from .errors import BudgetExceededError, PreconditionError
from .experiments import ExperimentConfig, classify_n, density_measure, run_experiment
from .freiman import census_skl, freiman_dimension, tail_exponent
from .gf2 import ElemSet
from .moments import moment_report

__all__ = ["main", "build_parser"]


def _hexlist(values) -> List[str]:
    return [f"{v:x}" for v in sorted(values)]


def _write_file(path: str, text: str) -> None:
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise PreconditionError(f"cannot write {path}: {exc}") from exc


def _read_file(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise PreconditionError(f"cannot read {path}: {exc}") from exc


def _load_graph(args) -> CayleyGraph:
    if getattr(args, "infile", None):
        return CayleyGraph.from_text(_read_file(args.infile))
    if args.seed is None:
        raise PreconditionError("need --seed (with --n) or --in FILE")
    if args.n is None:
        raise PreconditionError("--seed requires --n")
    return sample_cayley(args.n, args.seed)


def cmd_sample(args) -> Dict:
    G = sample_cayley(args.n, args.seed)
    if args.out:
        _write_file(args.out, G.to_text())
    return {
        "n": G.n, "seed": G.seed, "a_size": len(G.generators),
        "density": len(G.generators) / ((1 << G.n) - 1),
        "out": args.out or "",
    }


def cmd_omega(args) -> Dict:
    G = _load_graph(args)
    out = max_clique(G, budget=args.budget)
    return {
        "n": G.n, "size": out.size, "optimal": out.optimal, "nodes": out.nodes,
        "witness": _hexlist(out.witness.elements()),
    }


def cmd_chi(args) -> Dict:
    G = _load_graph(args)
    br = chromatic_bracket(G, budget=args.budget)
    return {
        "n": G.n, "lower": br.lower, "upper": br.upper,
        "exact": br.exact, "nodes": br.nodes,
    }


def cmd_moments(args) -> Dict:
    rep = moment_report(args.n, args.m)
    result = {
        "n": rep.n, "m": rep.m, "E_M": rep.e_m, "Var_M": rep.var_m,
        "paper_E_lb": rep.paper_e_lb, "paper_Var_ub": rep.paper_var_ub,
        "cheb": rep.cheb, "cheb_ub": rep.cheb_ub,
        "holds_E": rep.holds_e, "holds_Var": rep.holds_var,
        "holds_cheb": rep.holds_cheb,
    }
    if args.csv:
        _write_file(args.csv, _render(result, "csv"))
    return result


def cmd_skl(args) -> Dict:
    c = census_skl(args.n, args.k)
    counts = dict(sorted(c.counts.items()))
    if args.csv:
        _write_file(args.csv, _csv_text(
            [("n", "k", "l", "count", "union_bound_term")]
            + [(c.n, c.k, l, cnt, Fraction(cnt, 1 << l)) for l, cnt in counts.items()]))
    return {"n": c.n, "k": c.k, "total": c.total, "union_bound": c.union_bound, "counts": counts}


def cmd_freiman_dim(args) -> Dict:
    try:
        elems = [int(s, 16) for s in args.set]
    except ValueError as exc:
        raise PreconditionError(f"--set takes hex elements: {exc}") from exc
    n = args.n if args.n is not None else max(1, max(e.bit_length() for e in elems))
    X = ElemSet.from_elements(n, elems)
    res = freiman_dimension(X)
    return {"n": n, "k": X.size, "r": res.r, "witness": _hexlist(res.witness.elements())}


def cmd_classify(args) -> Dict:
    c = classify_n(args.n, args.eps)
    return {
        "n": c.n, "m_pred": c.m_pred, "predicted_omega": c.predicted_omega,
        "frac": c.frac, "near_tie": c.near_tie,
        "eps": c.eps, "in_t": c.in_t_eps,
    }


def cmd_density(args) -> Dict:
    d = density_measure(args.nmax, args.eps)
    return {
        "n_max": d.n_max, "eps": d.eps, "threshold": d.threshold,
        "count": d.count, "total": d.total,
        "fraction": d.fraction, "value": float(d.fraction),
    }


def cmd_bounds(args) -> Dict:
    t = tail_exponent(args.n, args.k, args.l)
    return {
        "n": args.n, "k": args.k, "l": args.l,
        "log2_bound": t.log2_bound, "regime": t.regime,
        "log2_large": t.log2_large, "log2_small": t.log2_small,
    }


def cmd_experiment(args) -> Dict:
    cfg = ExperimentConfig.from_file(args.config)
    res = run_experiment(cfg, workers=args.threads)
    return {
        "trials": len(res.records),
        "records_path": res.records_path,
        "summary_path": res.summary_path,
    }


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="f2cayley",
        description="Sumsets, subspace cliques and random Cayley graphs over F_2^n.",
    )
    p.add_argument("--format", choices=("json", "csv"), default="json",
                   help="output format for the result record")
    p.add_argument("--threads", type=int, default=1,
                   help="helper threads beside the main thread for the experiment runner")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("sample", help="sample a random Cayley graph")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--seed", type=int, required=True)
    s.add_argument("--out", help="write the graph to this file")
    s.set_defaults(func=cmd_sample)

    for name, func, helptext in (
        ("omega", cmd_omega, "maximum clique of a sampled or loaded graph"),
        ("chi", cmd_chi, "chromatic bracket of a sampled or loaded graph"),
    ):
        s = sub.add_parser(name, help=helptext)
        s.add_argument("--n", type=int)
        s.add_argument("--seed", type=int)
        s.add_argument("--in", dest="infile", help="read a graph file instead of sampling")
        s.add_argument("--budget", type=int, default=None, help="search node budget")
        s.set_defaults(func=func)

    s = sub.add_parser("moments", help="exact moments of the subspace-clique count")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--m", type=int, required=True)
    s.add_argument("--csv", help="also write a CSV row to this file")
    s.set_defaults(func=cmd_moments)

    s = sub.add_parser("skl", help="census of k-subsets by restricted-doubling size")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--k", type=int, required=True)
    s.add_argument("--csv", help="also write CSV rows to this file")
    s.set_defaults(func=cmd_skl)

    s = sub.add_parser("freiman-dim", help="Freiman dimension of a set")
    s.add_argument("--set", nargs="+", required=True, metavar="HEX",
                   help="elements as hex integers")
    s.add_argument("--n", type=int, help="ambient dimension (default: fit the elements)")
    s.set_defaults(func=cmd_freiman_dim)

    s = sub.add_parser("classify", help="concentration-point classification of n")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--eps", type=float)
    s.set_defaults(func=cmd_classify)

    s = sub.add_parser("density", help="density of the well-classified set up to nmax")
    s.add_argument("--nmax", type=int, required=True)
    s.add_argument("--eps", type=float, required=True)
    s.set_defaults(func=cmd_density)

    s = sub.add_parser("bounds", help="tail exponent for the doubling census")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--k", type=int, required=True)
    s.add_argument("--l", type=int, required=True)
    s.set_defaults(func=cmd_bounds)

    s = sub.add_parser("experiment", help="run a trial batch from a JSON config")
    s.add_argument("--config", required=True, metavar="JSON")
    s.set_defaults(func=cmd_experiment)
    return p


_SPLIT_BITS = 4096  # below this many bits, Decimal(int) is converted directly


def _decimal(x: int) -> Decimal:
    """Decimal(x), in time subquadratic in the digits.

    Decimal(int) is quadratic on CPython 3.11.  Here x is split into halves
    of w // 2 and w - w // 2 bits, converted separately, and joined as
    hi * 2^(w // 2) + lo in a context of the largest precision that traps
    Inexact, so every step is exact and the multiplications are libmpdec's
    fast ones.  Each level of the split has at most two widths, so the
    powers of two are few and cached for the call.
    """
    ctx = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN, traps=[Inexact])
    power = lru_cache(maxsize=None)(lambda w: ctx.power(2, w))

    def convert(v: int, w: int) -> Decimal:  # 0 <= v < 2^w
        if w <= _SPLIT_BITS:
            return Decimal(v)
        h = w // 2
        hi = v >> h
        return ctx.add(ctx.multiply(convert(hi, w - h), power(h)), convert(v - (hi << h), h))

    d = convert(abs(x), abs(x).bit_length())
    return d.copy_negate() if x < 0 else d


def _exact(q: Fraction) -> str:
    """str(q), digit for digit, printed through decimal: _decimal(int) is
    exact and its str() is not bound by the interpreter's int-to-str digit
    limit, which the thousands of digits of Var M or of 1 / 2^l exceed."""
    num = str(_decimal(q.numerator))
    return num if q.denominator == 1 else f"{num}/{_decimal(q.denominator)}"


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, Fraction):
        return _exact(v)
    if isinstance(v, list):
        return " ".join(str(x) for x in v)
    if isinstance(v, dict):
        return "|".join(f"{k}:{v[k]}" for k in v)
    return str(v)


def _csv_text(rows) -> str:
    """CSV lines, each ending in a newline; rows[0] is the header."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([_csv_cell(v) for v in row] for row in rows)
    return buf.getvalue()


def _render(result: Dict, fmt: str) -> str:
    """A command's report as newline-terminated text: one JSON object, or a
    CSV header and row.  Fractions print exactly."""
    if fmt == "json":
        return json.dumps(result, default=_exact) + "\n"
    return _csv_text([list(result), list(result.values())])


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.threads < 1:
        print("error: --threads must be >= 1", file=sys.stderr)
        return 2
    try:
        result = args.func(args)
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BudgetExceededError as exc:
        print(f"budget refused: {exc}", file=sys.stderr)
        return 3
    sys.stdout.write(_render(result, args.format))
    return 0


if __name__ == "__main__":
    sys.exit(main())
