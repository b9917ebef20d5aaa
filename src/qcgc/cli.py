"""Command-line front end.

Subcommands: ``cgc`` (single coefficient), ``table`` (all admissible
keys for a spin pair), ``verify`` (identity suites with exit status),
``hahn`` (lattice and polynomial data) and ``limit`` (q -> 1
convergence reports).

Spins are entered as exact strings like ``3/2`` and q as a decimal
string parsed at full precision, so output is deterministic across
platforms.  Exit codes: 0 all checks pass, 1 residual failure,
2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import dataclass, field

from mpmath import mp

from . import verify as verify_mod
from .cgc import CgcKey, admissible_keys, cgc_racah, compute
from .halfint import halfint, halfint_range
from .qcore import QContext, QDomainError, qnum
from .qhahn import HahnParams, hahn_eval, hahn_norm_sq, hahn_weight, lattice_x

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class RunConfig:
    """Canonical run parameters echoed into every JSON report."""

    q: str = "0.5"
    precision: int = 50
    format: str = "csv"
    tolerance: float = None
    extra: dict = field(default_factory=dict)

    def to_dict(self):
        out = {"q": self.q, "precision": self.precision,
               "format": self.format}
        if self.tolerance is not None:
            out["tolerance"] = self.tolerance
        out.update(self.extra)
        return out


def _context(config):
    return QContext(q=config.q, precision=config.precision)


def _fmt(value, config):
    return mp.nstr(value, config.precision, strip_zeros=False)


def _emit_json(payload, stream):
    json.dump(payload, stream, indent=2)
    stream.write("\n")


# ---------------------------------------------------------------------------
# cgc
# ---------------------------------------------------------------------------

def cmd_cgc(args, stream=None):
    stream = stream or sys.stdout
    config = RunConfig(q=args.q, precision=args.precision)
    ctx = _context(config)
    key = CgcKey(halfint(args.j1), halfint(args.m1), halfint(args.j2),
                 halfint(args.m2), halfint(args.j), halfint(args.m))
    mode = "crosscheck" if args.verify else "default"
    result = compute(key, ctx, mode=mode)
    line = f"{key} = {_fmt(result.value, config)}  [{result.formula}]"
    if result.reason is not None:
        line += f"  ({result.reason})"
    if result.deviation is not None:
        line += f"  max cross-formula deviation {_fmt(result.deviation, config)}"
    stream.write(line + "\n")
    return 0


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------

def _table_rows(j1, j2, ctx, config):
    rows = []
    for key in admissible_keys(j1, j2):
        value = cgc_racah(key, ctx)
        rows.append({
            "j1": str(key.j1), "m1": str(key.m1),
            "j2": str(key.j2), "m2": str(key.m2),
            "j": str(key.j), "m": str(key.m),
            "value": _fmt(value, config),
        })
    return rows


def _table_checksums(rows, ctx):
    """Per product state (m1, m2): sum over j of value^2; unitarity gives 1."""
    sums = {}
    for row in rows:
        label = (row["m1"], row["m2"])
        v = ctx.to_mpf(row["value"])
        sums[label] = sums.get(label, 0) + v * v
    return [{"m1": m1, "m2": m2, "sum_sq": mp.nstr(s, 30)}
            for (m1, m2), s in sorted(sums.items())]


def cmd_table(args, stream=None):
    stream = stream or sys.stdout
    config = RunConfig(q=args.q, precision=args.precision, format=args.format,
                       extra={"j1": args.j1, "j2": args.j2, "cap": args.cap})
    j1, j2 = halfint(args.j1), halfint(args.j2)
    cap = halfint(args.cap)
    if j1 > cap or j2 > cap:
        raise QDomainError(f"spins exceed the table cap {args.cap}")
    ctx = _context(config)
    rows = _table_rows(j1, j2, ctx, config)
    fields = ["j1", "m1", "j2", "m2", "j", "m", "value"]
    if args.format == "csv":
        writer = csv.DictWriter(stream, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)
    else:
        _emit_json({
            "schema_version": SCHEMA_VERSION,
            "config": config.to_dict(),
            "rows": rows,
            "checksums": _table_checksums(rows, ctx),
        }, stream)
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(args, stream=None):
    stream = stream or sys.stdout
    names = args.suite if args.suite else None
    config = RunConfig(q=args.q, precision=args.precision, format="json",
                       tolerance=args.tolerance,
                       extra={"suites": names or sorted(verify_mod.SUITES),
                              "perturb": args.perturb})
    results = verify_mod.run_suites(names, precision=args.precision,
                                    quick=args.quick,
                                    tolerance=args.tolerance,
                                    perturb=args.perturb)
    failing = []
    suites = {}
    for name, checks in results.items():
        suite_passed = all(c.passed for c in checks)
        if not suite_passed:
            failing.append(name)
        suites[name] = {
            "passed": suite_passed,
            "max_residual": mp.nstr(max(mp.mpf(c.residual) for c in checks), 8),
            "checks": [{
                "name": c.name,
                "residual": mp.nstr(mp.mpf(c.residual), 8),
                "tolerance": c.tolerance,
                "passed": bool(c.passed),
            } for c in checks],
        }
    _emit_json({
        "schema_version": SCHEMA_VERSION,
        "config": config.to_dict(),
        "suites": suites,
        "passed": not failing,
        "failing_suites": failing,
    }, stream)
    return 0 if not failing else 1


# ---------------------------------------------------------------------------
# hahn
# ---------------------------------------------------------------------------

def cmd_hahn(args, stream=None):
    stream = stream or sys.stdout
    config = RunConfig(q=args.q, precision=args.precision, format=args.format,
                       extra={"n": args.n, "N": args.N,
                              "alpha": args.alpha, "beta": args.beta})
    ctx = _context(config)
    params = HahnParams(args.n, args.N, halfint(args.alpha),
                        halfint(args.beta))
    s_values = [args.s] if args.s is not None else list(range(params.N))
    rows = []
    for s in s_values:
        rows.append({
            "s": str(s),
            "x": _fmt(lattice_x(s, ctx), config),
            "weight": _fmt(hahn_weight(params, s, ctx), config),
            "value": _fmt(hahn_eval(params, s, ctx), config),
        })
    norm = _fmt(hahn_norm_sq(params, ctx), config)
    if args.format == "csv":
        writer = csv.DictWriter(stream, fieldnames=["s", "x", "weight",
                                                    "value"])
        writer.writeheader()
        writer.writerows(rows)
        stream.write(f"# norm_sq,{norm}\n")
    else:
        _emit_json({
            "schema_version": SCHEMA_VERSION,
            "config": config.to_dict(),
            "rows": rows,
            "checksums": [{"norm_sq": norm}],
        }, stream)
    return 0


# ---------------------------------------------------------------------------
# limit
# ---------------------------------------------------------------------------

def cmd_limit(args, stream=None):
    stream = stream or sys.stdout
    config = RunConfig(q="1", precision=args.precision, format="json")
    ctx_one = QContext(q=1, precision=args.precision)
    key = CgcKey(halfint(args.j1), halfint(args.m1), halfint(args.j2),
                 halfint(args.m2), halfint(args.j), halfint(args.m))
    target = cgc_racah(key, ctx_one)
    cgc_rows = []
    for k in range(2, 7):
        q = "0." + "9" * k
        ctx = QContext(q=q, precision=args.precision)
        value = cgc_racah(key, ctx)
        dev = abs(value - target)
        cgc_rows.append({"k": k, "q": q, "value": mp.nstr(value, 20),
                         "deviation": mp.nstr(dev, 6)})
    qnum_rows = []
    for x in ("1/2", "1", "3/2"):
        xv = halfint(x)
        devs = []
        for k in range(2, 7):
            ctx = QContext(q="0." + "9" * k, precision=args.precision)
            devs.append(mp.nstr(abs(qnum(xv, ctx) - ctx.to_mpf(xv)), 6))
        qnum_rows.append({"x": x, "deviations": devs})
    _emit_json({
        "schema_version": SCHEMA_VERSION,
        "config": config.to_dict(),
        "key": str(key),
        "classical_value": mp.nstr(target, 20),
        "rows": cgc_rows,
        "qnum_rows": qnum_rows,
    }, stream)
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_common(parser):
    parser.add_argument("--q", default="0.5",
                        help="deformation parameter as a decimal string")
    parser.add_argument("--precision", type=int, default=50,
                        help="significant digits (default 50)")


def _add_key(parser, required=True):
    for name in ("j1", "m1", "j2", "m2", "j", "m"):
        parser.add_argument(f"--{name}", required=required,
                            help=f"spin label {name}, e.g. 3/2")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qcgc",
        description="q-deformed angular momentum coupling toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cgc", help="evaluate one coupling coefficient")
    _add_common(p)
    _add_key(p)
    p.add_argument("--verify", action="store_true",
                   help="cross-check every closed form and report deviation")
    p.set_defaults(func=cmd_cgc)

    p = sub.add_parser("table", help="all admissible keys for one spin pair")
    _add_common(p)
    p.add_argument("--j1", required=True)
    p.add_argument("--j2", required=True)
    p.add_argument("--cap", default="3", help="largest accepted spin")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("verify", help="run the identity-verification suites")
    _add_common(p)
    p.add_argument("--suite", action="append",
                   choices=sorted(verify_mod.SUITES),
                   help="restrict to one suite (repeatable; default all)")
    p.add_argument("--tolerance", type=float, default=None,
                   help="override every check tolerance")
    p.add_argument("--perturb", type=float, default=0.0,
                   help="inflate residuals (harness sanity only)")
    p.add_argument("--quick", action="store_true",
                   help="reduced caps and sample counts")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("hahn", help="q-Hahn lattice and polynomial data")
    _add_common(p)
    p.add_argument("--n", type=int, required=True, help="polynomial degree")
    p.add_argument("--N", type=int, required=True, help="lattice size")
    p.add_argument("--alpha", required=True)
    p.add_argument("--beta", required=True)
    p.add_argument("--s", type=int, default=None,
                   help="single lattice point (default: all of 0..N-1)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_hahn)

    p = sub.add_parser("limit", help="convergence report toward q = 1")
    p.add_argument("--precision", type=int, default=50)
    _add_key(p, required=False)
    p.set_defaults(func=cmd_limit, j1="1", m1="0", j2="1", m2="0",
                   j="2", m="0")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (QDomainError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
