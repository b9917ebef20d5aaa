"""Command-line front end.

Subcommands: ``cgc`` (single coefficient), ``table`` (all admissible
keys for a spin pair), ``verify`` (identity suites with exit status),
``hahn`` (lattice and polynomial data) and ``limit`` (q -> 1
convergence reports).

Spins are entered as exact strings like ``3/2`` and q as a decimal
string parsed at full precision, so output is deterministic across
platforms.  Exit codes: 0 all checks pass, 1 residual failure or a
value that fails its checks (``ArithmeticError``), 2 usage or
configuration error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
import time

from mpmath import mp
from mpmath.libmp import to_str

from .cgc import CgcKey, cgc_racah, compute, racah_table
from .halfint import HalfInt, doubled, halfint
from .qcore import QContext, QDomainError, qnum

SCHEMA_VERSION = 1


# mpmath's own constant, so that the bit and digit counts below are to_str's
_LOG2_10 = math.log(10, 2)
# fixed-point bits -> (digits, 10**digits), one entry per bit count met
_FIXED = {}


def _fmt(raw, dps, strip_zeros=False):
    """``to_str(raw, dps, strip_zeros)`` for a raw mpf ``raw``, by to_str's
    own integer steps for one digit count: cut to fixed point at dps + 3
    digits and 10 more bits, times a power of ten cached by that bit
    count, printed once, rounded half up on digit dps + 1, and laid out
    in fixed point when the exponent lies strictly between
    min(-(dps//3), -5) and dps.  Zero, inf and nan, values past 2**3500
    either way (which to_str first scales by a power of ten) and more
    than 4000 digits (past what ``str`` prints of an int) go to to_str
    itself."""
    sign, man, exp, bc = raw
    top = exp + bc
    if not man or not -3500 <= top <= 3500 or dps > 4000:
        return to_str(raw, dps, strip_zeros=strip_zeros)
    fixprec = max(int((dps + 3) * _LOG2_10) + 10 - top, 0)
    fixed = _FIXED.get(fixprec)
    if fixed is None:
        fixdps = int(fixprec / _LOG2_10 + 0.5)
        fixed = _FIXED[fixprec] = fixdps, 10 ** fixdps
    fixdps, ten = fixed
    shift = exp + fixprec
    digits = str((man << shift if shift >= 0 else man >> -shift) * ten
                 >> fixprec)
    exponent = len(digits) - fixdps - 1
    if digits[dps:dps + 1] >= "5":
        digits = str(int(digits[:dps]) + 1)
        if len(digits) > dps:  # 9...9 carried into a new power of ten
            digits = digits[:dps]
            exponent += 1
    else:
        digits = digits[:dps]
    suffix = ""
    if min(-(dps // 3), -5) < exponent < 0:
        text = "0." + "0" * (-1 - exponent) + digits
    elif 0 <= exponent < dps:
        text = digits[:exponent + 1] + "." + digits[exponent + 1:]
    else:
        text = digits[0] + "." + digits[1:]
        suffix = "e%+d" % exponent
    if strip_zeros:
        text = text.rstrip("0")
        if text[-1] == ".":
            text += "0"
    return "-" * sign + text + suffix


def _emit_json(payload, stream):
    stream.write(json.dumps(payload, indent=2) + "\n")


# ---------------------------------------------------------------------------
# cgc
# ---------------------------------------------------------------------------

def cmd_cgc(args, stream=None):
    stream = stream or sys.stdout
    ctx = QContext(q=args.q, precision=args.precision)
    key = CgcKey(args.j1, args.m1, args.j2, args.m2, args.j, args.m)
    mode = "crosscheck" if args.verify else "default"
    result = compute(key, ctx, mode=mode)
    value = _fmt(result.value._mpf_, args.precision)
    line = f"{key} = {value}  [{result.formula}]"
    if result.reason is not None:
        line += f"  ({result.reason})"
    if result.deviation is not None:
        line += ("  max cross-formula deviation "
                 f"{_fmt(result.deviation._mpf_, args.precision)}")
    stream.write(line + "\n")
    return 0


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------

_TABLE_FIELDS = ("j1", "m1", "j2", "m2", "j", "m", "value")


def _json_entry(fields):
    """One list entry of string fields as ``json.dumps(payload, indent=2)``
    lays it out; labels and values are plain ASCII, so nothing in them
    needs escaping."""
    return ("    {\n" + ",\n".join(f'      "{name}": "%s"' for name in fields)
            + "\n    }")


_JSON_ROW, _JSON_CHECKSUM = _json_entry(_TABLE_FIELDS), _json_entry(
    ("m1", "m2", "sum_sq"))
# what csv.writer writes of a row: no label or value needs quoting
_CSV_ROW = ",".join(["%s"] * len(_TABLE_FIELDS)) + "\r\n"


def cmd_table(args, stream=None):
    stream = stream or sys.stdout
    tj1, tj2, cap = doubled(args.j1), doubled(args.j2), doubled(args.cap)
    for name, twice in (("j1", tj1), ("j2", tj2)):
        if twice < 0:
            raise QDomainError(
                f"spin {name} = {getattr(args, name)} is negative")
    if tj1 > cap or tj2 > cap:
        raise QDomainError(f"spins exceed the table cap {args.cap}")
    ctx = QContext(q=args.q, precision=args.precision)
    values = racah_table(args.j1, args.j2, ctx)
    top = tj1 + tj2
    text = {t: str(HalfInt(twice=t)) for t in range(-top, top + 1)}
    template = _CSV_ROW if args.format == "csv" else _JSON_ROW
    rows = [template % (text[a], text[b], text[c], text[d], text[e], text[f],
                        _fmt(value._mpf_, args.precision))
            for (a, b, c, d, e, f), value in values.items()]
    if args.format == "csv":
        stream.write(_CSV_ROW % _TABLE_FIELDS + "".join(rows))
        return 0
    # per product state (m1, m2): the sum over j of value^2, which
    # unitarity makes 1, summed exactly and rounded once; _fmt reads only
    # the value of (sign, man, exp, bc), so the sum needs no normalising
    low = min(value._mpf_[2] for value in values.values())
    sums = {}
    for (_, tm1, _, tm2, _, _), value in values.items():
        _, man, exp, _ = value._mpf_
        key = tm1, tm2
        sums[key] = sums.get(key, 0) + (man * man << 2 * (exp - low))
    checksums = ",\n".join(
        _JSON_CHECKSUM % (m1, m2, _fmt((0, total, 2 * low, total.bit_length()),
                                       30, True))
        for (m1, m2), total in sorted(((text[tm1], text[tm2]), total)
                                      for (tm1, tm2), total in sums.items()))
    head = json.dumps({
        "schema_version": SCHEMA_VERSION,
        "config": {"q": args.q, "precision": args.precision,
                   "format": args.format, "j1": args.j1, "j2": args.j2,
                   "cap": args.cap},
        "rows": [],
    }, indent=2).partition('"rows": []')[0]
    stream.write(head + '"rows": [\n' + ",\n".join(rows)
                 + '\n  ],\n  "checksums": [\n' + checksums + "\n  ]\n}\n")
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _margin_digits(checks):
    """log10(tolerance/residual) for the tightest check, or None when its
    residual is exactly 0 (a zero residual leaves no finite margin)."""
    margins = [mp.log10(mp.mpf(c.tolerance) / mp.mpf(c.residual))
               for c in checks if c.residual]
    return round(float(min(margins)), 3) if margins else None


def cmd_verify(args, stream=None):
    # imported here, as in cmd_hahn: cgc, table and limit never load
    # verify, repsu or qhahn
    from . import verify as verify_mod

    stream = stream or sys.stdout
    names = args.suite if args.suite else None
    unknown = sorted(set(names or ()) - verify_mod.SUITES.keys())
    if unknown:
        raise QDomainError(f"unknown suite {', '.join(unknown)}; known suites: "
                           f"{', '.join(sorted(verify_mod.SUITES))}")
    config = {"precision": args.precision, "format": "json"}
    if args.tolerance is not None:
        config["tolerance"] = args.tolerance
    config["suites"] = names or sorted(verify_mod.SUITES)
    failing = []
    suites = {}
    for name in names or list(verify_mod.SUITES):
        start = time.perf_counter()
        checks = verify_mod.run_suites([name], precision=args.precision,
                                       quick=args.quick,
                                       tolerance=args.tolerance)[name]
        wall_s = time.perf_counter() - start
        suite_passed = all(c.passed for c in checks)
        if not suite_passed:
            failing.append(name)
        suites[name] = {
            "passed": suite_passed,
            "wall_s": round(wall_s, 4),
            "margin_digits": _margin_digits(checks),
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
        "config": config,
        "suites": suites,
        "passed": not failing,
        "failing_suites": failing,
    }, stream)
    return 0 if not failing else 1


# ---------------------------------------------------------------------------
# hahn
# ---------------------------------------------------------------------------

def cmd_hahn(args, stream=None):
    from .qhahn import HahnParams, hahn_eval, hahn_norm_sq, hahn_weight, lattice_x

    stream = stream or sys.stdout
    ctx = QContext(q=args.q, precision=args.precision)
    params = HahnParams(args.n, args.N, args.alpha, args.beta)
    s_values = [args.s] if args.s is not None else list(range(params.N))
    rows = []
    for s in s_values:
        rows.append({
            "s": str(s),
            "x": _fmt(lattice_x(s, ctx)._mpf_, args.precision),
            "weight": _fmt(hahn_weight(params, s, ctx)._mpf_, args.precision),
            "value": _fmt(hahn_eval(params, s, ctx)._mpf_, args.precision),
        })
    norm = _fmt(hahn_norm_sq(params, ctx)._mpf_, args.precision)
    if args.format == "csv":
        writer = csv.DictWriter(stream, fieldnames=["s", "x", "weight",
                                                    "value"])
        writer.writeheader()
        writer.writerows(rows)
        stream.write(f"# norm_sq,{norm}\n")
    else:
        _emit_json({
            "schema_version": SCHEMA_VERSION,
            "config": {"q": args.q, "precision": args.precision,
                       "format": args.format, "n": args.n, "N": args.N,
                       "alpha": args.alpha, "beta": args.beta},
            "rows": rows,
            "checksums": [{"norm_sq": norm}],
        }, stream)
    return 0


# ---------------------------------------------------------------------------
# limit
# ---------------------------------------------------------------------------

def cmd_limit(args, stream=None):
    stream = stream or sys.stdout
    ctx_one = QContext(q=1, precision=args.precision)
    key = CgcKey(args.j1, args.m1, args.j2, args.m2, args.j, args.m)
    target = cgc_racah(key, ctx_one)
    contexts = []
    cgc_rows = []
    for k in range(2, 7):
        q = "0." + "9" * k
        ctx = QContext(q=q, precision=args.precision)
        contexts.append(ctx)
        value = cgc_racah(key, ctx)
        dev = abs(value - target)
        cgc_rows.append({"k": k, "q": q, "value": mp.nstr(value, 20),
                         "deviation": mp.nstr(dev, 6)})
    qnum_rows = []
    for x in ("1/2", "1", "3/2"):
        xv = halfint(x)
        devs = [mp.nstr(abs(qnum(xv, ctx) - ctx.to_mpf(xv)), 6)
                for ctx in contexts]
        qnum_rows.append({"x": x, "deviations": devs})
    _emit_json({
        "schema_version": SCHEMA_VERSION,
        "config": {"q": "1", "precision": args.precision, "format": "json"},
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


_COMMANDS = {"cgc": cmd_cgc, "table": cmd_table, "verify": cmd_verify,
             "hahn": cmd_hahn, "limit": cmd_limit}


def _dispatch(args, stream=None):
    """Run the subcommand, looked up in _COMMANDS when called, so that
    the parser, built once, runs whatever that table holds now (a
    profiler's wrapper, say)."""
    return _COMMANDS[args.command](args, stream)


@functools.cache
def build_parser():
    """The ``qcgc`` argument parser, built on the first call and returned
    to every later one; treat it as read-only.  Each ``parse_args`` call
    returns a fresh namespace, whose ``func`` runs the subcommand."""
    parser = argparse.ArgumentParser(
        prog="qcgc",
        description="q-deformed angular momentum coupling toolkit",
        allow_abbrev=False)
    parser.set_defaults(func=_dispatch)
    # subparsers do not inherit allow_abbrev: "verify --q" must not read
    # as "--quick"
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cgc", help="evaluate one coupling coefficient",
                       allow_abbrev=False)
    _add_common(p)
    _add_key(p)
    p.add_argument("--verify", action="store_true",
                   help="cross-check against every closed form, each distinct "
                        "computation once, and report the largest deviation")

    p = sub.add_parser("table", help="all admissible keys for one spin pair",
                       allow_abbrev=False)
    _add_common(p)
    p.add_argument("--j1", required=True)
    p.add_argument("--j2", required=True)
    p.add_argument("--cap", default="3", help="largest accepted spin")
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("verify", help="run the identity-verification suites",
                       allow_abbrev=False)
    p.add_argument("--precision", type=int, default=50,
                   help="significant digits (default 50)")
    p.add_argument("--suite", action="append",
                   help="restrict to one suite (repeatable; default all)")
    p.add_argument("--tolerance", type=float, default=None,
                   help="override every check tolerance")
    p.add_argument("--quick", action="store_true",
                   help="reduced caps and sample counts")

    p = sub.add_parser("hahn", help="q-Hahn lattice and polynomial data",
                       allow_abbrev=False)
    _add_common(p)
    p.add_argument("--n", type=int, required=True, help="polynomial degree")
    p.add_argument("--N", type=int, required=True, help="lattice size")
    p.add_argument("--alpha", required=True)
    p.add_argument("--beta", required=True)
    p.add_argument("--s", type=int, default=None,
                   help="single lattice point (default: all of 0..N-1)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("limit", help="convergence report toward q = 1",
                       allow_abbrev=False)
    p.add_argument("--precision", type=int, default=50)
    _add_key(p, required=False)
    p.set_defaults(j1="1", m1="0", j2="1", m2="0", j="2", m="0")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (QDomainError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
