"""The benchmark's four workloads.

Each workload turns a seed into plain inputs (tuples of doubled spin
labels and decimal strings, built without importing qcgc), prepares the
qcgc objects it calls with, computes its references with the benchmark's
own evaluator, and runs one pass over its inputs as a closed loop: one
caller that waits for each result before sending the next request.

Why these four (see NOTES.md for the layer map):

* ``table``: the ``qcgc table`` command in-process, the production
  ``cgc_racah`` path plus CLI formatting, dominated by ``halfint`` and
  ``qcore`` overhead; no guarded sums, no matrices.
* ``crosscheck``: ``compute(mode="crosscheck")`` on small spins, the only
  workload that runs all eight closed forms, both 3F2 rewrites and the
  special values, and leans on the guarded series kernel.
* ``verify``: the quick battery, the only workload reaching ``repsu``
  and ``qhahn``; its time is mostly guarded sums in ``qhyper``.
* ``largespin``: ``compute`` at spins 20-120, long alternating sums and
  large factorials, where ``cgc_racah`` loses digits today.
"""

from __future__ import annotations

import functools
import inspect
import io
import json
import math
import random

import mpmath

from reference import admissible, correct_digits, reference_value, within_precision

PRECISION = 50
SPIN_QS = ("0.3", "0.5", "0.9", "1.25")
LARGE_QS = ("1", "0.99", "0.9")
LARGE_PRECISIONS = (50, 100)
TABLE_CAP = "8"
# every STRUCTURAL_ZERO_EVERY-th key fails the selection rules on purpose
STRUCTURAL_ZERO_EVERY = 20
# a check's margin when its residual is exactly zero
MARGIN_CAP = 100.0

# A pass is a few seconds of work, so a run holds several and reports the
# median pass.  Inputs are drawn per stratum, so that every seed gives a
# pass with the same mix of sizes and costs and only the details vary.

# table: spin pairs (doubled, j1 >= j2) from 6 to 3281 rows in rising
# size, j1 = j2 = 8 included; q cycles through SPIN_QS along the ladder
# (q = 0.5 is exact in binary and some 8% cheaper), and the seed draws
# where the cycle starts, each pair's orientation and the order
TABLE_LADDER = ((1, 1), (2, 1), (3, 2), (5, 3), (4, 4), (16, 2), (8, 4), (6, 6),
                (10, 5), (7, 7), (12, 6), (16, 6), (16, 16))
# crosscheck: keys per doubled spin pair (tj1, tj2), both up to 6
CROSSCHECK_TWICE_MAX = 6
CROSSCHECK_KEYS_PER_PAIR = 10
# largespin: doubled-spin bands for j1 and j2, and keys per band and per
# (q, precision) pair of each kind: uniform m, and m near 0, where the
# digit loss is (more of those keep the run's worst key steady)
LARGESPIN_BANDS = ((40, 100), (100, 170), (170, 240))
LARGESPIN_UNIFORM_KEYS = 25
LARGESPIN_CANCELLING_KEYS = 40


def label(twice):
    """Doubled label as the string the CLI prints and parses ("3/2", "-1")."""
    return str(twice // 2) if twice % 2 == 0 else f"{twice}/2"


def pair_keys(tj1, tj2):
    """Every admissible doubled-label key for one spin pair."""
    keys = []
    for tj in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2):
        for tm in range(-tj, tj + 1, 2):
            for tm1 in range(-tj1, tj1 + 1, 2):
                if abs(tm - tm1) <= tj2:
                    keys.append((tj1, tm1, tj2, tm - tm1, tj, tm))
    return keys


def _complete(rng, tj1, tj2, tj, tm, tm1_near=None):
    m1s = [x for x in range(-tj1, tj1 + 1, 2) if abs(tm - x) <= tj2]
    if tm1_near is not None:
        m1s = [x for x in m1s if abs(x - tm1_near) <= 4] or m1s
    tm1 = rng.choice(m1s)
    return (tj1, tm1, tj2, tm - tm1, tj, tm)


def pair_key(rng, tj1, tj2):
    """Admissible key for one spin pair, j and m uniform."""
    tj = rng.randrange(abs(tj1 - tj2), tj1 + tj2 + 1, 2)
    return _complete(rng, tj1, tj2, tj, rng.randrange(-tj, tj + 1, 2))


def random_key(rng, lo, hi):
    """Admissible key with doubled spins tj1, tj2 uniform in [lo, hi]."""
    return pair_key(rng, rng.randint(lo, hi), rng.randint(lo, hi))


def cancelling_key(rng, lo, hi):
    """Admissible key with m, m1 near 0: the longest alternating sums."""
    tj1, tj2 = rng.randint(lo, hi), rng.randint(lo, hi)
    tj = rng.randrange(abs(tj1 - tj2), tj1 + tj2 + 1, 2)
    tm = rng.choice([x for x in (-2, -1, 0, 1, 2) if (x - tj) % 2 == 0])
    return _complete(rng, tj1, tj2, tj, tm, tm1_near=0)


def structural_zero(key):
    """The key with j pushed past the triangle rule (an exact zero)."""
    tj1, tm1, tj2, tm2, tj, tm = key
    return (tj1, tm1, tj2, tm2, tj1 + tj2 + 2, tm)


def make_key(pkg, key):
    return pkg.CgcKey(*(pkg.HalfInt(twice=t) for t in key))


class Tally:
    """Counts, latencies and accuracy gathered over a run's passes.

    Latencies are speed-corrected seconds from ``clock`` (see speed.py);
    ``raw_latencies`` keeps the wall-clock values next to them.
    """

    def __init__(self, clock):
        self.clock = clock
        self.latencies = []
        self.raw_latencies = []
        self.pass_latencies = []
        self.pass_results = []
        self.pass_times = []
        self.raw_pass_times = []
        self.attempted = 0
        self.failed = 0
        self.short = 0
        self.over_tol = 0
        self.results = 0
        self.digits_min = math.inf
        self.margins = {}
        self.bytes_out = 0
        self.messages = []

    def call(self, fn):
        """Time one closed-loop call; returns (result or exception, seconds)."""
        mark = self.clock.start()
        try:
            result = fn()
        except Exception as exc:  # a raising call is a failed operation
            result = exc
        raw, corrected = self.clock.stop(mark)
        self.raw_latencies.append(raw)
        self.latencies.append(corrected)
        return result, corrected

    def record(self, ok, message, count=1):
        """Count ``count`` attempted operations, all failed unless ``ok``."""
        self.attempted += count
        if not ok:
            self.failed += count
            if len(self.messages) < 5:
                self.messages.append(message)

    def judge(self, value, ref, precision, what, structural=False):
        """Check one coefficient against its reference.

        A value fails when it is not exactly 0 for a structural zero, or
        keeps fewer than half the requested digits; one that keeps fewer
        than the requested digits is counted as short of precision.
        """
        with mpmath.workdps(2 * precision + 20):
            value = mpmath.mpf(value)
            digits = correct_digits(value, ref, 2 * precision)
            self.digits_min = min(self.digits_min, digits)
            if not within_precision(value, ref, precision):
                self.short += 1
        wrong_zero = structural and value != 0
        self.record(not wrong_zero and digits >= precision / 2,
                    f"{what}: {value} has {digits:.1f} correct digits")


class Workload:
    name = ""
    why = ""

    def make_inputs(self, seed):
        raise NotImplementedError

    def prepare(self, pkg, inputs):
        return None

    def references(self, inputs):
        return None

    def run_pass(self, pkg, state, inputs, refs, tally):
        """Run every input once; returns (results, seconds spent in calls)."""
        raise NotImplementedError


class TableWorkload(Workload):
    name = "table"
    why = "qcgc table in-process: cgc_racah plus CLI formatting, no guarded sums"

    def make_inputs(self, seed):
        rng = random.Random(f"table/{seed}")
        offset = rng.randrange(len(SPIN_QS))
        jobs = []
        for i, pair in enumerate(TABLE_LADDER):
            tj1, tj2 = pair if rng.random() < 0.5 else pair[::-1]
            jobs.append((tj1, tj2, SPIN_QS[(i + offset) % len(SPIN_QS)]))
        rng.shuffle(jobs)
        return jobs

    def references(self, inputs):
        tables = {}
        return [{key: reference_value(key, q, PRECISION, tables)
                 for key in pair_keys(tj1, tj2)}
                for tj1, tj2, q in inputs]

    def run_pass(self, pkg, state, inputs, refs, tally):
        cli = pkg.cli
        results, spent = 0, 0.0
        for (tj1, tj2, q), expected in zip(inputs, refs):
            argv = ["table", "--j1", label(tj1), "--j2", label(tj2), "--q", q,
                    "--precision", str(PRECISION), "--cap", TABLE_CAP,
                    "--format", "json"]
            buf = io.StringIO()

            def table():
                args = cli.build_parser().parse_args(argv)
                return args.func(args, stream=buf)

            status, elapsed = tally.call(table)
            spent += elapsed
            results += len(expected)
            out = buf.getvalue()
            tally.bytes_out += len(out)
            self._check(out, status, expected, tally, argv)
        return results, spent

    @staticmethod
    def _check(out, status, expected, tally, argv):
        what = " ".join(argv)
        if status != 0:
            tally.record(False, f"{what}: {status!r}", count=len(expected) + 1)
            return
        payload = json.loads(out)
        rows = {}
        for row in payload["rows"]:
            key = tuple(_twice(row[k]) for k in ("j1", "m1", "j2", "m2", "j", "m"))
            rows[key] = row["value"]
        for key, ref in expected.items():
            if key in rows:
                tally.judge(rows[key], ref, PRECISION, f"{what} {key}")
            else:
                tally.record(False, f"{what}: row {key} missing")
        # one more operation per table: no stray rows, and unitarity, each
        # product state's squared column summing to 1
        tally.record(len(rows) == len(expected)
                     and all(abs(mpmath.mpf(c["sum_sq"]) - 1) <= mpmath.mpf("1e-28")
                             for c in payload["checksums"]),
                     f"{what}: {len(rows)} rows or a unitarity checksum is off")


def _twice(text):
    num, _, den = text.partition("/")
    return int(num) if den else 2 * int(num)


class _KeyWorkload(Workload):
    """Shared by the workloads that call ``compute`` once per key."""

    mode = "default"

    def prepare(self, pkg, inputs):
        contexts = {}
        calls = []
        for key, q, precision in inputs:
            ctx = contexts.get((q, precision))
            if ctx is None:
                ctx = contexts[(q, precision)] = pkg.QContext(q=q, precision=precision)
            calls.append((make_key(pkg, key), ctx))
        return calls

    def references(self, inputs):
        tables = {}
        return [reference_value(key, q, precision, tables)
                for key, q, precision in inputs]

    def run_pass(self, pkg, state, inputs, refs, tally):
        compute = pkg.compute
        mode = self.mode
        spent = 0.0
        for (key, ctx), (raw, q, precision), ref in zip(state, inputs, refs):
            what = f"{mode} {raw} q={q} P={precision}"
            result, elapsed = tally.call(lambda: compute(key, ctx, mode=mode))
            spent += elapsed
            if isinstance(result, Exception):
                tally.record(False, f"{what}: {result!r}")
                continue
            zero = not admissible(raw)
            tally.judge(result.value, ref, precision, what, structural=zero)
            if mode == "crosscheck" and not zero:
                # like a value, the forms fail only when they disagree in
                # more than half the requested digits; a deviation past
                # ctx.tol is counted (cgc_sum and cgc_sum_alt keep about
                # 34 digits on some j = 3 keys at q = 0.3 today)
                tally.over_tol += result.deviation > ctx.tol
                tally.record(result.deviation <= mpmath.mpf(10) ** (-precision / 2),
                             f"{what}: deviation {result.deviation}")
        return len(inputs), spent


class CrosscheckWorkload(_KeyWorkload):
    name = "crosscheck"
    why = "compute(mode=crosscheck) at spins <= 3: all closed forms and guarded sums"
    mode = "crosscheck"

    def make_inputs(self, seed):
        rng = random.Random(f"crosscheck/{seed}")
        inputs = []
        for tj1 in range(CROSSCHECK_TWICE_MAX + 1):
            for tj2 in range(CROSSCHECK_TWICE_MAX + 1):
                for _ in range(CROSSCHECK_KEYS_PER_PAIR):
                    i = len(inputs)
                    key = pair_key(rng, tj1, tj2)
                    if i % STRUCTURAL_ZERO_EVERY == STRUCTURAL_ZERO_EVERY - 1:
                        key = structural_zero(key)
                    inputs.append((key, SPIN_QS[i % len(SPIN_QS)], PRECISION))
        rng.shuffle(inputs)
        return inputs


class LargespinWorkload(_KeyWorkload):
    name = "largespin"
    why = "compute at spins 20-120: long alternating sums where cgc_racah loses digits"

    def make_inputs(self, seed):
        rng = random.Random(f"largespin/{seed}")
        inputs = []
        for q in LARGE_QS:
            for precision in LARGE_PRECISIONS:
                for lo, hi in LARGESPIN_BANDS:
                    for draw, count in ((random_key, LARGESPIN_UNIFORM_KEYS),
                                        (cancelling_key, LARGESPIN_CANCELLING_KEYS)):
                        for _ in range(count):
                            inputs.append((draw(rng, lo, hi), q, precision))
        inputs = [(structural_zero(key), q, p)
                  if i % STRUCTURAL_ZERO_EVERY == STRUCTURAL_ZERO_EVERY - 1
                  else (key, q, p)
                  for i, (key, q, p) in enumerate(inputs)]
        rng.shuffle(inputs)
        return inputs


class VerifyWorkload(Workload):
    name = "verify"
    why = "the quick verify battery: guarded qhyper sums, the only repsu and qhahn use"
    # suite names passed to run_suites; None runs the whole battery
    suites = None

    def make_inputs(self, seed):
        return seed

    def run_pass(self, pkg, state, inputs, refs, tally):
        verify = pkg.verify
        originals = dict(verify.SUITES)
        for name, fn in originals.items():
            if "seed" in inspect.signature(fn).parameters:
                verify.SUITES[name] = functools.partial(fn, seed=inputs)
        try:
            report, elapsed = tally.call(
                lambda: verify.run_suites(self.suites, precision=PRECISION, quick=True))
        finally:
            verify.SUITES.update(originals)
        if isinstance(report, Exception):
            tally.record(False, f"verify: {report!r}", count=len(originals))
            return 0, elapsed
        results = 0
        for suite, checks in report.items():
            worst = MARGIN_CAP
            for check in checks:
                results += 1
                residual = mpmath.mpf(check.residual)
                if residual > 0:
                    worst = min(worst, float(mpmath.log10(check.tolerance / residual)))
                tally.record(check.passed and residual < check.tolerance,
                             f"verify {suite}.{check.name}: residual {residual}")
            tally.margins[suite] = min(worst, tally.margins.get(suite, MARGIN_CAP))
            tally.digits_min = min(tally.digits_min, worst)
        return results, elapsed


WORKLOADS = {w.name: w for w in (TableWorkload(), CrosscheckWorkload(),
                                 VerifyWorkload(), LargespinWorkload())}
