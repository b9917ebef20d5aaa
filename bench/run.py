"""Benchmark entry point for qcgc: one workload, one seed, one run.

Usage, from the root of a checkout:

    python3 bench/run.py --workload table --seed 1 --seconds 10 --trace 0

The package is imported from the checkout's ``src`` directory, so nothing
needs installing.  With ``--trace 0`` the run measures the end-to-end
metrics with tracing off; with ``--trace 1`` it runs untraced passes for
a third of ``--seconds``, then passes with spans and counters installed
for ``--seconds``, and prints the per-layer metrics.  Timings are
corrected for the machine's speed (see speed.py).  Human-readable lines
come first; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit status
is 0 when every operation passed its check, 1 when one failed, and 2
when there is no qcgc package to import.  NOTES.md describes the
workloads, metrics and gate.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

from speed import SpeedClock  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import PRECISION, WORKLOADS, Tally  # noqa: E402

# the median of this many set-ups is reported as setup_s
SETUP_REPEATS = 7
# a latency tail percentile must leave at least this many samples beyond it
TAIL_SAMPLES = 10

# fixed, not read from verify.SUITES and cgc.ALL_FORMULAS: BENCHMARK.json
# names one per-layer metric for each entry
VERIFY_SUITES = ("qhyper", "repsu", "formulas", "oracle", "unitarity", "symmetry",
                 "special", "recurrence", "hahn", "connection", "limit")
FORMULAS = ("sum", "sum_alt", "3f2", "3f2_rw1", "3f2_rw2", "3f2_long_equiv",
            "racah", "racah_binomial", "special")


class SetupError(RuntimeError):
    """The checkout holds no importable qcgc package."""


def import_qcgc():
    """Import qcgc afresh from the checkout's ``src`` directory."""
    if not (SRC / "qcgc" / "__init__.py").is_file():
        raise SetupError(f"no qcgc package under {SRC}")
    for name in [n for n in sys.modules if n == "qcgc" or n.startswith("qcgc.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("qcgc")
    importlib.import_module("qcgc.cli")
    if Path(pkg.__file__).resolve().parent != SRC / "qcgc":
        raise SetupError(f"qcgc imported from {pkg.__file__}, not {SRC}")
    return pkg


def set_up(workload, seed, clock):
    """Import, generate inputs and build contexts; repeated, median timed.

    Returns the last set-up and the median (raw, corrected) seconds.
    """
    raw, corrected = [], []
    for _ in range(SETUP_REPEATS):
        mark = clock.start()
        pkg = import_qcgc()
        inputs = workload.make_inputs(seed)
        state = workload.prepare(pkg, inputs)
        seconds = clock.stop(mark)
        raw.append(seconds[0])
        corrected.append(seconds[1])
    return pkg, inputs, state, statistics.median(raw), statistics.median(corrected)


def run_passes(workload, pkg, state, inputs, refs, tally, seconds):
    """Closed-loop passes until ``seconds`` of wall time in calls, at least one."""
    while True:
        first = len(tally.latencies)
        results, spent = workload.run_pass(pkg, state, inputs, refs, tally)
        tally.pass_latencies.append(tally.latencies[first:])
        tally.raw_pass_times.append(sum(tally.raw_latencies[first:]))
        tally.results += results
        tally.pass_results.append(results)
        tally.pass_times.append(spent)
        if sum(tally.raw_pass_times) >= seconds:
            return


def median_rate(results, seconds):
    return statistics.median(r / s for r, s in zip(results, seconds))


def input_latencies(tally):
    """Each input's median latency over the passes.

    Every pass replays the same inputs, so repeats of one input are not
    independent samples; percentiles are taken over distinct inputs, and
    the median over passes damps noise from the machine.
    """
    return [statistics.median(calls) for calls in zip(*tally.pass_latencies)]


def tail(latencies):
    """(percentile, value): the highest nearest-rank percentile up to 99
    that leaves at least TAIL_SAMPLES samples above it; the maximum (100)
    when there are too few samples for any."""
    ordered = sorted(latencies)
    n = len(ordered)
    for pct in range(99, 49, -1):
        rank = math.ceil(pct * n / 100)
        if n - rank >= TAIL_SAMPLES:
            return pct, ordered[rank - 1]
    return 100, ordered[-1]


def rss_peak_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(tally, setup_s):
    """End-to-end metrics, speed-corrected; raw wall-clock figures go to notes."""
    latencies = input_latencies(tally)
    pct, tail_value = tail(latencies)
    metrics = {
        "setup_s": (setup_s, "s"),
        "results_per_s": (median_rate(tally.pass_results, tally.pass_times), "1/s"),
        "call_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "call_tail_ms": (tail_value * 1e3, "ms"),
        "digits_min": (tally.digits_min, "digits"),
        "rss_peak_mb": (rss_peak_mb(), "MB"),
    }
    notes = {
        "tail_percentile": pct,
        "distinct_calls": len(latencies),
        "calls": len(tally.latencies),
        "machine_speed": tally.clock.speed(),
        "raw_results_per_s": median_rate(tally.pass_results, tally.raw_pass_times),
        "raw_call_p50_ms": statistics.median(tally.raw_latencies) * 1e3,
    }
    return metrics, notes


def per_layer(tracer, tally, passes, overhead_s, speed):
    """Per-layer metrics from one tracer over ``passes`` identical passes.

    Span times are wall-clock; they are scaled by ``speed``, the machine's
    mean speed over the traced passes (see speed.py), so that they compare
    with the corrected end-to-end figures and across runs.
    """
    c = tracer.counts
    keys = tally.results or 1

    def per_pass(x):
        return x / passes

    sums = c["guarded_sums"]
    memo = c["memo_calls"]
    m = {
        "halfint.created_per_key": (c["halfint_created"] / keys, "count"),
        "qcore.qnum_calls_per_key": (c["qnum_calls"] / keys, "count"),
        "qcore.qpow_calls_per_key": (c["qpow_calls"] / keys, "count"),
        "qcore.work_enters_per_key": (c["work_enters"] / keys, "count"),
        "qcore.memo_hit_ratio": ((memo - c["memo_misses"]) / memo if memo else 0.0,
                                 "ratio"),
        "qcore.self_s": (per_pass(tracer.layer_self["qcore"]), "s"),
        "qhyper.guarded_sums": (per_pass(sums), "count"),
        "qhyper.passes_per_sum": (c["passes"] / sums if sums else 0.0, "ratio"),
        "qhyper.boosted_contexts": (per_pass(c["boosts"]), "count"),
        "qhyper.unconverged_sums": (per_pass(c["unconverged_sums"]), "count"),
        "qhyper.eval_terminating_us": (tracer.mean("qhyper.eval_terminating", 1e6), "us"),
        "qhyper.self_s": (per_pass(tracer.layer_self["qhyper"]), "s"),
    }
    for band in ("j_le3", "j4_8", "j20_120"):
        calls, spent = tracer.racah_bands.get(band, (0, 0.0))
        m[f"cgc.racah_us_per_key.{band}"] = (spent / calls * 1e6 if calls else 0.0, "us")
    calls, spent = tracer.crosscheck
    m["cgc.crosscheck_ms_per_key"] = (spent / calls * 1e3 if calls else 0.0, "ms")
    for form in FORMULAS:
        fn = "special_value" if form == "special" else "cgc_" + form
        m[f"cgc.form_us.{form}"] = (tracer.mean(f"cgc.{fn}", 1e6), "us")
    m["cgc.self_s"] = (per_pass(tracer.layer_self["cgc"]), "s")
    m["repsu.oracle_cgc_ms"] = (tracer.mean("repsu.oracle_cgc", 1e3), "ms")
    m["repsu.oracle_lowering_ms"] = (tracer.mean("repsu.oracle_cgc_lowering", 1e3), "ms")
    m["repsu.self_s"] = (per_pass(tracer.layer_self["repsu"]), "s")
    m["qhahn.hahn_eval_us"] = (tracer.mean("qhahn.hahn_eval", 1e6), "us")
    m["qhahn.gram_entry_ms"] = (tracer.mean("qhahn.gram_entry", 1e3), "ms")
    m["qhahn.self_s"] = (per_pass(tracer.layer_self["qhahn"]), "s")
    suites = tracer.modules["verify"].SUITES
    for suite in VERIFY_SUITES:
        name = f"verify.{suites[suite].__name__}"
        m[f"verify.suite_s.{suite}"] = (per_pass(tracer.span_time.get(name, 0.0)), "s")
    for suite in VERIFY_SUITES:
        m[f"verify.margin_digits.{suite}"] = (tally.margins.get(suite, 0.0), "digits")
    m["cli.self_s"] = (per_pass(tracer.layer_self["cli"]), "s")
    m["cli.bytes_out"] = (per_pass(tally.bytes_out), "bytes")
    m = {name: (value * speed if unit in ("s", "ms", "us") else value, unit)
         for name, (value, unit) in m.items()}
    m["trace.overhead_s"] = (overhead_s, "s")
    return m


def print_report(workload, seed, trace, metrics, notes, tally):
    print(f"workload {workload.name}  seed {seed}  trace {trace}"
          f"  precision {PRECISION}")
    print(f"  {workload.why}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:16.6g} {unit}")
    for name, value in notes.items():
        print(f"  {name:34s} {value}")
    print(f"  {'attempted':34s} {tally.attempted:16d}")
    print(f"  {'failed':34s} {tally.failed:16d}")
    for message in tally.messages:
        print(f"  FAILED {message}")


def measure(workload, seed, seconds, trace, span_dir=ROOT / ".bench_out"):
    """One run: set up, reference, then timed or traced passes.

    Returns (metrics, notes, tally); metrics map name -> (value, unit).
    Raises SetupError when the checkout holds no qcgc package.
    """
    with SpeedClock() as clock:
        return _measure(workload, seed, seconds, trace, span_dir, clock)


def _measure(workload, seed, seconds, trace, span_dir, clock):
    pkg, inputs, state, raw_setup_s, setup_s = set_up(workload, seed, clock)
    refs = workload.references(inputs)
    tally = Tally(clock)
    if not trace:
        run_passes(workload, pkg, state, inputs, refs, tally, seconds)
        metrics, notes = end_to_end(tally, setup_s)
        notes.update({
            "raw_setup_s": raw_setup_s,
            "results": tally.results,
            "passes": len(tally.pass_times),
            "fail_ratio": tally.failed / tally.attempted,
            "short_of_precision_ratio": tally.short / max(tally.results, 1),
        })
        if workload.name == "crosscheck":
            notes["deviation_over_tol_ratio"] = tally.over_tol / tally.results
        if workload.name == "verify":
            notes["battery_s"] = statistics.median(tally.pass_times)
            notes["margin_digits_min"] = tally.digits_min
        else:
            notes["keys_per_s"] = metrics["results_per_s"][0]
        return metrics, notes, tally

    untraced = Tally(clock)
    run_passes(workload, pkg, state, inputs, refs, untraced, seconds / 3)
    tracer = Tracer(pkg)
    tracer.install()
    start = time.perf_counter()
    try:
        run_passes(workload, pkg, state, inputs, refs, tally, seconds)
    finally:
        tracer.uninstall()
    speed = clock.speed_over(start, time.perf_counter())
    span_dir.mkdir(exist_ok=True)
    span_file = span_dir / f"spans-{workload.name}-{seed}.jsonl"
    retained = tracer.write_spans(span_file)
    untraced_s = statistics.median(untraced.pass_times)
    traced_s = statistics.median(tally.pass_times)
    metrics = per_layer(tracer, tally, len(tally.pass_times), traced_s - untraced_s,
                        speed)
    notes = {
        "passes_traced": len(tally.pass_times),
        "untraced_pass_s": untraced_s,
        "traced_pass_s": traced_s,
        "machine_speed": speed,
        "spans_retained": retained,
        "spans_dropped": tracer.spans_dropped,
        "span_file": str(span_file),
    }
    tally.attempted += untraced.attempted
    tally.failed += untraced.failed
    tally.messages += untraced.messages
    return metrics, notes, tally


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    try:
        metrics, notes, tally = measure(workload, args.seed, args.seconds, args.trace)
    except (SetupError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print_report(workload, args.seed, args.trace, metrics, notes, tally)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
