"""Tests of the benchmark harness itself.

Run from the root of a checkout with

    python3 -m pytest -q bench/selftest.py

The file is not named ``test_*.py`` so the repository's own test run does
not collect it: the traced runs patch qcgc functions in-process.  Each
workload runs at a tiny size here; the assertions are about the harness
(metric names and units, seeded inputs, the correctness gate), not about
qcgc's speed.
"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import mpmath
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402
from speed import SpeedClock  # noqa: E402
from reference import reference_value  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


@pytest.fixture
def tiny(monkeypatch):
    """Shrink every workload's pass to a handful of calls."""
    monkeypatch.setattr(workloads, "TABLE_LADDER", ((1, 1), (2, 1), (4, 2)))
    monkeypatch.setattr(workloads, "CROSSCHECK_TWICE_MAX", 2)
    monkeypatch.setattr(workloads, "CROSSCHECK_KEYS_PER_PAIR", 1)
    monkeypatch.setattr(workloads, "LARGESPIN_BANDS", ((40, 44),))
    monkeypatch.setattr(workloads, "LARGESPIN_UNIFORM_KEYS", 1)
    monkeypatch.setattr(workloads, "LARGESPIN_CANCELLING_KEYS", 1)
    monkeypatch.setattr(workloads.VerifyWorkload, "suites",
                        ("symmetry", "recurrence", "limit"))
    monkeypatch.setattr(run, "SETUP_REPEATS", 2)


def _specs(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_present_with_its_unit(tiny, tmp_path, name, trace):
    metrics, _, tally = run.measure(workloads.WORKLOADS[name], seed=3,
                                    seconds=0.01, trace=trace, span_dir=tmp_path)
    expected = _specs("per_layer" if trace else "end_to_end")
    assert {k: unit for k, (_, unit) in metrics.items()} == expected
    assert all(isinstance(v, float) and v == v for v, _ in metrics.values())
    assert tally.attempted > 0 and tally.failed == 0, tally.messages


def test_workload_names_match_spec():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_follow_the_seed(name):
    workload = workloads.WORKLOADS[name]
    assert workload.make_inputs(7) == workload.make_inputs(7)
    assert workload.make_inputs(7) != workload.make_inputs(8)


def test_layer_counts_repeat_for_a_fixed_seed(tiny, tmp_path):
    counted = ("halfint.created_per_key", "qcore.qnum_calls_per_key",
               "qcore.qpow_calls_per_key", "qcore.work_enters_per_key",
               "qhyper.guarded_sums", "qhyper.passes_per_sum",
               "qhyper.boosted_contexts", "qhyper.unconverged_sums")
    workload = workloads.WORKLOADS["crosscheck"]
    first, second = (run.measure(workload, 5, 0.01, 1, span_dir=tmp_path)[0]
                     for _ in range(2))
    assert {k: first[k] for k in counted} == {k: second[k] for k in counted}
    assert first["qhyper.guarded_sums"][0] > 0


def _scaled(rel, shift=0):
    """Perturbation v -> v * (1 + rel) + shift, at a precision that keeps it."""
    def perturb(value):
        with mpmath.workdps(150):
            return value * (1 + mpmath.mpf(rel)) + mpmath.mpf(shift)
    return perturb


def _crosscheck_pass(tiny_inputs, perturb, deviation=None):
    """Run one crosscheck pass whose returned values go through ``perturb``
    and whose deviations are replaced by ``deviation`` when given."""
    workload = workloads.WORKLOADS["crosscheck"]
    pkg = run.import_qcgc()
    state = workload.prepare(pkg, tiny_inputs)
    refs = workload.references(tiny_inputs)

    def compute(key, ctx, mode):
        result = pkg.compute(key, ctx, mode=mode)
        return types.SimpleNamespace(
            value=perturb(result.value),
            deviation=result.deviation if deviation is None else mpmath.mpf(deviation))

    with SpeedClock() as clock:
        tally = workloads.Tally(clock)
        workload.run_pass(types.SimpleNamespace(compute=compute), state,
                          tiny_inputs, refs, tally)
    return tally


def test_gate_passes_untouched_output(tiny):
    inputs = workloads.WORKLOADS["crosscheck"].make_inputs(1)
    tally = _crosscheck_pass(inputs, lambda v: v)
    assert tally.failed == 0 and tally.short == 0


def test_gate_catches_a_perturbed_value(tiny):
    inputs = workloads.WORKLOADS["crosscheck"].make_inputs(1)
    tally = _crosscheck_pass(inputs, _scaled("1e-12", "1e-12"))
    # every admissible value and every structural zero is now wrong
    assert tally.failed == len(inputs)
    assert tally.short == len(inputs)


def test_gate_counts_a_small_loss_as_short_not_failed(tiny):
    inputs = [(key, q, p) for key, q, p in workloads.WORKLOADS["crosscheck"].make_inputs(1)
              if workloads.admissible(key)]
    tally = _crosscheck_pass(inputs, _scaled("1e-45"))
    assert tally.failed == 0
    assert tally.short == len(inputs)


def test_gate_fails_a_large_deviation_and_counts_a_small_one(tiny):
    inputs = [(key, q, p) for key, q, p in workloads.WORKLOADS["crosscheck"].make_inputs(1)
              if workloads.admissible(key)]
    small = _crosscheck_pass(inputs, _scaled(0), deviation="1e-39")
    assert small.failed == 0 and small.over_tol == len(inputs)
    large = _crosscheck_pass(inputs, _scaled(0), deviation="1e-20")
    assert large.failed == len(inputs)


def test_gate_catches_a_perturbed_table_row():
    tj1, tj2, q = 2, 1, "0.5"
    pkg = run.import_qcgc()
    argv = ["table", "--j1", "1", "--j2", "1/2", "--q", q, "--cap", "8",
            "--format", "json"]
    buf = io.StringIO()
    args = pkg.cli.build_parser().parse_args(argv)
    assert args.func(args, stream=buf) == 0
    expected = {key: reference_value(key, q, workloads.PRECISION)
                for key in workloads.pair_keys(tj1, tj2)}
    clean = workloads.Tally(clock=None)
    workloads.TableWorkload._check(buf.getvalue(), 0, expected, clean, argv)
    assert clean.failed == 0 and clean.attempted == len(expected) + 1

    payload = json.loads(buf.getvalue())
    row = payload["rows"][1]
    row["value"] = mpmath.nstr(_scaled("1e-20")(mpmath.mpf(row["value"])), 50)
    tally = workloads.Tally(clock=None)
    workloads.TableWorkload._check(json.dumps(payload), 0, expected, tally, argv)
    assert tally.failed == 1


def test_without_the_package_the_run_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "table", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
