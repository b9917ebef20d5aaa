"""End-to-end tests of the command-line interface."""

import contextlib
import csv
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from mpmath import mp, mpf
from mpmath.libmp import fzero, from_man_exp, from_str, round_nearest, to_str

import qcgc
from qcgc import HalfInt, QContext, verify
from qcgc.cgc import racah_table
from qcgc.cli import _fmt, build_parser, main
from qcgc.halfint import doubled
from test_cgc import _exact


def _run(argv):
    parser = build_parser()
    args = parser.parse_args(argv)
    stream = io.StringIO()
    code = args.func(args, stream=stream)
    return code, stream.getvalue()


def test_cgc_stretched_is_one():
    code, out = _run(["cgc", "--q", "0.5", "--j1", "1/2", "--m1", "1/2",
                      "--j2", "1/2", "--m2", "1/2", "--j", "1", "--m", "1"])
    assert code == 0
    assert out.startswith("<1/2 1/2, 1/2 1/2|1 1> = 1.0")
    assert "[racah]" in out


def test_cgc_selection_failure_prints_zero_with_reason():
    code, out = _run(["cgc", "--j1", "1/2", "--m1", "1/2", "--j2", "1/2",
                      "--m2", "1/2", "--j", "1", "--m", "0"])
    assert code == 0
    assert "= 0.0" in out
    assert "selection" in out


def test_cgc_verify_reports_deviation():
    code, out = _run(["cgc", "--j1", "1", "--m1", "0", "--j2", "1",
                      "--m2", "0", "--j", "2", "--m", "0", "--verify"])
    assert code == 0
    assert "max cross-formula deviation" in out
    # the distinct computations compared, before the deviation
    assert out.split("[racah]  ")[1].startswith("2 computations, max")
    deviation = mpf(out.rsplit("deviation", 1)[1].strip())
    assert deviation < mpf("1e-35")


def test_cgc_verify_counts_one_computation_in_the_singular():
    # on <0 0, 1 1|1 1> every closed form and the special row are one
    # product, so one computation is compared and nothing deviates
    code, out = _run(["cgc", "--q", "0.5", "--j1", "0", "--m1", "0", "--j2", "1",
                      "--m2", "1", "--j", "1", "--m", "1", "--verify"])
    assert code == 0
    assert out.endswith("[racah]  1 computation, max cross-formula deviation 0.0\n")


def test_usage_error_exit_code():
    assert main(["cgc", "--j1", "1/3", "--m1", "0", "--j2", "1",
                 "--m2", "0", "--j", "1", "--m", "0"]) == 2


@pytest.mark.parametrize("q", ["inf", "+inf", "nan"])
def test_an_infinite_q_is_a_usage_error(q, capsys):
    # exit 1 means a failed check; an infinite q used to divide by zero
    # and exit 1
    assert main(["cgc", "--q", q, "--j1", "1", "--m1", "0", "--j2", "1",
                 "--m2", "0", "--j", "2", "--m", "0"]) == 2
    assert "q must be a positive finite number" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["cgc", "--q", "0.3", "--j1", "3/2", "--m1", "1/2", "--j2", "1/2",
     "--m2", "-1/2", "--j", "1", "--m", "0"],
    ["cgc", "--q", "3", "--j1", "3/2", "--m1", "-3/2", "--j2", "1/2",
     "--m2", "-1/2", "--j", "2", "--m", "-2", "--verify"],
    ["limit", "--j1", "1/2", "--m1", "-1/2", "--j2", "1/2", "--m2", "1/2",
     "--j", "1", "--m", "0"],
    ["hahn", "--n", "1", "--N", "4", "--alpha", "-1/2", "--beta", "1"],
], ids=["cgc", "cgc-verify", "limit", "hahn"])
def test_a_negative_half_integer_label_is_its_own_token(argv):
    # argparse reads "-1/2" as an option unless the parser says otherwise;
    # "--m2 -1/2" must parse as "--m2=-1/2" does, in build_parser itself
    joined = []
    for arg in argv:
        if arg.startswith("-") and not arg.startswith("--"):
            joined[-1] += "=" + arg
        else:
            joined.append(arg)
    assert len(joined) < len(argv)
    code, out = _run(argv)
    assert code == 0 and out
    assert (code, out) == _run(joined)
    if argv[0] == "cgc":
        assert "-1/2" in out


def test_the_parser_is_built_once_and_each_call_stands_alone():
    assert build_parser() is build_parser()
    argv = ["table", "--j1", "1/2", "--j2", "1/2"]
    code, out = _run(argv + ["--format", "json"])
    assert code == 0 and json.loads(out)["config"]["format"] == "json"
    code, out = _run(argv)
    assert code == 0 and out.startswith("j1,m1,j2,m2,j,m,value")
    build_parser().parse_args(["cgc", "--j1", "3", "--m1", "1", "--j2", "2",
                               "--m2", "-1", "--j", "4", "--m", "0"])
    args = build_parser().parse_args(["limit"])
    assert (args.j1, args.m1, args.j2, args.m2, args.j, args.m) == (
        "1", "0", "1", "0", "2", "0")


def test_a_value_past_the_unitarity_bound_is_an_error(capsys):
    # the 'sum' row loses every digit on this key at q = 0.3 and returned
    # 2.0e148, which --verify printed as the deviation with exit status 0
    argv = ["cgc", "--q", "0.3", "--j1", "11", "--m1", "5", "--j2", "23/2",
            "--m2=-17/2", "--j", "9/2", "--m=-7/2"]
    assert main(argv + ["--verify"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: the sum row gives <11 5, 23/2 -17/2|9/2 -7/2> = ")
    assert "unitarity" in err
    assert main(argv) == 0
    assert capsys.readouterr().out.startswith(
        "<11 5, 23/2 -17/2|9/2 -7/2> = -4.6787")


def test_table_csv_and_json_are_value_identical():
    common = ["table", "--j1", "1", "--j2", "1/2", "--q", "0.9"]
    code_csv, out_csv = _run(common + ["--format", "csv"])
    code_json, out_json = _run(common + ["--format", "json"])
    assert code_csv == 0 and code_json == 0
    csv_rows = list(csv.DictReader(io.StringIO(out_csv)))
    payload = json.loads(out_json)
    assert payload["schema_version"] == 1
    assert payload["config"]["q"] == "0.9"
    assert csv_rows == payload["rows"]
    # 1 x 1/2: the j=3/2 states carry 1+2+2+1 product components and the
    # j=1/2 states carry 2+2, so 10 nonzero keys
    assert len(csv_rows) == 10


def test_table_unitarity_checksums():
    _, out = _run(["table", "--j1", "1/2", "--j2", "1/2",
                   "--format", "json"])
    payload = json.loads(out)
    assert len(payload["checksums"]) == 4
    for entry in payload["checksums"]:
        assert abs(mpf(entry["sum_sq"]) - 1) < mpf("1e-25")


@pytest.mark.parametrize("precision", ["50", "100"])
@pytest.mark.parametrize("q", ["0.3", "1", "2"])
def test_table_layout_is_json_dumps_indent_2(q, precision):
    # the JSON is what json.dumps(payload, indent=2) writes, and the CSV
    # what csv.DictWriter writes from the same rows
    for j1, j2 in (("1/2", "1/2"), ("3/2", "1"), ("5/2", "3/2"),
                   ("4", "7/2")):
        common = ["table", "--j1", j1, "--j2", j2, "--q", q,
                  "--precision", precision, "--cap", "4"]
        _, out_json = _run(common + ["--format", "json"])
        _, out_csv = _run(common + ["--format", "csv"])
        payload = json.loads(out_json)
        assert out_json == json.dumps(payload, indent=2) + "\n"
        rewrite = io.StringIO()
        writer = csv.DictWriter(rewrite, fieldnames=list(payload["rows"][0]))
        writer.writeheader()
        writer.writerows(payload["rows"])
        assert out_csv == rewrite.getvalue()


@pytest.mark.parametrize("q", ["0.3", "1", "1.25"])
def test_table_checksums_are_exact_sums_of_squares(q):
    ctx = QContext(q=q, precision=50)
    for j1, j2 in (("4", "4"), ("8", "3")):
        _, out = _run(["table", "--j1", j1, "--j2", j2, "--q", q,
                       "--cap", "8", "--format", "json"])
        exact = {}
        for (_, tm1, _, tm2, _, _), value in racah_table(j1, j2, ctx).items():
            label = (str(HalfInt(twice=tm1)), str(HalfInt(twice=tm2)))
            man, exp = value.man_exp
            square = Fraction(man) ** 2 * Fraction(4) ** exp
            exact[label] = exact.get(label, 0) + square
        checksums = json.loads(out)["checksums"]
        assert [(c["m1"], c["m2"]) for c in checksums] == sorted(exact)
        for entry in checksums:
            total = exact[entry["m1"], entry["m2"]]
            with mp.workprec(8 * total.numerator.bit_length()):
                expected = mp.nstr(mpf(total.numerator) / total.denominator, 30)
            assert entry["sum_sq"] == expected
            assert abs(mpf(entry["sum_sq"]) - 1) <= mpf("1e-28")


def test_table_at_q_1_prints_the_rounded_exact_values():
    # every exact zero prints 0.0, and every other value is the Fraction
    # reference rounded to the printed digits
    _, out = _run(["table", "--j1", "3", "--j2", "3", "--q", "1",
                   "--format", "csv"])
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 231
    zeros = 0
    for row in rows:
        sign, square = _exact(tuple(doubled(row[name]) for name in
                                    ("j1", "m1", "j2", "m2", "j", "m")))
        with mp.workdps(140):
            exact = sign * mp.sqrt(mpf(square.numerator) / square.denominator)
            assert row["value"] == mp.nstr(exact, 50, strip_zeros=False), row
        zeros += square == 0
        assert (row["value"] == "0.0") == (square == 0)
    assert zeros == 15


def test_main_writes_to_the_current_stdout():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["table", "--j1", "1/2", "--j2", "1/2"])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out.getvalue())))
    assert len(rows) == 6


def test_table_cap_enforced():
    assert main(["table", "--j1", "4", "--j2", "1", "--cap", "3"]) == 2


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_table_rejects_a_negative_spin(fmt, capsys):
    # a negative j1 printed a bare CSV header (exit 0), or failed in JSON
    # on the empty table's checksums
    for argv, name in ((["--j1", "-1", "--j2", "1"], "j1 = -1"),
                       (["--j1", "1", "--j2=-1/2"], "j2 = -1/2")):
        assert main(["table", *argv, "--format", fmt]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: spin {name} is negative\n"


def _assert_fmt_is_to_str(raw, dps):
    assert _fmt(raw, dps) == to_str(raw, dps, strip_zeros=False), (raw, dps)
    # the checksums' form: 30 digits, trailing zeros stripped, and a sum
    # whose mantissa is not normalised
    assert _fmt(raw, 30, True) == to_str(raw, 30), raw
    _, man, exp, bc = raw
    if man:
        wide = (raw[0], man << 40, exp - 40, bc + 40)
        assert _fmt(wide, 30, True) == to_str(raw, 30), raw


@pytest.mark.parametrize("precision", [30, 50, 100])
def test_fmt_is_to_str_on_table_values(precision):
    for q in ("0.3", "1", "3"):
        ctx = QContext(q=q, precision=precision)
        for j1, j2 in (("5/2", "3/2"), ("3/2", "5/2"), ("4", "4"),
                       ("8", "3"), ("3", "8")):
            for value in racah_table(j1, j2, ctx).values():
                _assert_fmt_is_to_str(value._mpf_, precision)


def test_fmt_is_to_str_on_edge_values():
    rng = random.Random(29)
    raws = [fzero]
    for k in range(1, 400, 7):
        # 2^-k: a digit string ending in 5, an exact tie at some length;
        # 1 - 2^-k: a run of 9s that rounds into a new power of ten
        raws += [from_man_exp(1, -k), from_man_exp((1 << k) - 1, -k)]
    for e in range(-40, 110):
        # both sides of the fixed-point bounds min(-(dps//3), -5) and dps,
        # also where a carry moves the exponent across them
        for digits in ("12345", "9" * 60, "9" * 105):
            raws.append(from_str(f"{digits[0]}.{digits[1:]}e{e}", 400,
                                 round_nearest))
    for _ in range(2000):
        bits = rng.randrange(1, 500)
        raws.append(from_man_exp(rng.getrandbits(bits) | 1,
                                 rng.randrange(-700, 500) - bits))
    # past 2^3500 either way, which to_str scales by a power of ten first;
    # near 2^20000 a value has more digits than str prints of an int
    raws += [from_man_exp(rng.getrandbits(200) | 1, e)
             for e in (3400, -3700, 5000, -9000, 19800)]
    for raw in raws:
        for sign in (0, 1) if raw[1] else (0,):
            for dps in (30, 31, 50, 100):
                _assert_fmt_is_to_str((sign,) + raw[1:], dps)
    # str() prints an int of at most 4300 digits
    third = from_man_exp((1 << 13400) // 3, -13400)
    for dps in (4000, 4001, 4400):
        assert _fmt(third, dps) == to_str(third, dps, strip_zeros=False)


def test_table_deterministic():
    argv = ["table", "--j1", "1", "--j2", "1", "--format", "json"]
    assert _run(argv) == _run(argv)


def test_verify_single_suite_passes():
    code, out = _run(["verify", "--quick", "--suite", "recurrence"])
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["failing_suites"] == []
    suite = payload["suites"]["recurrence"]
    checks = suite["checks"]
    assert {c["name"] for c in checks} == {"recurrence_j", "recurrence_m"}
    assert suite["wall_s"] > 0
    # the tightest check's margin, log10(tolerance/residual)
    tightest = min(float(mp.log10(mpf(c["tolerance"]) / mpf(c["residual"])))
                   for c in checks)
    assert suite["margin_digits"] > 0
    assert abs(suite["margin_digits"] - tightest) < 1e-3


def test_verify_takes_no_q():
    # every suite runs its own grid of q, so verify takes no --q; the
    # parser takes no abbreviations, so "--q" is an unknown option there
    # and not short for "--quick"
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--q", "0.9", "--quick", "--suite", "recurrence"])
    assert exc.value.code == 2
    code, out = _run(["verify", "--quick", "--suite", "recurrence"])
    assert code == 0
    assert "q" not in json.loads(out)["config"]


@pytest.mark.parametrize("quick, qs", [(False, {"0.5", "0.9"}),
                                       (True, {"0.5"})])
def test_unitarity_runs_the_criterion_grid_unless_quick(monkeypatch, quick,
                                                          qs):
    seen = set()
    make = verify._ctx

    def recording(q, precision):
        seen.add(q)
        return make(q, precision)

    monkeypatch.setattr(verify, "_ctx", recording)
    verify.run_suites(["unitarity"], quick=quick)
    assert seen == qs


def test_verify_rejects_an_abbreviated_option(monkeypatch, capsys):
    # "--q" alone once ran the quick battery as "--quick"
    def forbidden(*args, **kwargs):
        raise AssertionError("a suite ran")

    monkeypatch.setattr(qcgc.verify, "run_suites", forbidden)
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--q"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --q" in capsys.readouterr().err


def test_verify_rejects_an_unknown_suite(monkeypatch, capsys):
    # the parser does not read verify.SUITES, so cmd_verify checks each
    # name; without it run_suites raised a bare KeyError (exit 1)
    def forbidden(*args, **kwargs):
        raise AssertionError("a suite ran")

    monkeypatch.setattr(qcgc.verify, "run_suites", forbidden)
    assert main(["verify", "--suite", "recurrence", "--suite", "nosuch"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: unknown suite nosuch")
    assert all(name in err for name in verify.SUITES)


def test_quick_coupling_suites_build_almost_no_halfint(monkeypatch):
    # a key is its doubled labels, and verify hands its pool labels on as
    # Fractions, so these suites build a HalfInt only for a spin cap
    # (1101 while each key also held its six labels as HalfInts)
    built = []
    init = HalfInt.__init__

    def counting(self, *args, **kwargs):
        built.append(args or kwargs)
        init(self, *args, **kwargs)

    monkeypatch.setattr(HalfInt, "__init__", counting)
    verify.run_suites(["formulas", "oracle", "unitarity", "symmetry"],
                      quick=True)
    assert len(built) <= 10


def test_quick_hahn_suites_build_almost_no_halfint():
    # HahnParams holds alpha and beta doubled, so these suites build
    # almost no HalfInt (182 while HahnParams held HalfInts, 148 of them
    # in qhahn._connection_data); in a fresh process, as a context keeps
    # what it computed for the life of one
    script = (
        "from qcgc import HalfInt, verify\n"
        "built = []\n"
        "init = HalfInt.__init__\n"
        "def counting(self, *args, **kwargs):\n"
        "    built.append(args or kwargs)\n"
        "    init(self, *args, **kwargs)\n"
        "HalfInt.__init__ = counting\n"
        "verify.run_suites(['hahn', 'connection', 'recurrence'], quick=True)\n"
        "print(len(built))\n")
    assert int(_python(script)) <= 5


def test_verify_tolerance_override():
    # a tolerance below the suite's residuals fails it and flips the exit code
    code, out = _run(["verify", "--quick", "--suite", "recurrence",
                      "--tolerance", "1e-80"])
    assert code == 1
    payload = json.loads(out)
    assert payload["failing_suites"] == ["recurrence"]


def test_hahn_table_csv():
    code, out = _run(["hahn", "--n", "1", "--N", "4", "--alpha", "1",
                      "--beta", "1"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "s,x,weight,value"
    assert len(lines) == 6  # header + 4 lattice rows + norm comment
    assert lines[-1].startswith("# norm_sq,")


def test_hahn_json_single_point():
    code, out = _run(["hahn", "--n", "2", "--N", "5", "--alpha", "1",
                      "--beta", "2", "--s", "3", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert len(payload["rows"]) == 1
    assert payload["rows"][0]["s"] == "3"


def test_limit_report_converges():
    code, out = _run(["limit", "--j1", "1", "--m1", "0", "--j2", "1",
                      "--m2", "0", "--j", "2", "--m", "0"])
    assert code == 0
    payload = json.loads(out)
    devs = [mpf(row["deviation"]) for row in payload["rows"]]
    assert all(devs[i + 1] < devs[i] for i in range(len(devs) - 1))
    assert devs[-1] < mpf("1e-5")


def test_limit_odd_parity_key_converges_to_zero():
    _, out = _run(["limit", "--j1", "1", "--m1", "0", "--j2", "1",
                   "--m2", "0", "--j", "1", "--m", "0"])
    payload = json.loads(out)
    assert mpf(payload["classical_value"]) == 0
    assert mpf(payload["rows"][-1]["value"]) < mpf("1e-5")


def _python(code):
    """What ``code`` prints when run in a fresh interpreter that imports
    this qcgc."""
    src = str(Path(qcgc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60,
                          check=True).stdout.strip()


def test_package_imports_without_numpy():
    # mpmath is the one runtime dependency
    assert _python("import sys, qcgc, qcgc.cli, qcgc.verify; "
                   "print('numpy' in sys.modules)") == "False"


def test_table_and_cgc_load_only_the_coupling_path():
    # qhahn, repsu and verify load on first use, and the coupling
    # commands never use them
    script = (
        "import contextlib, io, sys\n"
        "from qcgc.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    main(['table', '--j1', '1', '--j2', '1/2', '--format', 'json'])\n"
        "    main(['cgc', '--j1', '1', '--m1', '0', '--j2', '1/2',\n"
        "          '--m2', '1/2', '--j', '3/2', '--m', '1/2', '--verify'])\n"
        "print(sorted(m for m in ('qcgc.qhahn', 'qcgc.repsu', 'qcgc.verify')\n"
        "             if m in sys.modules))\n"
        "import qcgc\n"
        "assert all(getattr(qcgc, name) for name in qcgc.__all__)\n"
        "assert 'limit' in qcgc.verify.SUITES\n"
        "from qcgc import hahn_eval\n"
        "assert hahn_eval is qcgc.qhahn.hahn_eval\n"
        "assert qcgc.HahnParams is qcgc.qhahn.HahnParams\n"
        "try:\n"
        "    qcgc.nosuch\n"
        "except AttributeError:\n"
        "    print('AttributeError')\n")
    assert _python(script).splitlines() == ["[]", "AttributeError"]
