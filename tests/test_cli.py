import csv
import importlib.resources as res
import itertools
import json
import logging
import math
import os
import re
import subprocess
import sys

import jsonschema
import pytest

import lfpoly.schemas
from lfpoly import cli, exprfile

from conftest import ZETA, build, zpoly

ZETA_FILE = """\
{
  "lfunctions": [{"id": "zeta", "kind": "zeta"}],
  "monomials": [
    {"coeff": [1.0, 0.0], "factors": [{"lfunc": "zeta", "deriv": 0, "exp": 1}]}
  ]
}
"""


@pytest.fixture()
def zeta_file(tmp_path):
    p = tmp_path / "zeta.json"
    p.write_text(ZETA_FILE)
    return str(p)


@pytest.fixture()
def zeta_prime_file(tmp_path):
    p = tmp_path / "zeta_prime.json"
    exprfile.dump(zpoly((1.0, [(1, 1)])), p)
    return str(p)


@pytest.fixture()
def dzeta_chi4_file(tmp_path, l_chi4):
    p = tmp_path / "dzeta_chi4.json"
    exprfile.dump(build([(1.0, [(ZETA, 1, 1), (l_chi4, 0, 1)])],
                        [ZETA, l_chi4]), p)
    return str(p)


def _schema(name):
    return json.loads(
        res.files(lfpoly.schemas).joinpath(f"{name}.schema.json").read_text()
    )


def _run(argv):
    return cli.main(argv)


def _no_constant(name):
    raise ValueError(f"{name} is not valid JSON")


def _load(out, name):
    # strict: NaN and Infinity are not JSON
    with open(f"{out}/{name}.json") as fh:
        doc = json.load(fh, parse_constant=_no_constant)
    jsonschema.validate(doc, _schema(name))
    return doc


def _labels(capsys):
    # first column of each printed line: a table key, or the text before ": "
    out = capsys.readouterr().out
    return [line.split("  ")[0].split(": ")[0] for line in out.splitlines()]


def test_analyze(zeta_file, tmp_path, capsys):
    out = str(tmp_path / "o")
    assert _run(["analyze", zeta_file, "-o", out]) == 0
    assert _labels(capsys) == [
        "J", "alpha1", "alpha2", "assumptionSatisfied", "degCond", "degDer",
        "degRk", "etaNF", "nF", "pF", "sumCJ",
    ]
    doc = _load(out, "analyze")
    assert doc["schema"] == 1
    assert doc["profile"]["degRk"] == 1
    assert doc["profile"]["pF"] == 1


def test_zeros(zeta_file, tmp_path, capsys):
    out = str(tmp_path / "o")
    assert _run(["zeros", zeta_file, "-o", out, "--T2", "30"]) == 0
    assert _labels(capsys) == ["3 zeros with 0.0 < gamma < 30.0"]
    doc = _load(out, "zeros")
    assert len(doc["zeros"]) == 3
    assert doc["zeros"][0]["gamma"] == pytest.approx(14.134725, abs=1e-5)
    with open(f"{out}/zeros.csv", "rb") as fh:
        data = fh.read()
    assert b"\r\n" in data


def test_count(zeta_file, tmp_path, capsys):
    out = str(tmp_path / "o")
    assert _run(["count", zeta_file, "-o", out, "--T", "50"]) == 0
    assert _labels(capsys) == [
        "T", "empirical", "predicted", "slack (units of log T)",
    ]
    doc = _load(out, "count")
    assert doc["empirical"] == 10
    assert sum(b["count"] for b in doc["bands"]) == 10


def test_cluster(zeta_file, tmp_path, capsys):
    out = str(tmp_path / "o")
    assert _run(
        ["cluster", zeta_file, "-o", out, "--delta", "0.1", "--T", "14",
         "--T2", "31"]
    ) == 0
    assert _labels(capsys) == [
        "delta", "window", "nPlus", "nMinus", "total", "fractionOutside",
    ]
    doc = _load(out, "cluster")
    assert doc["fractionOutside"] == 0.0
    assert doc["total"] == 4


def test_audit(zeta_file, tmp_path, capsys):
    out = str(tmp_path / "o")
    assert _run(
        ["audit", zeta_file, "-o", out, "--epsilon", "0.25", "--n-start", "3",
         "--n-count", "3"]
    ) == 0
    assert _labels(capsys) == ["n=3", "n=4", "n=5"]
    doc = _load(out, "audit")
    assert all(d["matches"] for d in doc["disks"])


def test_fecheck(zeta_file, zeta_prime_file, tmp_path, capsys):
    # a decay fit needs two heights where r exceeds the evaluation error:
    # one height gives no exponent, and for zeta r is rounding at every one
    for name, file, grid, fit in (("dzeta2", zeta_prime_file, "30,60", True),
                                  ("dzeta1", zeta_prime_file, "50", False),
                                  ("zeta2", zeta_file, "30,60", False)):
        out = str(tmp_path / name)
        assert _run(["fecheck", file, "-o", out, "--sigma", "3",
                     "--t-grid", grid]) == 0
        heights = grid.split(",")
        assert _labels(capsys) == [f"t={t}" for t in heights] + [
            "sign matches", "decreasing"] + ["decay exponent"] * fit
        doc = _load(out, "fecheck")
        assert doc["signMatches"]
        assert len(doc["points"]) == len(heights)
        assert ("decayExponent" in doc) == fit


def test_fecheck_far_right(zeta_prime_file, tmp_path):
    # past sigma ~ 250 both sides of the ratio leave the double range
    out = str(tmp_path / "o")
    assert _run(["fecheck", zeta_prime_file, "-o", out, "--sigma", "400"]) == 0
    doc = _load(out, "fecheck")
    assert all(math.isfinite(p["r"]) for p in doc["points"])
    assert doc["decreasing"] is True


# a non-finite table is a numeric error, exit 1 with an AccuracyUnreachable
# document: here the kernel returns NaN for every entry
@pytest.mark.parametrize("argv", [
    ["fecheck", "--sigma", "800"],
    ["audit", "--epsilon", "0.15"],
])
def test_non_finite_values_are_numeric_errors(dzeta_chi4_file, tmp_path,
                                              capsys, monkeypatch, argv):
    from lfpoly import evaluate as ev

    kernel = ev._hurwitz_batch

    def nan_kernel(S, *args):
        C, trunc, rnd = kernel(S, *args)
        return C * math.nan, trunc, rnd

    monkeypatch.setattr(ev, "_hurwitz_batch", nan_kernel)
    out = str(tmp_path / "o")
    assert _run(argv[:1] + [dzeta_chi4_file, "-o", out] + argv[1:]) == 1
    doc = json.loads(capsys.readouterr().out)
    jsonschema.validate(doc, _schema("error"))
    assert doc["error"]["type"] == "AccuracyUnreachable"


# L(s, chi_4) is one Dirichlet polynomial, finite however far right, and
# through the reflection however far left: fecheck at sigma = 800 and the
# audit's start scan at epsilon 0.15, which winds past sigma = -4000
def test_far_values_are_finite(dzeta_chi4_file, tmp_path):
    out = str(tmp_path / "f")
    assert _run(["fecheck", dzeta_chi4_file, "-o", out, "--sigma", "800"]) == 0
    assert all(math.isfinite(p["r"]) for p in _load(out, "fecheck")["points"])
    out = str(tmp_path / "a")
    assert _run(["audit", dzeta_chi4_file, "-o", out, "--epsilon", "0.15"]) == 0
    assert _load(out, "audit")["allMatch"]


# a fresh process far right: no numpy RuntimeWarning reaches stderr
def test_overflow_leaves_stderr_empty(dzeta_chi4_file, tmp_path):
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("LFD_LOG", None)
    out = subprocess.run(
        [sys.executable, "-m", "lfpoly.cli", "fecheck", dzeta_chi4_file,
         "-o", str(tmp_path / "o"), "--sigma", "800"],
        env=env, capture_output=True, text=True)
    assert out.returncode == 0
    assert all(math.isfinite(p["r"]) for p in _load(tmp_path / "o", "fecheck")["points"])
    assert out.stderr == ""


def test_fecheck_spectral_point_is_usage_error(zeta_prime_file, tmp_path,
                                               capsys):
    # s = 3 = 2 * 2 - 1 is a shifted spectral point of zeta: refused before
    # anything is evaluated
    out = str(tmp_path / "o")
    assert _run(["fecheck", zeta_prime_file, "-o", out, "--sigma", "3",
                 "--t-grid", "0,20"]) == 2
    doc = json.loads(capsys.readouterr().out)
    jsonschema.validate(doc, _schema("error"))
    assert doc["error"]["type"] == "ValueError"


def test_verify_pass_and_fail(zeta_file, tmp_path, capsys):
    out = str(tmp_path / "o")
    labels = ["T", "empirical", "predicted", "slack", "threshold", "verdict"]
    assert _run(["verify", zeta_file, "-o", out, "--T", "50"]) == 0
    assert _labels(capsys) == labels
    doc = _load(out, "verify")
    assert doc["pass"] is True
    assert _run(
        ["verify", zeta_file, "-o", out, "--T", "50", "--slack", "1e-12"]
    ) == 1
    assert _labels(capsys) == labels


def test_malformed_file_is_usage_error(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text('{"lfunctions": [}')
    assert _run(["analyze", str(p), "-o", str(tmp_path)]) == 2
    doc = json.loads(capsys.readouterr().out)
    jsonschema.validate(doc, _schema("error"))
    assert doc["error"]["line"] == 1
    # a missing file is a usage error too
    missing = str(tmp_path / "nosuch.json")
    assert _run(["analyze", missing, "-o", str(tmp_path)]) == 2
    doc = json.loads(capsys.readouterr().out)
    jsonschema.validate(doc, _schema("error"))
    assert doc["error"]["type"] == "FileNotFoundError"


@pytest.mark.parametrize("argv", [
    ["count", "--T", "20000"],
    ["zeros", "--T1", "30", "--T2", "20"],
    ["fecheck", "--sigma", "1.5"],
    # an audit needs disks, at indices n >= 0
    ["audit", "--n-count", "0"],
    ["audit", "--n-start", "3", "--n-count", "0"],
    ["audit", "--n-start", "-3"],
])
def test_bad_height_window_is_usage_error(zeta_file, tmp_path, capsys, argv):
    out = str(tmp_path / "o")
    assert _run([argv[0], zeta_file, "-o", out] + argv[1:]) == 2
    doc = json.loads(capsys.readouterr().out)
    jsonschema.validate(doc, _schema("error"))
    assert doc["error"]["type"] == "ValueError"


def test_determinism_same_invocation(zeta_file, tmp_path):
    outs = []
    for name in ("a", "b"):
        out = str(tmp_path / name)
        assert _run(["count", zeta_file, "-o", out, "--T", "40",
                     "--seed", "7"]) == 0
        with open(f"{out}/count.json", "rb") as fh:
            j = fh.read()
        with open(f"{out}/count.csv", "rb") as fh:
            c = fh.read()
        outs.append((j, c))
    assert outs[0] == outs[1]


def test_determinism_across_parallelism(zeta_file, tmp_path):
    # lfpoly runs on one thread: --parallelism 1 is the default, and any
    # other width is a usage error
    outs = []
    for name, flags in (("p1", ["--parallelism", "1"]), ("bare", [])):
        out = str(tmp_path / name)
        assert _run(["count", zeta_file, "-o", out, "--T", "40"] + flags) == 0
        with open(f"{out}/count.json", "rb") as fh:
            outs.append(fh.read())
    assert outs[0] == outs[1]
    with pytest.raises(SystemExit) as e:
        _run(["count", zeta_file, "-o", str(tmp_path / "p2"), "--T", "40",
              "--parallelism", "2"])
    assert e.value.code == 2


def _running_counts(doc):
    counts = itertools.accumulate(b["count"] for b in doc["bands"])
    return [[b["tHi"], n] for b, n in zip(doc["bands"], counts)]


# per command: flags, and the (x, y) rows expected from its document, or
# None where the command writes no plot file
PLOTS = {
    "count": (["--T", "40"], _running_counts),
    "zeros": (["--T2", "30"],
              lambda d: [[z["beta"], z["gamma"]] for z in d["zeros"]]),
    "audit": (["--n-start", "3", "--n-count", "3"],
              lambda d: [[x["n"], x["count"]] for x in d["disks"]]),
    "fecheck": (["--t-grid", "30,60"],
                lambda d: [[p["t"], p["r"]] for p in d["points"]]),
    "analyze": ([], None),
    "cluster": (["--delta", "0.1", "--T", "14", "--T2", "31"], None),
    "verify": (["--T", "40"], None),
}


@pytest.mark.parametrize("command", list(PLOTS))
def test_plot_data(zeta_file, tmp_path, command):
    flags, expect = PLOTS[command]
    out = tmp_path / "o"
    assert _run([command, zeta_file, "-o", str(out), "--plot-data"]
                + flags) == 0
    path = out / f"{command}_plot.csv"
    if expect is None:
        assert not path.exists()
        return
    with open(path, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert header == ["x", "y"]
    want = expect(_load(str(out), command))
    assert len(rows) == len(want) > 1
    assert [[float(v) for v in r] for r in rows] == want


def test_config_defaults(zeta_file, tmp_path):
    # (command, config, further flags, the same run without a config or
    # None for a usage error)
    cases = [
        ("count", {"T": 40.0}, [], ["--T", "40"]),
        ("count", {"T": 40}, [], ["--T", "40"]),
        ("count", {"seed": 5, "T": 40}, [], ["--T", "40", "--seed", "5"]),
        ("count", {"seed": 5, "T": 40}, ["--seed", "7"],
         ["--T", "40", "--seed", "7"]),
        ("verify", {"T": 40, "slack": 0.01}, [],
         ["--T", "40", "--slack", "0.01"]),
        ("count", {"T": "abc"}, [], None),
        ("count", {"T": 40, "Tx": 40}, [], None),
        ("count", {"T": 30, "plot-data": False}, [], ["--T", "30"]),
        ("count", {"T": 30, "seed": False}, [], None),
    ]
    cfg = tmp_path / "cfg.json"
    for i, (command, values, flags, same) in enumerate(cases):
        cfg.write_text(json.dumps(values))
        out = str(tmp_path / f"c{i}")
        argv = [command, zeta_file, "-o", out, "--config", str(cfg)] + flags
        if same is None:
            with pytest.raises(SystemExit) as e:
                _run(argv)
            assert e.value.code == 2, values
            continue
        ref = str(tmp_path / f"r{i}")
        assert _run(argv) == _run([command, zeta_file, "-o", ref] + same)
        with open(f"{out}/{command}.json", "rb") as a, \
                open(f"{ref}/{command}.json", "rb") as b:
            assert a.read() == b.read(), values


def test_log_env_does_not_change_output(zeta_file, tmp_path, monkeypatch):
    for cmd, *flags in (["analyze"],
                        ["audit", "--n-start", "3", "--n-count", "3"]):
        outs = []
        for name, lvl in (("q", None), ("v", "DEBUG")):
            if lvl is None:
                monkeypatch.delenv("LFD_LOG", raising=False)
            else:
                monkeypatch.setenv("LFD_LOG", lvl)
            out = str(tmp_path / name)
            assert _run([cmd, zeta_file, "-o", out] + flags) == 0
            with open(f"{out}/{cmd}.json", "rb") as fh:
                outs.append(fh.read())
        assert outs[0] == outs[1], cmd


def test_count_logs_strip_bounds_once(zeta_file, tmp_path, caplog):
    caplog.set_level(logging.DEBUG, logger="lfpoly.zeros")
    assert _run(["count", zeta_file, "-o", str(tmp_path / "o"), "--T", "30"]) == 0
    records = [r.getMessage() for r in caplog.records
               if r.getMessage().startswith("strip bounds")]
    assert len(records) == 1
    assert re.fullmatch(r"strip bounds: E1 = -1 \(scan\), E2 = \S+; "
                        r"scan [1-9]\d* F points, \d+\.\d{3} s", records[0])


# an expression's degree profile and strip are derived once per run, on
# the expression (F.profile, F.strip); audit and fecheck need no strip
@pytest.mark.parametrize("argv, strips", [
    (["count", "--T", "20"], 1),
    (["zeros", "--T1", "14", "--T2", "22"], 1),
    (["cluster", "--delta", "0.1", "--T", "14", "--T2", "22"], 1),
    (["verify", "--T", "20"], 1),
    (["audit", "--n-start", "3", "--n-count", "2"], 0),
    (["fecheck", "--t-grid", "20,40"], 0),
])
def test_invariants_computed_once(zeta_file, tmp_path, monkeypatch, argv,
                                  strips):
    from lfpoly import expr as E, zeros as Z

    calls = []
    for mod, name in ((E, "degree_profile"), (Z, "zero_free_bounds")):
        def counted(F, real=getattr(mod, name), name=name):
            calls.append(name)
            return real(F)

        monkeypatch.setattr(mod, name, counted)
    assert _run([argv[0], zeta_file, "-o", str(tmp_path)] + argv[1:]) == 0
    assert calls.count("degree_profile") == 1
    assert calls.count("zero_free_bounds") == strips


def test_audit_mismatch_exit_code(zeta_prime_file, tmp_path):
    # at n = 3 the zeta' zero has not yet migrated into the disk
    out = str(tmp_path / "o")
    assert _run(
        ["audit", zeta_prime_file, "-o", out, "--n-start", "3",
         "--n-count", "2"]
    ) == 1


# start-up cost: a fresh process that loads and profiles an expression, as
# every CLI command does first, imports numpy and nothing heavier
def test_startup_without_scipy(zeta_file):
    code = (
        "import sys\n"
        "import lfpoly, lfpoly.cli\n"
        "from lfpoly import expr, exprfile\n"
        "expr.degree_profile(exprfile.load(sys.argv[1]))\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = os.path.dirname(os.path.dirname(lfpoly.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code, zeta_file], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


# the benchmark under lfbench/ wraps the lfpoly functions that its tracer
# names, with no default for a missing one, and passes --parallelism 1 to
# every command: a deleted name or flag breaks every benchmark run
def test_benchmark_hooks_exist():
    import ast
    import importlib
    import inspect

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "lfbench", "tracer.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    traced = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                  and [t.id for t in node.targets] == ["TRACED"])
    names = [(e.elts[0].value, e.elts[1].value) for e in traced.elts]
    assert names
    for mod, name in names:
        assert hasattr(importlib.import_module(f"lfpoly.{mod}"), name), (mod, name)
    # a point counter reads the size of the argument at its position, which
    # must stay the point array S
    for e in traced.elts:
        pos = {"_ARG0": 0, "_ARG1": 1}.get(getattr(e.elts[3], "id", None))
        if pos is not None:
            mod, name = e.elts[0].value, e.elts[1].value
            fn = getattr(importlib.import_module(f"lfpoly.{mod}"), name)
            assert list(inspect.signature(fn).parameters)[pos] == "S", (mod, name)
    args = cli._build_parser().parse_args(["count", "f.json", "--parallelism", "1"])
    assert args.parallelism == 1
