import importlib.resources as res
import json

import jsonschema
import pytest

import lfpoly.schemas
from lfpoly import cli, exprfile

from conftest import zpoly

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


def _schema(name):
    return json.loads(
        res.files(lfpoly.schemas).joinpath(f"{name}.schema.json").read_text()
    )


def _run(argv):
    return cli.main(argv)


def _load(out, name):
    with open(f"{out}/{name}.json") as fh:
        doc = json.load(fh)
    jsonschema.validate(doc, _schema(name))
    return doc


def test_analyze(zeta_file, tmp_path):
    out = str(tmp_path / "o")
    assert _run(["analyze", zeta_file, "-o", out]) == 0
    doc = _load(out, "analyze")
    assert doc["schema"] == 1
    assert doc["profile"]["degRk"] == 1
    assert doc["profile"]["pF"] == 1


def test_zeros(zeta_file, tmp_path):
    out = str(tmp_path / "o")
    assert _run(["zeros", zeta_file, "-o", out, "--T2", "30"]) == 0
    doc = _load(out, "zeros")
    assert len(doc["zeros"]) == 3
    assert doc["zeros"][0]["gamma"] == pytest.approx(14.134725, abs=1e-5)
    with open(f"{out}/zeros.csv", "rb") as fh:
        data = fh.read()
    assert b"\r\n" in data


def test_count(zeta_file, tmp_path):
    out = str(tmp_path / "o")
    assert _run(["count", zeta_file, "-o", out, "--T", "50"]) == 0
    doc = _load(out, "count")
    assert doc["empirical"] == 10
    assert sum(b["count"] for b in doc["bands"]) == 10


def test_cluster(zeta_file, tmp_path):
    out = str(tmp_path / "o")
    assert _run(
        ["cluster", zeta_file, "-o", out, "--delta", "0.1", "--T", "14",
         "--T2", "31"]
    ) == 0
    doc = _load(out, "cluster")
    assert doc["fractionOutside"] == 0.0
    assert doc["total"] == 4


def test_audit(zeta_file, tmp_path):
    out = str(tmp_path / "o")
    assert _run(
        ["audit", zeta_file, "-o", out, "--epsilon", "0.25", "--n-start", "3",
         "--n-count", "3"]
    ) == 0
    doc = _load(out, "audit")
    assert all(d["matches"] for d in doc["disks"])


def test_fecheck(zeta_file, tmp_path):
    out = str(tmp_path / "o")
    assert _run(
        ["fecheck", zeta_file, "-o", out, "--sigma", "3", "--t-grid", "30,60"]
    ) == 0
    doc = _load(out, "fecheck")
    assert doc["signMatches"]
    assert len(doc["points"]) == 2


def test_verify_pass_and_fail(zeta_file, tmp_path):
    out = str(tmp_path / "o")
    assert _run(["verify", zeta_file, "-o", out, "--T", "50"]) == 0
    doc = _load(out, "verify")
    assert doc["pass"] is True
    assert _run(
        ["verify", zeta_file, "-o", out, "--T", "50", "--slack", "1e-12"]
    ) == 1


def test_malformed_file_is_usage_error(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text('{"lfunctions": [}')
    assert _run(["analyze", str(p), "-o", str(tmp_path)]) == 2
    doc = json.loads(capsys.readouterr().out)
    jsonschema.validate(doc, _schema("error"))
    assert doc["error"]["line"] == 1


@pytest.mark.parametrize("argv", [
    ["count", "--T", "20000"],
    ["zeros", "--T1", "30", "--T2", "20"],
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
    outs = []
    for name, width in (("p1", "1"), ("p8", "8")):
        out = str(tmp_path / name)
        assert _run(["count", zeta_file, "-o", out, "--T", "40",
                     "--parallelism", width]) == 0
        with open(f"{out}/count.json", "rb") as fh:
            outs.append(fh.read())
    assert outs[0] == outs[1]


def test_plot_data(zeta_file, tmp_path):
    out = str(tmp_path / "o")
    assert _run(["count", zeta_file, "-o", out, "--T", "40",
                 "--plot-data"]) == 0
    with open(f"{out}/count_plot.csv") as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "x,y"
    assert len(lines) > 2


def test_config_defaults(zeta_file, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"T": 40.0}))
    out = str(tmp_path / "o")
    assert _run(["count", zeta_file, "-o", out, "--config", str(cfg)]) == 0
    doc = _load(out, "count")
    assert doc["T"] == 40.0


def test_log_env_does_not_change_output(zeta_file, tmp_path, monkeypatch):
    outs = []
    for name, lvl in (("q", None), ("v", "DEBUG")):
        if lvl is None:
            monkeypatch.delenv("LFD_LOG", raising=False)
        else:
            monkeypatch.setenv("LFD_LOG", lvl)
        out = str(tmp_path / name)
        assert _run(["analyze", zeta_file, "-o", out]) == 0
        with open(f"{out}/analyze.json", "rb") as fh:
            outs.append(fh.read())
    assert outs[0] == outs[1]


def test_audit_mismatch_exit_code(zeta_prime_file, tmp_path):
    # at n = 3 the zeta' zero has not yet migrated into the disk
    out = str(tmp_path / "o")
    assert _run(
        ["audit", zeta_prime_file, "-o", out, "--n-start", "3",
         "--n-count", "2"]
    ) == 1
