import json

import jsonschema
import pytest

from lfpoly import characters as chars
from lfpoly import exprfile
from lfpoly import expr as E
from lfpoly.descriptors import contragredient
from lfpoly.errors import ExpressionFileError

from conftest import build, zpoly, ZETA

SAMPLE = """
{
  "lfunctions": [
    {"id": "zeta", "kind": "zeta"},
    {"id": "chi3", "kind": "dirichlet", "modulus": 3, "characterIndex": 1}
  ],
  "monomials": [
    {"coeff": [2.5, 0.0],
     "factors": [{"lfunc": "zeta", "deriv": 2, "exp": 1}]},
    {"coeff": [0.0, -1.0],
     "factors": [{"lfunc": "chi3", "deriv": 0, "exp": 2},
                 {"lfunc": "zeta", "deriv": 1, "exp": 1}]}
  ]
}
"""


def test_loads_sample():
    F = exprfile.loads(SAMPLE)
    assert set(F.lfuncs) == {"zeta", "chi3"}
    assert len(F.monomials) == 2
    assert F.lfuncs["chi3"].conductor == 3


def test_dumps_is_idempotent():
    F = exprfile.loads(SAMPLE)
    text = exprfile.dumps(F)
    assert exprfile.dumps(exprfile.loads(text)) == text
    assert text.endswith("\n")


def test_round_trip_preserves_coefficients():
    F = exprfile.loads(SAMPLE)
    G = exprfile.loads(exprfile.dumps(F))
    ca = E.dirichlet_coefficients(F, 50).eta
    cb = E.dirichlet_coefficients(G, 50).eta
    assert (ca == cb).all()


def test_dump_load_files(tmp_path):
    F = zpoly((1.0, [(1, 1)]), (3.0, [(2, 1)]))
    p = tmp_path / "expr.json"
    exprfile.dump(F, p)
    G = exprfile.load(p)
    assert exprfile.dumps(F) == exprfile.dumps(G)


def test_dumps_validates_against_schema():
    import lfpoly.schemas
    import importlib.resources as res

    schema = json.loads(
        res.files(lfpoly.schemas).joinpath("expression.schema.json").read_text()
    )
    doc = json.loads(exprfile.dumps(exprfile.loads(SAMPLE)))
    jsonschema.validate(doc, schema)


def test_bad_json_reports_position():
    with pytest.raises(ExpressionFileError) as ei:
        exprfile.loads('{"lfunctions": [,]}')
    assert ei.value.line == 1
    assert ei.value.column > 1


def test_unknown_lfunc_reference():
    bad = SAMPLE.replace('"lfunc": "chi3"', '"lfunc": "nope"')
    with pytest.raises(ExpressionFileError, match="nope"):
        exprfile.loads(bad)


def test_bad_kind():
    bad = SAMPLE.replace('"kind": "zeta"', '"kind": "elliptic"')
    with pytest.raises(ExpressionFileError, match="elliptic"):
        exprfile.loads(bad)


def test_empty_monomials_rejected():
    with pytest.raises(ExpressionFileError):
        exprfile.loads('{"lfunctions": [], "monomials": []}')


def test_character_index_out_of_range():
    bad = SAMPLE.replace('"characterIndex": 1', '"characterIndex": 9')
    with pytest.raises(ExpressionFileError, match="out of range"):
        exprfile.loads(bad)


def _dirichlet_stub(q, index):
    return json.dumps({
        "lfunctions": [{"id": "chi", "kind": "dirichlet", "modulus": q,
                        "characterIndex": index}],
        "monomials": [{"coeff": [1.0, 0.0],
                       "factors": [{"lfunc": "chi", "deriv": 0, "exp": 1}]}],
    })


def test_stub_builds_one_character_not_the_table(monkeypatch):
    def no_table(q):
        raise AssertionError(f"character_table({q}) built")

    monkeypatch.setattr(chars, "character_table", no_table)
    chi = exprfile.loads(_dirichlet_stub(9973, 1)).lfuncs["chi"].character
    assert chi.conductor == 9973 and chi.is_primitive and chi.order == 9972
    bar = chi.conjugate()
    assert bar.index == 9971 and bar.conjugate() == chi
    for a in (2, 3, 1000, 9972):
        assert abs(bar(a) - chi(a).conjugate()) < 1e-12


def test_schema_caps_modulus():
    import lfpoly.schemas
    import importlib.resources as res

    schema = json.loads(
        res.files(lfpoly.schemas).joinpath("expression.schema.json").read_text()
    )
    jsonschema.validate(json.loads(_dirichlet_stub(10000, 1)), schema)
    with pytest.raises(jsonschema.ValidationError, match="10000"):
        jsonschema.validate(json.loads(_dirichlet_stub(10001, 1)), schema)
    with pytest.raises(ValueError, match="10\\^4"):
        exprfile.loads(_dirichlet_stub(10001, 1))


def test_negative_deriv_rejected():
    bad = SAMPLE.replace('"deriv": 2', '"deriv": -1')
    with pytest.raises(ExpressionFileError):
        exprfile.loads(bad)


def test_zero_exp_rejected():
    bad = SAMPLE.replace('"exp": 2', '"exp": 0')
    with pytest.raises(ExpressionFileError):
        exprfile.loads(bad)


@pytest.mark.parametrize("key", ["deriv", "exp", "modulus", "characterIndex", "coeff"])
def test_json_booleans_are_not_numbers(key, tmp_path, capsys):
    # a JSON true is a Python int (bool subclasses int), but no number to
    # the schema; it used to load as 1, and "deriv": true was written back
    import lfpoly.schemas
    import importlib.resources as res
    from lfpoly import cli

    doc = json.loads(SAMPLE)
    if key in ("modulus", "characterIndex"):
        doc["lfunctions"][1][key] = True
    elif key == "coeff":
        doc["monomials"][0]["coeff"][0] = True
    else:
        doc["monomials"][0]["factors"][0][key] = True
    schema = lambda name: json.loads(
        res.files(lfpoly.schemas).joinpath(f"{name}.schema.json").read_text())
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(doc, schema("expression"))
    with pytest.raises(ExpressionFileError, match=f"{key}: expected"):
        exprfile.loads(json.dumps(doc))
    p = tmp_path / "bool.json"
    p.write_text(json.dumps(doc))
    assert cli.main(["analyze", str(p), "-o", str(tmp_path)]) == 2
    err = json.loads(capsys.readouterr().out)
    jsonschema.validate(err, schema("error"))
    assert err["error"]["type"] == "ExpressionFileError"
    assert not (tmp_path / "analyze.json").exists()


def test_missing_key():
    with pytest.raises(ExpressionFileError, match="monomials"):
        exprfile.loads('{"lfunctions": []}')


def test_duplicate_lfunction_id():
    bad = SAMPLE.replace(
        '{"id": "chi3", "kind": "dirichlet", "modulus": 3, "characterIndex": 1}',
        '{"id": "zeta", "kind": "dirichlet", "modulus": 3, "characterIndex": 1}',
    ).replace('"lfunc": "chi3"', '"lfunc": "zeta"')
    with pytest.raises(ExpressionFileError):
        exprfile.loads(bad)


def test_modulus_one_stub_keeps_its_id():
    # the only character mod 1 gives zeta, under the stub's own id
    text = json.dumps({
        "lfunctions": [{"id": "L1", "kind": "dirichlet", "modulus": 1, "characterIndex": 0}],
        "monomials": [{"coeff": [1.0, 0.0],
                       "factors": [{"lfunc": "L1", "deriv": 1, "exp": 1}]}],
    })
    F = exprfile.loads(text)
    d = F.lfuncs["L1"]
    assert d.id == "L1" and d.kind == "zeta"
    assert E.pole_order(F) == 2
    assert contragredient(d) is d
