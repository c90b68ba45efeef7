"""Reading and writing expression files.

The on-disk format is JSON with two top-level keys: ``lfunctions``, a list
of descriptor stubs ({id, kind, modulus, characterIndex}), and
``monomials``, a list of {coeff: [re, im], factors: [{lfunc, deriv, exp}]}.
Serialization is canonical (fixed key order, shortest round-tripping float
repr), so dump(load(dump(F))) == dump(F) byte for byte and coefficients
survive exactly.
"""

from __future__ import annotations

import json

from . import characters as chars
from .descriptors import dirichlet_descriptor
from .errors import ExpressionFileError
from .expr import Monomial, PolyExpression


def _expect(obj, key, types, where):
    if not isinstance(obj, dict):
        raise ExpressionFileError(f"{where}: expected an object, got {type(obj).__name__}")
    if key not in obj:
        raise ExpressionFileError(f"{where}: missing required key {key!r}")
    v = obj[key]
    # a JSON boolean is a Python int, but never a number here
    if isinstance(v, bool) or not isinstance(v, types):
        tn = types.__name__ if isinstance(types, type) else "/".join(t.__name__ for t in types)
        raise ExpressionFileError(
            f"{where}.{key}: expected {tn}, got {type(v).__name__}"
        )
    return v


def _build_descriptor(stub, where):
    did = _expect(stub, "id", str, where)
    kind = _expect(stub, "kind", str, where)
    if kind == "zeta":
        q, idx = 1, 0
    elif kind == "dirichlet":
        q = _expect(stub, "modulus", int, where)
        idx = _expect(stub, "characterIndex", int, where)
        if q < 1:
            raise ExpressionFileError(f"{where}.modulus: must be >= 1, got {q}")
    else:
        raise ExpressionFileError(
            f"{where}.kind: expected 'zeta' or 'dirichlet', got {kind!r}"
        )
    try:
        chi = chars.character(q, idx)
    except IndexError as e:
        raise ExpressionFileError(f"{where}.characterIndex: {e}") from None
    return dirichlet_descriptor(chi, id=did)


def loads(text: str) -> PolyExpression:
    """Parse expression-file text into a canonical PolyExpression."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ExpressionFileError(
            f"invalid JSON at line {e.lineno}, column {e.colno}: {e.msg}",
            line=e.lineno,
            column=e.colno,
        ) from None
    if not isinstance(doc, dict):
        raise ExpressionFileError("top level must be an object")
    lst = _expect(doc, "lfunctions", list, "$")
    lfuncs = {}
    for i, stub in enumerate(lst):
        d = _build_descriptor(stub, f"$.lfunctions[{i}]")
        if d.id in lfuncs and lfuncs[d.id] != d:
            raise ExpressionFileError(
                f"$.lfunctions[{i}]: id {d.id!r} defined twice with different data"
            )
        lfuncs[d.id] = d
    monos = _expect(doc, "monomials", list, "$")
    if not monos:
        raise ExpressionFileError("$.monomials: must contain at least one monomial")
    out = []
    for i, m in enumerate(monos):
        where = f"$.monomials[{i}]"
        cf = _expect(m, "coeff", list, where)
        if len(cf) != 2 or not all(type(x) in (int, float) for x in cf):
            raise ExpressionFileError(f"{where}.coeff: expected [re, im]")
        coeff = complex(float(cf[0]), float(cf[1]))
        factors = []
        for j, f in enumerate(_expect(m, "factors", list, where)):
            fw = f"{where}.factors[{j}]"
            fid = _expect(f, "lfunc", str, fw)
            if fid not in lfuncs:
                raise ExpressionFileError(f"{fw}.lfunc: unknown id {fid!r}")
            l = _expect(f, "deriv", int, fw)
            d = _expect(f, "exp", int, fw)
            if l < 0:
                raise ExpressionFileError(f"{fw}.deriv: must be >= 0, got {l}")
            if d < 1:
                raise ExpressionFileError(f"{fw}.exp: must be >= 1, got {d}")
            factors.append((fid, l, d))
        out.append(Monomial.make(coeff, factors))
    return PolyExpression(out, lfuncs)


def load(path) -> PolyExpression:
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())


def _stub(desc):
    chi = desc.character
    return {"id": desc.id, "kind": desc.kind, "modulus": chi.modulus,
            "characterIndex": chi.index}


def dumps(F: PolyExpression) -> str:
    """Canonical expression-file text for F (referenced descriptors only)."""
    used = F.referenced_ids()
    doc = {
        "lfunctions": [_stub(F.lfuncs[fid]) for fid in sorted(used)],
        "monomials": [
            {
                "coeff": [m.coeff.real, m.coeff.imag],
                "factors": [
                    {"lfunc": fid, "deriv": l, "exp": d} for fid, l, d in m.factors
                ],
            }
            for m in F.monomials
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def dump(F: PolyExpression, path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(dumps(F))
