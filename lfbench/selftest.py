"""Self-test of the benchmark's output checks.

    python3 lfbench/selftest.py

Run from the root of an lfpoly checkout.  Runs one operation of each
workload, shows that the checks judge its real output as expected, then
feeds the checks corrupted copies of that output and shows that every
copy is rejected.  Exits 1 if a corruption passes or a real output is
misjudged.  Takes about two minutes.
"""

import copy
import json
import os
import random
import shutil
import sys
import tempfile
import time

import checks
import run


def _count_corruptions(doc):
    for name, edit in [
        ("empirical + 1", lambda d: d.update(empirical=d["empirical"] + 1)),
        ("empirical - 1", lambda d: d.update(empirical=d["empirical"] - 1)),
        ("one band count + 1", lambda d: d["bands"][7].update(count=d["bands"][7]["count"] + 1)),
        ("predicted * (1 + 1e-6)", lambda d: d.update(predicted=d["predicted"] * (1 + 1e-6))),
        ("strip right edge 0.9", lambda d: d["strip"].update(E2=0.9)),
    ]:
        bad = copy.deepcopy(doc)
        edit(bad)
        yield name, bad


def _zeros_corruptions(doc):
    zs = doc["zeros"]
    k = len(zs) // 2

    def moved(field):
        def edit(d):
            d["zeros"][k][field] += 1e-6
        return edit

    for name, edit in [
        ("zero moved by 1e-6 in gamma", moved("gamma")),
        ("zero moved by 1e-6 in beta", moved("beta")),
        ("first zero dropped", lambda d: d["zeros"].pop(0)),
        ("middle zero dropped", lambda d: d["zeros"].pop(k)),
        ("zero duplicated", lambda d: d["zeros"].insert(k, dict(zs[k]))),
        ("two zeros swapped", lambda d: d["zeros"].__setitem__(
            slice(k, k + 2), [dict(zs[k + 1]), dict(zs[k])])),
        ("multiplicity 2", lambda d: d["zeros"][k].update(multiplicity=2)),
    ]:
        bad = copy.deepcopy(doc)
        edit(bad)
        yield name, bad


def _audit_corruptions(doc):
    def count(i, dc):
        # the flags follow the changed count, so only the mpmath truth
        # can tell the copy from a real output
        def edit(d):
            disk = d["disks"][i]
            disk["count"] += dc
            disk["matches"] = disk["count"] == disk["expected"]
            d["allMatch"] = all(x["matches"] for x in d["disks"])
        return edit

    last = len(doc["disks"]) - 1
    for name, edit in [
        ("first disk count + 1", count(0, 1)),
        ("first disk count - 1", count(0, -1)),
        ("last disk count - 1", count(last, -1)),
        ("nStart + 1", lambda d: d.update(nStart=d["nStart"] + 1)),
        ("a disk centre moved", lambda d: d["disks"][0]["centers"][0].__setitem__(0, -1.0)),
    ]:
        bad = copy.deepcopy(doc)
        edit(bad)
        yield name, bad


def main():
    root = os.getcwd()
    os.makedirs(os.path.join(root, run.SCRATCH), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="selftest-", dir=os.path.join(root, run.SCRATCH))
    runner = run.Runner(root, workdir, time.monotonic() + 600)
    problems = []

    def real(wl, cli_args, params, expect):
        expr_path = os.path.join(workdir, f"{type(wl).__name__}.json")
        with open(expr_path, "w", encoding="utf-8") as fh:
            json.dump(wl.expression, fh)
        out = runner.operation(wl, expr_path, cli_args, params, False)
        verdict = out["failure"] or "accepted"
        print(f"{type(wl).__name__} {' '.join(cli_args)}: {verdict}")
        if not expect(out):
            problems.append(f"real output misjudged: {verdict}")
        return out.get("doc")

    def rejects(wl, params, corruptions):
        for name, bad in corruptions:
            try:
                wl.check(bad, params)
            except checks.CheckFailed as e:
                ok = not e.known
                print(f"  {name}: rejected ({e})")
            else:
                ok = False
                print(f"  {name}: ACCEPTED")
            if not ok:
                problems.append(f"{type(wl).__name__}: corruption '{name}' not rejected")

    try:
        rng = random.Random("selftest")
        passes = lambda out: out["failure"] is None
        for cls, corrupt in [(run.CountZetaHigh, _count_corruptions),
                             (run.ZerosDzeta, _zeros_corruptions)]:
            wl = cls()
            cli_args, params = wl.op(rng)
            doc = real(wl, cli_args, params, passes)
            if doc is not None:
                rejects(wl, params, corrupt(doc))

        wl = run.AuditFarLeft()
        cli_args, params = wl.op(rng)
        fault = lambda out: (out["known"] and out["failure"] is not None
                             and all(f"n={n} counts 2, truth 1" in out["failure"]
                                     for n in checks.KNOWN_FAULT_DISKS))
        real(wl, cli_args, params, lambda out: passes(out) or fault(out))
        # past the fault the same audit is right: corrupt that output
        doc = real(wl, cli_args + ["--n-start", "140"], params, passes)
        if doc is not None:
            rejects(wl, params, _audit_corruptions(doc))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for p in problems:
        print("PROBLEM:", p)
    print("self-test", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
