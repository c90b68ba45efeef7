"""lfpoly benchmark: run one workload, check every output, print metrics.

    python3 lfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of an lfpoly checkout (it runs the sources under src/).
Every operation is one `lfpoly` CLI invocation in a fresh child process at
--parallelism 1, one child at a time.  Operations repeat until they have
taken --seconds of wall time.  The last line of standard output is a JSON
object with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1.  See
README.md for the workloads, the metrics and the checks.
"""

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

import checks
from tracer import layer_metrics

HERE = os.path.dirname(os.path.abspath(__file__))
SCRATCH = ".lfbench"          # per-run directories, under the checkout root
SETUP_PROBES = 5
RUN_LIMIT_S = 170.0           # a run must end within 180 s
SETUP_CODE = (
    "import sys\n"
    "from lfpoly import expr, exprfile\n"
    "expr.degree_profile(exprfile.load(sys.argv[1]))\n"
)


def _expression(factors):
    lfuncs = [{"id": "zeta", "kind": "zeta"}]
    if any(f[0] == "chi4" for f in factors):
        lfuncs.append({"id": "chi4", "kind": "dirichlet", "modulus": 4,
                       "characterIndex": 1})
    return {"lfunctions": lfuncs,
            "monomials": [{"coeff": [1.0, 0.0], "factors": [
                {"lfunc": f, "deriv": l, "exp": 1} for f, l in factors]}]}


class CountZetaHigh:
    """`count` on zeta to T = 2000: Euler-Maclaurin kernel at N = 1.2 t
    over large batches; no derivative tables, no reflection."""

    expression = _expression([("zeta", 0)])
    output = "count.json"
    exit_codes = (0,)
    T = 2000.0

    def op(self, rng):
        # the band-edge jitter follows lfpoly's --seed; the count must not
        return (["count", "--T", repr(self.T), "--seed", str(rng.randrange(10**6))],
                {})

    def check(self, doc, params):
        checks.check_count_zeta(doc, self.T)


class ZerosDzeta:
    """`zeros` on zeta' for 14 < gamma < 80: E1 scan, Cauchy rings at
    lmax 1-2, band windings reaching sigma = -10, Newton polishing."""

    expression = _expression([("zeta", 1)])
    output = "zeros.json"
    exit_codes = (0,)
    T2 = 80.0

    def __init__(self):
        self.roots = checks.DzetaRoots()

    def op(self, rng):
        # T1 moves every band edge; no zero of zeta' lies below 23.29
        T1 = round(13.5 + rng.random(), 6)
        return (["zeros", "--T1", repr(T1), "--T2", repr(self.T2),
                 "--seed", str(rng.randrange(10**6))], {"T1": T1})

    def check(self, doc, params):
        checks.check_zeros_dzeta(doc, params["T1"], self.T2, self.roots)


class AuditFarLeft:
    """`audit` on zeta'(s) L(s, chi_4) at epsilon 0.25 with the default
    start scan: scaled u e^g path down to sigma = -282, Dirichlet
    characters, admissible_start.  The inputs do not depend on the seed."""

    expression = _expression([("zeta", 1), ("chi4", 0)])
    output = "audit.json"
    exit_codes = (0, 1)       # 1: the audit itself reports a mismatch
    EPS = 0.25

    def __init__(self):
        self.oracle = checks.AuditOracle()

    def op(self, rng):
        return ["audit", "--epsilon", repr(self.EPS)], {}

    def check(self, doc, params):
        checks.check_audit_dzeta_chi4(doc, self.EPS, self.oracle)


WORKLOADS = {
    "count-zeta-high": CountZetaHigh,
    "zeros-dzeta": ZerosDzeta,
    "audit-far-left": AuditFarLeft,
}


class Runner:
    """Spawns children one at a time under a private directory."""

    def __init__(self, root, workdir, deadline):
        self.root = root
        self.workdir = workdir
        self.deadline = deadline
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env.get("PYTHONPATH", "")
        self.env.pop("LFD_LOG", None)
        self.env["PYTHONHASHSEED"] = "0"   # same set and dict order in every child
        self.n = 0

    def spawn(self, argv, log_path):
        """(exit code, wall seconds, peak RSS MiB) of one child."""
        with open(log_path, "wb") as log:
            t0 = time.perf_counter()
            p = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT,
                                 cwd=self.root, env=self.env)
            timer = threading.Timer(max(1.0, self.deadline - time.monotonic()), p.kill)
            timer.start()
            try:
                _, status, ru = os.wait4(p.pid, 0)
            except BaseException:
                p.kill()
                p.wait()
                raise
            finally:
                timer.cancel()
                timer.join()
            wall = time.perf_counter() - t0
        p.returncode = os.waitstatus_to_exitcode(status)
        return p.returncode, wall, ru.ru_maxrss / 1024.0

    def new_dir(self):
        self.n += 1
        d = os.path.join(self.workdir, f"op{self.n}")
        os.mkdir(d)
        return d

    def setup_probe(self, expr_path):
        d = self.new_dir()
        rc, wall, _ = self.spawn([sys.executable, "-c", SETUP_CODE, expr_path],
                                 os.path.join(d, "log.txt"))
        if rc != 0:
            sys.stderr.write(_tail(os.path.join(d, "log.txt")))
            raise SystemExit(f"set-up probe failed with exit code {rc}")
        return wall

    def operation(self, wl, expr_path, cli_args, params, traced):
        """One CLI operation; returns a dict describing its outcome."""
        d = self.new_dir()
        args = [cli_args[0], expr_path, "-o", d, "--parallelism", "1"] + cli_args[1:]
        if traced:
            stats = os.path.join(d, "stats.json")
            argv = [sys.executable, os.path.join(HERE, "traced_cli.py"), stats] + args
        else:
            argv = [sys.executable, "-m", "lfpoly.cli"] + args
        log = os.path.join(d, "log.txt")
        rc, wall, rss = self.spawn(argv, log)
        # a failure is "known" when it says nothing against the outputs
        # that were produced: a crash, or the documented program fault
        out = {"wall": wall, "rss": rss, "failure": None, "known": True}
        try:
            if rc not in wl.exit_codes:
                raise checks.CheckFailed(f"exit code {rc}: {_tail(log)}", known=True)
            with open(os.path.join(d, wl.output), encoding="utf-8") as fh:
                out["doc"] = json.load(fh)
            wl.check(out["doc"], params)
        except checks.CheckFailed as e:
            out["failure"], out["known"] = str(e), e.known
        except (OSError, ValueError, KeyError, TypeError) as e:
            out["failure"], out["known"] = f"unreadable output: {e!r}", False
        if traced:
            with open(stats, encoding="utf-8") as fh:
                out["stats"] = json.load(fh)
        return out


def _tail(path, n=600):
    with open(path, "rb") as fh:
        return fh.read()[-n:].decode("utf-8", "replace")


def run(workload, seed, seconds, trace, root):
    wl = WORKLOADS[workload]()
    rng = random.Random(f"{workload}:{seed}")
    os.makedirs(os.path.join(root, SCRATCH), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=os.path.join(root, SCRATCH))
    runner = Runner(root, workdir, time.monotonic() + RUN_LIMIT_S)
    try:
        expr_path = os.path.join(workdir, "expression.json")
        with open(expr_path, "w", encoding="utf-8") as fh:
            json.dump(wl.expression, fh)
        runner.setup_probe(expr_path)       # warm-up, not timed
        setup = [] if trace else [runner.setup_probe(expr_path)
                                  for _ in range(SETUP_PROBES)]
        ops, pairs = [], []
        measured = 0.0
        while True:
            cli_args, params = wl.op(rng)
            if trace:
                plain = runner.operation(wl, expr_path, cli_args, params, False)
                traced = runner.operation(wl, expr_path, cli_args, params, True)
                pairs.append((plain, traced))
                done = [plain, traced]
            else:
                done = [runner.operation(wl, expr_path, cli_args, params, False)]
            ops += done
            measured += sum(o["wall"] for o in done)
            if measured >= seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for i, o in enumerate(ops):
        if o["failure"]:
            tag = "failed (known fault)" if o["known"] else "INCORRECT"
            print(f"operation {i} {tag}: {o['failure']}")
    if trace:
        metrics = layer_metrics([t["stats"] for _, t in pairs])
        metrics["trace.overhead_s"] = statistics.median(
            t["wall"] - p["wall"] for p, t in pairs)
        units = {m["name"]: m["unit"] for m in _benchmark_spec()["per_layer"]}
    else:
        metrics = {
            "wall_s": statistics.median(o["wall"] for o in ops),
            "peak_rss_mib": statistics.median(o["rss"] for o in ops),
            "setup_s": statistics.median(setup),
        }
        units = {m["name"]: m["unit"] for m in _benchmark_spec()["end_to_end"]}
    return {
        "correct": not any(o["failure"] and not o["known"] for o in ops),
        "attempted": len(ops),
        "failed": sum(1 for o in ops if o["failure"]),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }


def _benchmark_spec():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "lfpoly", "cli.py")):
        raise SystemExit("no lfpoly sources at src/lfpoly: run from the root "
                         "of an lfpoly checkout")
    result = run(args.workload, args.seed, args.seconds, args.trace, root)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
