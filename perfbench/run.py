"""storagelab benchmark: in-process CLI workloads, end-to-end and per layer.

Run from the root of a source checkout (the package is imported from
``src/``, nothing needs installing):

    python3 perfbench/run.py --workload analytic --seed 1 --seconds 20 --trace 0

One workload runs per process, so ``peak_rss_mb`` is that workload's own
high-water mark.  The run measures set-up in fresh interpreters, makes one
warm-up pass over the workload's ops, then enough passes to fill
``--seconds`` (at least one) and reports medians.  Times are given at a
reference machine speed: a fixed pure-Python probe runs between ops, and
each op's time is scaled by the probe's reference time over the probe
times around it, which takes out the drift of the machine's own speed
(plain seconds are printed and kept in the run record too).
``--trace 1`` instead makes one untraced and one traced pass and reports
the per-layer metrics, whose times are plain seconds.
Every op's answer is checked against ``reference.json``; the last line of
standard output is the JSON result.  Working files go to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import tracing
from workloads import COMMANDS, WORKLOADS, op_name

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
REFERENCE = Path(__file__).resolve().parent / "reference.json"
SETUP_REPEATS = 5
# A runaway allocation should fail the op with MemoryError rather than get
# the process killed; the largest op peaks near 1.6 GB resident.
ADDRESS_SPACE_BYTES = 4 << 30
# Probe time that defines the reference speed the timings are reported at.
PROBE_REF_S = 0.002
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# Child for set-up timing: import the package and resolve the workload's
# scenarios, with the overrides applied as the CLI's --set does.
_SETUP_CHILD = """
import json, sys, time
t0 = time.perf_counter()
import storagelab, storagelab.cli
t1 = time.perf_counter()
for name, overrides in json.loads(sys.argv[1]):
    scen = storagelab.load_preset(name)
    raw = json.loads(json.dumps(scen.raw))
    for item in overrides:
        key, val = item.split("=", 1)
        *parents, leaf = key.split(".")
        node = raw
        for part in parents:
            node = node.setdefault(part, {})
        try:
            node[leaf] = json.loads(val)
        except json.JSONDecodeError:
            node[leaf] = val
    storagelab.Scenario.from_dict(raw)
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "resolve_s": t2 - t1}))
"""


def probe() -> float:
    """Median seconds of a fixed pure-Python loop: how fast the machine
    executes right now.  It allocates nothing, so the memory the ops leave
    behind does not change it."""
    samples = []
    for _ in range(5):
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(20000):
            acc += (i % 7) * 0.5
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def seed_args(seed: int | None) -> list[str]:
    return [] if seed is None else ["--set", f"seed={seed}"]


def measure_setup(ops, seed) -> dict[str, float]:
    """Median import and scenario-resolution time over fresh interpreters,
    at the reference speed (``plain_setup_s``: in plain seconds)."""
    specs = []
    for op in ops:
        argv = op + seed_args(seed)
        overrides = [argv[i + 1] for i, a in enumerate(argv) if a == "--set"]
        specs.append((op[1].split(":", 1)[1], overrides))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    before = probe()
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", _SETUP_CHILD,
                               json.dumps(specs)], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120,
                              check=True)
        after = probe()
        sample = json.loads(proc.stdout.splitlines()[-1])
        sample["speed"] = PROBE_REF_S / ((before + after) / 2)
        before = after
        samples.append(sample)
    med = statistics.median
    return {
        "import_s": med(s["import_s"] * s["speed"] for s in samples),
        "resolve_s": med(s["resolve_s"] * s["speed"] for s in samples),
        "setup_s": med((s["import_s"] + s["resolve_s"]) * s["speed"]
                       for s in samples),
        "plain_setup_s": med(s["import_s"] + s["resolve_s"] for s in samples),
    }


def run_op(cli, op, seed, out: Path) -> dict:
    """One CLI call in-process, timed; output files land in ``out``."""
    shutil.rmtree(out, ignore_errors=True)
    argv = op + seed_args(seed) + ["--out", str(out)]
    stdout, stderr = io.StringIO(), io.StringIO()
    error = None
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = cli.main(argv)
    except Exception as exc:  # a crash is a failed op, not a dead benchmark
        rc, error = None, f"{type(exc).__name__}: {exc}"
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    return {"op": op_name(op), "rc": rc, "error": error, "wall_s": wall,
            "cpu_s": cpu, "stderr": stderr.getvalue()}


def check_op(result: dict, out: Path, reference: dict) -> list[str]:
    if result["error"]:
        return [result["error"]]
    command = result["op"].split()[0]
    try:
        got = checks.summarize(command, out, result["rc"], result["stderr"])
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
    return checks.compare(got, reference[result["op"]])


def run_pass(cli, workload, seed, reference) -> list[dict]:
    """One pass over the workload's ops, each timed and then checked.  The
    machine is probed between ops; an op's ``speed`` is the reference probe
    time over the mean of the probes on either side of it."""
    out = WORK / "tmp" / workload
    results = []
    before = probe()
    for op in WORKLOADS[workload]:
        result = run_op(cli, op, seed, out)
        after = probe()
        result["speed"] = PROBE_REF_S / ((before + after) / 2)
        before = after
        result["problems"] = check_op(result, out, reference)
        del result["stderr"]
        results.append(result)
    shutil.rmtree(out, ignore_errors=True)
    return results


def pass_wall(results) -> float:
    return sum(r["wall_s"] for r in results)


def pass_metrics(passes, scaled: bool = True) -> dict[str, float]:
    """Medians over passes of the pass's wall and CPU time and of its
    slowest op's wall time, each op's time at the reference speed (or in
    plain seconds with ``scaled=False``)."""
    med = statistics.median

    def k(r):
        return r["speed"] if scaled else 1.0

    return {
        "wall_s": med(sum(r["wall_s"] * k(r) for r in p) for p in passes),
        "cpu_s": med(sum(r["cpu_s"] * k(r) for r in p) for p in passes),
        "slowest_op_s": med(max(r["wall_s"] * k(r) for r in p) for p in passes),
    }


def environment() -> dict:
    """What a result depends on besides the code: machine and versions."""
    import numpy
    import scipy
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "commit": _commit(),
            "threads": {v: os.environ[v] for v in THREAD_VARS},
            "address_space_limit": resource.getrlimit(resource.RLIMIT_AS)[0]}


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        path = ROOT / ".git" / ref[5:]
        return path.read_text().strip() if path.is_file() else ref[5:]
    return ref


def limit_resources() -> None:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("STORAGELAB_OUT", None)  # it would override --out
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    limit = ADDRESS_SPACE_BYTES if hard == resource.RLIM_INFINITY \
        else min(ADDRESS_SPACE_BYTES, hard)
    resource.setrlimit(resource.RLIMIT_AS, (limit, hard))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="scenario seed for every op (default: preset seeds)")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "storagelab" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no storagelab package under {SRC}; "
                         "run from the root of a source checkout\n")
        return 2

    limit_resources()  # before numpy is imported
    sys.path.insert(0, str(SRC))
    ops = WORKLOADS[args.workload]
    setup = measure_setup(ops, args.seed)
    from storagelab import cli
    reference = json.loads(REFERENCE.read_text())["ops"]
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, **environment()}

    warm = run_pass(cli, args.workload, args.seed, reference)
    runs = [warm]
    if args.trace:
        base = run_pass(cli, args.workload, args.seed, reference)
        rec = tracing.Recorder()
        tracing.install(rec, COMMANDS)
        try:
            traced = run_pass(cli, args.workload, args.seed, reference)
        finally:
            rec.restore()
        tracing.warn_missing(rec)
        runs += [base, traced]
        metrics = {"setup.import_s": (setup["import_s"], "s"),
                   "setup.resolve_s": (setup["resolve_s"], "s")}
        for name, value in tracing.layer_metrics(rec.spans, COMMANDS).items():
            metrics[name] = (value, _unit(name))
        metrics["trace.overhead_frac"] = (
            pass_metrics([traced])["wall_s"] / pass_metrics([base])["wall_s"]
            - 1.0, "ratio")
        rec.write(WORK / f"trace-{args.workload}.json")
        record["passes"] = {"warm_up": 1, "untraced": 1, "traced": 1}
    else:
        n = max(1, round(args.seconds / pass_wall(warm)))
        measured = [run_pass(cli, args.workload, args.seed, reference)
                    for _ in range(n)]
        runs += measured
        metrics = {"setup_s": (setup["setup_s"], "s")}
        for name, value in pass_metrics(measured).items():
            metrics[name] = (value, "s")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                                  .ru_maxrss / 1024.0, "MB")
        record["plain_seconds"] = dict(pass_metrics(measured, scaled=False),
                                       setup_s=setup["plain_setup_s"])
        record["passes"] = {"warm_up": 1, "measured": n}

    attempted = sum(len(p) for p in runs)
    failed = sum(1 for p in runs for r in p if r["problems"])
    record.update(metrics={k: v for k, (v, _) in metrics.items()},
                  attempted=attempted, failed=failed, ops=runs)
    WORK.mkdir(exist_ok=True)
    (WORK / f"run-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))

    _print_table(record, metrics)
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def _unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("useful_ratio", "overhead_frac")):
        return "ratio"
    if name.endswith(".bytes"):
        return "bytes"
    return "count"


def _print_table(record, metrics) -> None:
    print(f"perfbench {record['workload']} seed={record['seed']} "
          f"passes={record['passes']} nproc={record['nproc']} "
          f"python={record['python']} numpy={record['numpy']} "
          f"scipy={record['scipy']} commit={record['commit'][:12]}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {unit}")
    for name, value in record.get("plain_seconds", {}).items():
        print(f"  {name + ' in plain seconds':<44} {value:>14.6g} s")
    frac = record["failed"] / record["attempted"]
    print(f"  {'fail_frac':<44} {frac:>14.6g} ({record['failed']} of "
          f"{record['attempted']} ops)")
    for p in record["ops"]:
        for r in p:
            for problem in r["problems"]:
                print(f"  FAILED {r['op']}: {problem}")


if __name__ == "__main__":
    sys.exit(main())
