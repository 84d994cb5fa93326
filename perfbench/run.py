"""twistpoly benchmark: one closed-loop workload per run, one caller.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a twistpoly checkout; the program is imported from
its ``src`` directory.  Inputs are made from the seed, every answer is
checked against perfbench/oracle.py, and the last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  With
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones (see README.md).  The full result, and with tracing the
spans, are also written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from random import Random
from statistics import median
from typing import NamedTuple

import spans
import workloads

WORKLOADS = ("poly-n16", "genus-e16", "check-n10", "verify-sweep")
# Fresh worker starts per run, before and after the timed phase, so that
# their median spans the run; setup_s is that median.
SETUP_BEFORE, SETUP_AFTER = 7, 8
DEADLINE_S = 170  # a run is cut (and fails) after this long


class Exec(NamedTuple):
    """One execution of one operation."""

    latency: float
    traced: bool
    instances: int
    problem: str | None  # None when the answer passed its checks
    op: int


class BenchError(Exception):
    """The run could not be completed; reported on stderr, exit 2."""


def _remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("run exceeded its deadline")
    return left


def start_worker(root: str, env: dict, deadline: float):
    """A fresh worker, waited on until it has imported twistpoly."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join("perfbench", "worker.py")],
        cwd=root, env=env, text=True,
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    timer = threading.Timer(_remaining(deadline), proc.kill)
    timer.start()
    try:
        line = proc.stdout.readline()
    finally:
        timer.cancel()
    setup_s = time.perf_counter() - start
    if not line:
        _, err = proc.communicate()
        raise BenchError(f"worker did not start: {err.strip()[-500:]}")
    ready = json.loads(line)
    expected = os.path.join(root, "src", "twistpoly")
    if os.path.dirname(os.path.realpath(ready["module"])) != os.path.realpath(expected):
        proc.communicate("\n")
        raise BenchError(f"imported twistpoly from {ready['module']}, not {expected}")
    return proc, setup_s, ready


def measure_setup(root: str, env: dict, deadline: float, count: int, keep_last: bool):
    """`count` fresh starts; returns (set-up times, import times, the last
    worker still waiting for a job, or None)."""
    setups, imports, proc = [], [], None
    for k in range(count):
        proc, setup_s, ready = start_worker(root, env, deadline)
        setups.append(setup_s)
        imports.append(ready["import_s"])
        if not (keep_last and k == count - 1):
            proc.communicate("\n", timeout=_remaining(deadline))
            proc = None
    return setups, imports, proc


def run_worker_job(proc, job: dict, deadline: float) -> dict:
    try:
        out, err = proc.communicate(json.dumps(job) + "\n", timeout=_remaining(deadline))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker exceeded the run's deadline") from None
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"worker failed ({proc.returncode}): {err.strip()[-500:]}")
    return json.loads(out.splitlines()[-1])


def run_process(cmd: list[str], root: str, env: dict, deadline: float):
    """(exit code, combined output, peak RSS in kB) of one child process."""
    proc = subprocess.Popen(
        cmd, cwd=root, env=env, text=True,
        stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
    )
    timer = threading.Timer(_remaining(deadline), proc.kill)
    timer.start()
    try:
        text = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, text, usage.ru_maxrss


# --- the workloads ----------------------------------------------------------------


def judge(ops, check, res: dict) -> list[Exec]:
    """The executions in a worker's result, judged.  Each input's first answer is checked; a later answer to the
    same input must be identical to it."""
    firsts = {int(i): r for i, r in res["first"].items()}
    problems = {i: check(ops[i], r, firsts) for i, r in firsts.items()}
    first_digest: dict[int, str] = {}
    execs = []
    for i, latency, traced, digest in res["execs"]:
        first_digest.setdefault(i, digest)
        problem = problems[i]
        if problem is None and digest != first_digest[i]:
            problem = "answer differs from the first run of the same input"
        execs.append(Exec(latency, traced, 1, problem, i))
    return execs


def worker_workload(name, seed, seconds, trace, root, env, deadline, workdir):
    build, check = workloads.WORKER_WORKLOADS[name]
    rng = Random(f"{name}:{seed}")
    ops = build(rng, workdir)
    order = list(range(len(ops)))
    rng.shuffle(order)
    setups, imports, proc = measure_setup(root, env, deadline, SETUP_BEFORE, keep_last=True)
    job = {"ops": [op.spec for op in ops], "order": order, "seconds": seconds, "trace": trace}
    res = run_worker_job(proc, job, deadline)
    after, after_imports, _ = measure_setup(root, env, deadline, SETUP_AFTER, keep_last=False)
    setups += after
    imports += after_imports
    execs = judge(ops, check, res)
    return {
        "execs": execs, "elapsed_s": res["elapsed_s"], "rounds": res["rounds"],
        "peak_rss_kb": res["maxrss_kb"], "setups": setups, "imports": imports,
        "layers": spans.summarize(res["spans"]), "spans": res["spans"], "checked": {},
        "dm_enum_s": 0.0,
        "make_up": [op.kind for op in ops],
    }


def verify_sweep(seed, seconds, trace, root, env, deadline, workdir):
    suites = workloads.verify_suites()
    setups, imports, _ = measure_setup(root, env, deadline, SETUP_BEFORE, keep_last=False)
    execs, peak_kb, summaries, all_spans = [], 0, [], []
    checked: dict[str, int] = {}

    def one_pass(traced: bool) -> None:
        nonlocal peak_kb
        start = time.perf_counter()
        problems, instances = [], 0
        for k, (suite, max_n, expected) in enumerate(suites):
            argv = ["verify", "--suite", suite, "--max-n", str(max_n), "--seed", str(seed)]
            spans_file = os.path.join(workdir, f"spans-{k}.json")
            if traced:
                cmd = [sys.executable, os.path.join("perfbench", "worker.py"), "--cli", spans_file]
            else:
                cmd = [sys.executable, "-m", "twistpoly.cli"]
            code, text, rss_kb = run_process(cmd + argv, root, env, deadline)
            problem = workloads.check_suite_output(code, text, expected)
            if problem:
                problems.append(f"{suite}: {problem}")
            else:
                instances += sum(expected.values())
            if traced and os.path.exists(spans_file):  # absent if the child crashed
                with open(spans_file) as fh:
                    data = json.load(fh)
                os.remove(spans_file)
                summaries.append(spans.summarize(data["spans"]))
                all_spans.append({"suite": suite, **data})
                counts = workloads.theorem_counts(text).values()
                checked[suite] = checked.get(suite, 0) + sum(c for _, c in counts)
            elif not traced:
                peak_kb = max(peak_kb, rss_kb)
        latency = time.perf_counter() - start
        execs.append(Exec(latency, traced, instances, "; ".join(problems) or None, 0))

    start = time.perf_counter()
    rounds = 0
    while True:
        one_pass(False)
        if trace:
            one_pass(True)
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed * (rounds + 1) / rounds > seconds:
            break

    after, after_imports, _ = measure_setup(root, env, deadline, SETUP_AFTER, keep_last=False)
    setups += after
    imports += after_imports
    dm_enum_s = 0.0
    if trace:
        code, text, _ = run_process(
            [sys.executable, "-c",
             "import time; from twistpoly.verify import count_delta_matroids as c; "
             "t = time.perf_counter(); c(4); print(time.perf_counter() - t)"],
            root, env, deadline)
        if code != 0:
            raise BenchError(f"count_delta_matroids(4) failed: {text[-300:]}")
        dm_enum_s = float(text.split()[-1])
    return {
        "execs": execs, "elapsed_s": elapsed, "rounds": rounds, "peak_rss_kb": peak_kb,
        "setups": setups, "imports": imports, "layers": spans.merge(summaries),
        "spans": all_spans, "checked": checked, "dm_enum_s": dm_enum_s,
        "make_up": [f"{s} --max-n {m}" for s, m, _ in suites],
    }


# --- metrics ----------------------------------------------------------------------


def end_to_end(res: dict) -> dict:
    """Latency over every operation; instances only over correct ones."""
    execs = res["execs"]
    instances = sum(e.instances for e in execs if e.problem is None)
    return {
        "setup_s": (median(res["setups"]), "s"),
        "latency_p50_s": (median(e.latency for e in execs), "s"),
        "instances_per_s": (instances / res["elapsed_s"], "1/s"),
        "peak_rss_mb": (res["peak_rss_kb"] / 1024, "MB"),
    }


# Per-layer metric -> (span name, field, unit).  Times and counts are per
# traced operation; "subsets", "pairs" and "bytes" are computed from the
# calls' arguments and results.
PER_OP = {
    "gf2.dc_s": ("gf2.dc", "self_s", "s"),
    "gf2.dc_calls": ("gf2.dc", "calls", "count"),
    "gf2.dc_subsets": ("gf2.dc", "subsets", "count"),
    "gf2.parse_gf2_s": ("gf2.parse_gf2", "self_s", "s"),
    "gf2.normal_binary_s": ("gf2.normal_binary", "self_s", "s"),
    "gf2.graph_predicates_s": ("gf2.graph_predicates", "self_s", "s"),
    "poly.fast_s": ("poly.fast", "self_s", "s"),
    "poly.fast_calls": ("poly.fast", "calls", "count"),
    "poly.fast_subsets": ("poly.fast", "subsets", "count"),
    "poly.naive_s": ("poly.naive", "self_s", "s"),
    "poly.naive_pairs": ("poly.naive", "pairs", "count"),
    "core.parse_dm_s": ("core.parse_dm", "self_s", "s"),
    "core.format_dm_s": ("core.format_dm", "self_s", "s"),
    "core.axiom_s": ("core.axiom", "self_s", "s"),
    "core.axiom_calls": ("core.axiom", "calls", "count"),
    "core.axiom_accepted": ("core.axiom", "accepted", "count"),
    "core.axiom_pairs": ("core.axiom", "pairs", "count"),
    "core.twist_s": ("core.twist", "self_s", "s"),
    "core.restrict_s": ("core.restrict", "self_s", "s"),
    "core.restrict_calls": ("core.restrict", "calls", "count"),
    "bouquet.parse_s": ("bouquet.parse", "self_s", "s"),
    "bouquet.trace_s": ("bouquet.trace", "self_s", "s"),
    "bouquet.trace_subsets": ("bouquet.trace", "subsets", "count"),
    "bouquet.interlacement_s": ("bouquet.interlacement", "self_s", "s"),
    "bouquet.pdp_self_s": ("bouquet.pdp", "self_s", "s"),
    "cli.run_self_s": ("cli.run", "self_s", "s"),
}


def per_layer(res: dict) -> dict:
    layers = res["layers"]
    traced = [e.latency for e in res["execs"] if e.traced]
    untraced = [e.latency for e in res["execs"] if not e.traced]
    ops = len(traced)

    def field(name: str, key: str) -> float:
        return layers.get(name, {}).get(key, 0)

    out = {m: (field(name, key) / ops, unit) for m, (name, key, unit) in PER_OP.items()}
    subsets = field("gf2.dc", "subsets")
    out["gf2.dc_feasible_ratio"] = (field("gf2.dc", "feasible") / subsets if subsets else 0.0, "ratio")
    dm_bytes = field("core.parse_dm", "bytes") + field("core.format_dm", "bytes")
    out["core.dm_bytes"] = (dm_bytes / ops, "bytes")
    for suite, _ in workloads.VERIFY_PASS:
        out[f"verify.{suite}_s"] = (field(f"verify.{suite}", "self_s") / ops, "s")
        out[f"verify.{suite}_checked"] = (res["checked"].get(suite, 0) / ops, "count")
    out["verify.dm_enum_s"] = (res["dm_enum_s"], "s")
    out["cli.import_s"] = (median(res["imports"]), "s")
    traced_s = sum(traced)
    out["trace.overhead_s"] = ((traced_s - sum(untraced)) / ops, "s")
    covered = sum(agg["self_s"] for name, agg in layers.items() if name != "cli.run")
    out["trace.coverage_pct"] = (100 * covered / traced_s, "%")
    return out


# --- main ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = time.monotonic() + DEADLINE_S
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "twistpoly", "cli.py")):
        print(f"error: no twistpoly sources under {src}; run from a checkout's root",
              file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=src)
    out_dir = os.path.join(root, "perfbench", "out")
    os.makedirs(out_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=out_dir)
    try:
        if args.workload == "verify-sweep":
            res = verify_sweep(args.seed, args.seconds, bool(args.trace), root, env,
                               deadline, workdir)
        else:
            res = worker_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                                  root, env, deadline, workdir)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    problems = [e.problem for e in res["execs"] if e.problem is not None]
    metrics = per_layer(res) if args.trace else end_to_end(res)
    summary = {
        "correct": not problems,
        "attempted": len(res["execs"]),
        "failed": len(problems),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    stem = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump({**summary, "rounds": res["rounds"], "problems": problems[:20],
                   "setup_samples_s": res["setups"], "make_up": res["make_up"],
                   "latencies_s": [[e.op, e.latency] for e in res["execs"]]}, fh, indent=1)
    if args.trace:
        with open(stem + "-spans.json", "w") as fh:
            json.dump(res["spans"], fh)
    for problem in problems[:5]:
        print(f"FAILED: {problem}", file=sys.stderr)
    print(json.dumps(summary))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
