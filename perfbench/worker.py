"""Benchmark worker: a fresh interpreter that imports twistpoly and runs
operations through ``twistpoly.cli.run`` with stdout captured in memory.

Protocol (one JSON line each way):
  worker -> parent  {"ready": ..., "import_s": ..., "module": ...} once
                    twistpoly is imported;
  parent -> worker  a job, or an empty line to exit;
  worker -> parent  the job's result.

``python3 perfbench/worker.py --cli SPANS_FILE ARGS...`` instead runs one
traced twistpoly command with real stdout and writes its spans to
SPANS_FILE; the verify-sweep workload uses it for its traced processes.
"""

import sys
import time

_t0 = time.perf_counter()
import twistpoly.cli  # noqa: E402  (the import is what set-up time measures)

IMPORT_S = time.perf_counter() - _t0

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402


def run_cli(argv: list[str]) -> tuple[object, str, str]:
    """(exit code, stdout, stderr) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = twistpoly.cli.run(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    except Exception:  # a traceback is a failed operation, not a dead worker
        code = "traceback"
        err.write(traceback.format_exc())
    return code, out.getvalue(), err.getvalue()


def run_op(spec: dict) -> dict:
    kind = spec["kind"]
    if kind == "poly":
        code1, dm, err1 = run_cli(["from-matrix", spec["gf2"]])
        with open(spec["dm"], "w") as fh:
            fh.write(dm)
        code2, poly, err2 = run_cli(["twist-poly", spec["dm"]])
        return {"codes": [code1, code2], "out": [dm, poly], "err": err1 + err2}
    if kind == "genus":
        code, poly, err = run_cli(["genus-poly", spec["rotation"]])
        return {"codes": [code], "out": [poly], "err": err}
    if kind == "check":
        code, report, err = run_cli(["check", spec["dm"]])
        return {"codes": [code], "out": [report], "err": err}
    raise ValueError(f"unknown operation kind {kind!r}")


def digest(result: dict) -> str:
    return hashlib.sha1(json.dumps(result, sort_keys=True).encode()).hexdigest()


def run_job(job: dict) -> dict:
    """Whole rounds over the operations until the next round would end
    after ``seconds``; with ``trace`` each operation runs untraced and then
    traced, back to back."""
    ops, order, seconds = job["ops"], job["order"], job["seconds"]
    tracer = None
    if job["trace"]:
        from spans import Tracer

        tracer = Tracer()
    execs, first = [], {}

    def timed(i: int, traced: bool) -> None:
        if traced:
            tracer.op = len(execs)
            tracer.install()
        start = time.perf_counter()
        try:
            result = run_op(ops[i])
        finally:
            latency = time.perf_counter() - start
            if traced:
                tracer.remove()
        execs.append([i, latency, traced, digest(result)])
        first.setdefault(str(i), result)

    start = time.perf_counter()
    rounds = 0
    while True:
        for i in order:
            timed(i, False)
            if tracer is not None:
                timed(i, True)
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed * (rounds + 1) / rounds > seconds:
            break
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "execs": execs,
        "first": first,
        "rounds": rounds,
        "elapsed_s": elapsed,
        "maxrss_kb": maxrss_kb,
        "spans": tracer.spans if tracer is not None else [],
    }


def serve() -> None:
    ready = {"ready": True, "import_s": IMPORT_S, "module": twistpoly.cli.__file__}
    sys.stdout.write(json.dumps(ready) + "\n")
    sys.stdout.flush()
    line = sys.stdin.readline()
    if not line.strip():
        return
    result = run_job(json.loads(line))
    sys.stdout.write(json.dumps(result) + "\n")
    sys.stdout.flush()


def traced_cli(spans_file: str, argv: list[str]) -> int:
    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        code = twistpoly.cli.run(argv)
    finally:
        tracer.remove()
        sys.stdout.flush()
        with open(spans_file, "w") as fh:
            json.dump({"import_s": IMPORT_S, "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    if sys.argv[1:2] == ["--cli"]:
        sys.exit(traced_cli(sys.argv[2], sys.argv[3:]))
    serve()
