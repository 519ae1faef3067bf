"""One benchmark process: a set-up followed by repetitions, or one traced step.

    python3 perfbench/worker.py --workload NAME --seed N --inputs DIR
        --outdir DIR --out FILE (--until T | --step STEP [--check])

With --until it times the reference loop, builds the workload's inputs
into --inputs, and then repeats the timed operation into a fresh --outdir
until the monotonic clock would pass T, timing the reference loop between
repetitions.  With --step it runs that single step under the tracer
(configuring first if the inputs have no config yet).  The result goes to
FILE as JSON.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import time
import traceback

import numpy as np


def reference_loop() -> float:
    """Seconds for fixed work that mixes the kinds of work censim does: an
    interpreter loop, tuple-keyed cells aggregated into classes, and numpy
    passes over an array.  It measures the host's momentary speed."""
    t = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc += i * i % 7
    cells = {}
    for y in range(8):
        for r in range(40):
            for s in ("m", "f"):
                for a in range(101):
                    cells[(y, r, s, a)] = float((y * 31 + r * 7 + a) % 97)
    classes: dict = {}
    for (y, r, s, a), v in cells.items():
        key = (y, r, s, a // 5)
        classes[key] = classes.get(key, 0.0) + v
    sorted(classes)
    x = np.arange(250_000, dtype=float)
    for _ in range(8):
        x = np.sqrt(x * 1.0001 + 1.0)
        np.argsort(x[::7] % 13.0, kind="stable")
    return time.perf_counter() - t


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def digests(workload, out: str) -> dict:
    found = {}
    for rel in workload.result_files(out):
        with open(os.path.join(out, rel), "rb") as fh:
            found[rel] = hashlib.sha256(fh.read()).hexdigest()
    return found


def check(workload, inputs: str, out: str) -> dict:
    # a failed check is a result to report, not a crash of the benchmark
    try:
        return {"ok": True, **workload.check(inputs, out)}
    except Exception:
        return {"ok": False, "error": traceback.format_exc(limit=3)}


def run_reps(workload, seed: int, inputs: str, out: str, until: float,
             calib0: float) -> dict:
    workload.prepare(inputs, seed)
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    before = reference_loop()
    result = {"ready": ready, "calib_start": calib0, "calib_ready": before,
              "reps": [], "checks": {}, "digests": None, "error": None}
    checked = result["checks"]
    cost = 0.0
    # start another repetition if it should end nearer `until` than not
    while not result["reps"] or (
            time.clock_gettime(time.CLOCK_MONOTONIC) + cost / 2 <= until):
        began = time.perf_counter()
        shutil.rmtree(out, ignore_errors=True)
        os.makedirs(out)
        try:
            t = time.perf_counter()
            workload.run_timed(inputs, out)
            wall = time.perf_counter() - t
        except Exception:
            result["error"] = traceback.format_exc(limit=5)
            break
        after = reference_loop()
        files = digests(workload, out)
        key = hashlib.sha256(json.dumps(files, sort_keys=True)
                             .encode()).hexdigest()
        if key not in checked:
            checked[key] = check(workload, inputs, out)
        if result["digests"] is None:
            result["digests"] = files
        result["reps"].append({"wall_s": wall, "calib_s": (before + after) / 2,
                               "digest": key})
        before = after
        cost = time.perf_counter() - began
    result["peak_rss_mb"] = _peak_rss_mb()
    return result


def run_step(workload, seed: int, inputs: str, out: str, name: str,
             final: bool) -> dict:
    from tracing import Tracer
    if not os.path.exists(os.path.join(inputs, "pipeline.cfg")):
        workload.configure(inputs, seed)
    setup = dict(workload.setup_steps())
    timed = dict(workload.timed_steps())
    tracer = Tracer()
    # a step of the benchmark's own (writing rate files) is not traced
    if name not in workload.own_steps:
        tracer.install()
    try:
        t = time.perf_counter()
        if name in setup:
            setup[name](inputs)
        else:
            timed[name](inputs, out)
        wall = time.perf_counter() - t
    finally:
        tracer.uninstall()
    result = {"wall_s": wall, "peak_rss_mb": _peak_rss_mb(),
              "stats": tracer.stats, "top_s": tracer.top_s,
              "warnings": tracer.warnings, "missing": tracer.missing}
    if final:
        result["check"] = check(workload, inputs, out)
        result["digests"] = digests(workload, out)
    return result


def main() -> None:
    calib0 = reference_loop()   # before censim is imported, for setup_s
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--outdir", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--until", type=float)
    ap.add_argument("--step")
    ap.add_argument("--check", action="store_true")
    args = ap.parse_args()
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload]
    inputs = os.path.abspath(args.inputs)
    out = os.path.abspath(args.outdir)
    os.makedirs(inputs, exist_ok=True)
    if args.step is None:
        result = run_reps(workload, args.seed, inputs, out, args.until, calib0)
    else:
        os.makedirs(out, exist_ok=True)
        result = run_step(workload, args.seed, inputs, out, args.step,
                          args.check)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
