"""Benchmark runner: runs one workload in fresh processes and reports.

    python3 perfbench/run.py --workload bidask --seed 1 --seconds 28 --trace 0

Closed loop of one caller: each measured process (perfbench/child.py) is
started only after the previous one has ended, so no two overlap. Every
process gets an empty working directory with HOME, XDG_CACHE_HOME and
TMPDIR inside it. Processes are started until the next one would end after
--seconds, and never fewer than MIN_PROCESSES.

--trace 0 reports the end-to-end metrics (medians over the processes).
--trace 1 alternates untraced and traced processes and reports the
per-layer metrics of the traced ones; the difference of the two medians
is trace.overhead_s. The last stdout line is the JSON result; stderr of
the processes goes to a log under .perfbench/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src" / "quantschemes"
OUT = ROOT / ".perfbench"

WORKLOADS = ("bidask", "multidim", "filter", "cli-chain")
END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("cpu_s", "s"),
              ("peak_rss_mb", "MiB")]
MIN_PROCESSES = {False: 3, True: 2}
RUN_LIMIT_S = 170.0
# unset so that BLAS keeps its default thread count
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SOURCE.rglob("*.py")):
        h.update(path.relative_to(SOURCE).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def commit() -> str | None:
    """HEAD of the repository the benchmark runs in, if it is one."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def run_process(workload: str, seed: int, traced: bool, log, timeout: float):
    """One measured process; returns its result dict, or None if it failed
    to produce one (crash or timeout)."""
    work = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
        env.update(HOME=str(work), XDG_CACHE_HOME=str(work / ".cache"),
                   TMPDIR=str(work),
                   PYTHONPATH=os.pathsep.join(
                       [str(ROOT / "src")]
                       + [p for p in [env.get("PYTHONPATH")] if p]))
        result_path = work / "result.json"
        log.write(f"--- {workload} seed={seed} traced={int(traced)}\n")
        log.flush()
        t0 = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), workload, str(seed),
             repr(t0), str(int(traced)), str(result_path)],
            cwd=work, env=env, stdout=log, stderr=log)
        try:
            code = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            log.write(f"--- killed after {timeout:.0f} s\n")
            return None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if code != 0 or not result_path.exists():
            log.write(f"--- exit code {code}\n")
            return None
        with open(result_path) as fh:
            return json.load(fh)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(workload: str, seed: int, seconds: float, trace: bool, log):
    """Run processes until the time is spent; in a traced run, untraced
    and traced processes alternate and come in pairs."""
    start = time.monotonic()
    results, longest = [], 0.0
    while True:
        elapsed = time.monotonic() - start
        enough = (len(results) >= MIN_PROCESSES[trace]
                  and not (trace and len(results) % 2))
        if ((enough and elapsed + longest > seconds)
                or elapsed + longest > RUN_LIMIT_S):
            return results
        began = time.monotonic()
        results.append(run_process(workload, seed,
                                   trace and len(results) % 2 == 1, log,
                                   RUN_LIMIT_S - elapsed))
        longest = max(longest, time.monotonic() - began)


def end_to_end(results):
    done = [r for r in results if r is not None]
    return {name: {"value": statistics.median([r[name] for r in done]),
                   "unit": unit}
            for name, unit in END_TO_END}


def per_layer(results, failed, attempted):
    units = {name: unit for name, unit, _ in tracing.PER_LAYER}
    untraced = [r["wall_s"] for r in results
                if r is not None and not r["traced"]]
    traced = [r for r in results if r is not None and r["traced"]]
    per_process = [tracing.layer_metrics(r["trace"]["spans"],
                                         r["trace"]["window"][1]
                                         - r["trace"]["window"][0],
                                         r["trace"]["absent"])
                   for r in traced]
    metrics = {}
    for name, unit in units.items():
        values = [m[name] for m in per_process if name in m]
        if values:
            # a count stays a whole number that was measured
            middle = (statistics.median_low
                      if all(isinstance(v, int) for v in values)
                      else statistics.median)
            metrics[name] = {"value": middle(values), "unit": unit}
    if untraced:
        metrics["trace.overhead_s"] = {
            "value": statistics.median([r["wall_s"] for r in traced])
            - statistics.median(untraced), "unit": "s"}
    metrics["fail_ratio"] = {"value": failed / attempted, "unit": "ratio"}
    absent = sorted({a for r in traced for a in r["trace"]["absent"]})
    return metrics, absent


def run_workload(workload, seed, seconds, trace, stamp):
    name = f"{workload}-seed{seed}-trace{int(trace)}-{stamp}"
    with open(OUT / f"{name}.log", "w") as log:
        results = measure(workload, seed, seconds, trace, log)
    attempted = len(results)
    failed = sum(1 for r in results if r is None or not r["correct"])
    if not any(r is not None and r["traced"] == trace for r in results):
        return failed, attempted, None
    if trace:
        metrics, absent = per_layer(results, failed, attempted)
    else:
        metrics, absent = end_to_end(results), []
    record = {"workload": workload, "seed": seed, "trace": trace,
              "seconds": seconds, "attempted": attempted, "failed": failed,
              "metrics": metrics, "absent": absent,
              "commit": commit(), "source_sha256": source_digest(),
              "processes": results}
    with open(OUT / f"{name}.json", "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"{workload}: seed {seed}, {attempted} processes, {failed} failed"
          f" (fail_ratio {failed / attempted:.3f}); details in"
          f" .perfbench/{name}.json")
    for metric, m in metrics.items():
        print(f"  {metric:40s} {m['value']!r:>24} {m['unit']}")
    for target in absent:
        print(f"  absent: {target} is no longer bound in the code")
    for r in results:
        if r is not None and not r["correct"]:
            print(f"  failed check: {r['checks']} values {r['values']}")
    return failed, attempted, metrics


def seed_type(text: str) -> int:
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError("seeds are non-negative integers")
    return seed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=seed_type, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SOURCE / "__init__.py").is_file():
        print(f"error: no quantschemes source under {SOURCE.parent}",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    stamp = f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    failed = attempted = 0
    metrics = {}
    for workload in names:
        f, a, m = run_workload(workload, args.seed, args.seconds,
                               bool(args.trace), stamp)
        if m is None:
            print(f"error: no {workload} process produced a result; see"
                  f" the logs under {OUT}", file=sys.stderr)
            return 1
        failed, attempted = failed + f, attempted + a
        prefix = "" if len(names) == 1 else f"{workload}."
        metrics.update({prefix + k: v for k, v in m.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
