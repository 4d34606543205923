"""One measured process: import, set up, run one workload, check it.

Started by run.py with the monotonic time at which it launched this
process, so that set-up time includes interpreter start and imports.
Writes one JSON result file and exits 0 whether or not the check passed;
an exception in the workload exits non-zero.

    python3 perfbench/child.py WORKLOAD SEED T0 TRACE RESULT_JSON
"""

import ctypes
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import quantschemes
import tracing
import workloads


def _blas() -> dict:
    """Name, version and thread count of the BLAS numpy loaded."""
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    out = {"name": info.get("name"), "version": info.get("version"),
           "threads": None}
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
    for lib in libs:
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                out["threads"] = int(fn())
                return out
    return out


def provenance() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "quantschemes": quantschemes.__version__,
            "blas": _blas(), "nproc": os.cpu_count()}


def main(argv) -> None:
    workload, seed, t0, trace, result_path = argv
    seed, t0, trace = int(seed), float(t0), trace == "1"
    run, check = workloads.WORKLOADS[workload]
    tracer = tracing.Tracer(run_id=f"{workload}-{seed}") if trace else None
    if tracer:
        tracer.install()
    marks = {}

    def start():
        marks["first_call"] = time.monotonic()
        marks["first_perf"] = time.perf_counter()

    try:
        values = run(seed, Path.cwd(), start)
        checks = {k: bool(v) for k, v in check(values).items()}
        end, end_perf = time.monotonic(), time.perf_counter()
    finally:
        if tracer:
            tracer.uninstall()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        "workload": workload, "seed": seed, "traced": trace,
        "setup_s": marks["first_call"] - t0,
        "wall_s": end - marks["first_call"],
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "correct": all(checks.values()), "checks": checks,
        "values": values, "sizes": workloads.SIZES[workload],
        "provenance": provenance(),
    }
    if tracer:
        # span times are perf_counter readings, as is the traced window
        result["trace"] = {"window": [marks["first_perf"], end_perf],
                           "spans": tracer.spans, "absent": tracer.absent}
    with open(result_path, "w") as fh:
        json.dump(result, fh, default=float)


if __name__ == "__main__":
    main(sys.argv[1:])
