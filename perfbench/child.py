"""One fluxlab CLI invocation in a fresh interpreter, as a user pays for it.

    python3 perfbench/child.py MODE REPORT -- CLI-ARGS...

MODE is `run` (untraced), `trace` (spans around every layer, see layers.py)
or `probe` (stop at the first library call: measures set-up only, and
records the environment). The child writes a JSON report to REPORT; the
parent times the process from the outside. Timestamps that the parent
compares with its own use `time.monotonic()`, the system-wide clock.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(_HERE)
sys.path.insert(0, os.path.join(_ROOT, "src"))

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


class _StopAtFirstCall(BaseException):
    """Raised by the probe at the first library call; not an error."""


def _openblas_runtime():
    """OpenBLAS config string and thread count as the loaded library reports
    them, or None when numpy does not bundle scipy-openblas."""
    import ctypes
    import glob

    import numpy

    libs = glob.glob(
        os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*")
    )
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
            get_config = lib.scipy_openblas_get_config64_
            get_threads = lib.scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        get_config.argtypes, get_config.restype = [], ctypes.c_char_p
        get_threads.argtypes, get_threads.restype = [], ctypes.c_int
        return {"config": get_config().decode(), "threads": int(get_threads())}
    return None


def environment() -> dict:
    """Versions, BLAS build and thread settings that produced the numbers."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "build_config": blas.get("openblas configuration"),
            "runtime": _openblas_runtime(),
        },
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
    }


def main() -> int:
    mode, report_path, sep, *argv = sys.argv[1:]
    if mode not in ("run", "trace", "probe") or sep != "--":
        print(__doc__, file=sys.stderr)
        return 2
    import fluxlab.cli as cli

    report = {"mode": mode}
    tracer = None
    if mode == "trace":
        import layers

        tracer = layers.Tracer()
        layers.install(tracer)
        report["untraced_targets"] = tracer.missing

    run_command = cli.run_command

    def first_call(*args, **kwargs):
        report.setdefault("t_first_call", time.monotonic())
        if mode == "probe":
            raise _StopAtFirstCall
        return run_command(*args, **kwargs)

    cli.run_command = first_call
    report["t_main0"] = time.monotonic()
    try:
        report["exit"] = cli.main(argv)
    except _StopAtFirstCall:
        report["exit"] = 0
    report["t_main1"] = time.monotonic()

    usage = resource.getrusage(resource.RUSAGE_SELF)
    report["maxrss_kb"] = usage.ru_maxrss
    report["cpu_s"] = usage.ru_utime + usage.ru_stime
    if tracer is not None:
        report["spans"] = tracer.spans
    if mode == "probe":
        report["environment"] = environment()
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return report["exit"]


if __name__ == "__main__":
    sys.exit(main())
