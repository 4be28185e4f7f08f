"""One benchmark process: a fresh interpreter that runs a workload's operations.

    python3 perfbench/worker.py PLAN.json RESULT.json

Runs in the directory that receives the artifacts.  The plan names the
source tree, the cold operation, the steady operations, and either a time
budget (``seconds``) or a fixed number of steady operations (``count``).
Only the ``fringelab`` calls are timed; checks and hashing run between them.

A shared host can change speed by a quarter within tens of seconds (seen on
a 2-vCPU x86-64 VM), so a fixed reference kernel is timed before and after
every operation.  Each operation's ``scaled`` time is its wall time times
REF_NOMINAL_S over the mean of those two reference times: seconds on a
machine where the kernel takes REF_NOMINAL_S.  Set-up time is scaled in two
parts, launch to the end of the imports and the cold operation, each by the
median of REF_SAMPLES reference timings on either side.  The kernel does
not touch ``fringelab``, so a change to the program moves scaled times exactly
as it moves wall times.
"""

from __future__ import annotations

import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

REF_NOMINAL_S = 0.005
REF_SAMPLES = 7


def reference() -> float:
    """Wall time of a fixed mix of interpreter and small-array numpy work."""
    start = time.perf_counter()
    total, table = 0, {}
    for i in range(30000):
        total += i * i
        table[i & 255] = total
    a = np.arange(64.0)
    for _ in range(300):
        a = np.cos(a) + a.sum() * 1e-3
    return time.perf_counter() - start


def reference_median() -> float:
    return statistics.median(reference() for _ in range(REF_SAMPLES))


def _clear() -> None:
    for path in Path(".").iterdir():
        path.unlink()


def _digest() -> tuple[str, int]:
    """Hash of the artifacts in the current directory, and their total size."""
    h = hashlib.sha256()
    size = 0
    for path in sorted(Path(".").iterdir()):
        data = path.read_bytes()
        h.update(path.name.encode() + b"\0" + len(data).to_bytes(8, "little") + data)
        size += len(data)
    return h.hexdigest(), size


def _run(workloads, cli, workload: str, op: dict) -> dict:
    _clear()
    start = time.perf_counter()
    try:
        error = workloads.run_op(cli, op)
    except Exception as exc:  # a traceback from the program is a failed op
        error = f"raised {exc!r}"
    elapsed = time.perf_counter() - start
    if error is None:
        error = workloads.check_op(workload, op)
    digest, size = _digest()
    return {"s": elapsed, "error": error, "hash": digest, "bytes": size}


def main(plan_path: str, result_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text())
    src = Path(plan["src"])
    sys.path.insert(0, str(src))
    import workloads  # beside this file; the script's directory is on the path

    import fringelab
    import fringelab.cli as cli

    if Path(fringelab.__file__).resolve().parent != (src / "fringelab").resolve():
        raise ImportError(f"fringelab imported from {fringelab.__file__}, not {src}")
    tracer = None
    if plan["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install(fringelab)

    imported = time.monotonic()
    ref_after_import = reference_median()
    workload = plan["workload"]
    cold = _run(workloads, cli, workload, plan["cold"])
    ref_after_cold = reference_median()
    ref = ref_after_cold
    before = tracer.snapshot() if tracer else None

    steady = []
    ops = plan["steady"]
    start = time.perf_counter()
    while (
        len(steady) < plan["count"]
        if plan["count"] is not None
        else time.perf_counter() - start < plan["seconds"]
    ):
        op = _run(workloads, cli, workload, ops[len(steady) % len(ops)])
        ref_next = reference()
        op["ref"] = 0.5 * (ref + ref_next)
        op["scaled"] = op["s"] * REF_NOMINAL_S / op["ref"]
        steady.append(op)
        ref = ref_next

    result = {
        "imported_monotonic": imported,
        "ref_after_import": ref_after_import,
        "ref_after_cold": ref_after_cold,
        "cold": cold,
        "steady": steady,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer:
        result["trace"] = {
            "before": before,
            "after": tracer.snapshot(),
            "first_s": tracer.first_s,
        }
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
