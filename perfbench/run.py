"""fringelab benchmark: one workload, end to end or traced per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py for the inputs and checks):
  fig3_sweep       one reproduce-fig3 point per op, README config; estimation-bound
  four_photon_fit  simulate a four-photon probe, then fit harmonics [2, 4]
  fisher_scan      predict four_photon_extremes; fock rotation and detection
  dip_fit          hom on an 81-delay dip; the only user of spectral

Load model: a closed loop with one client, one operation at a time, in a
fresh interpreter per process with BLAS/OpenMP pinned to one thread.  Inputs
are generated from the seed before any process starts.  Each process runs
one cold operation first; ``setup_s`` is the time from launching the
interpreter to the end of that operation's ``fringelab`` calls (imports and
lazy tables such as the dip-fit overlap spline; not the output check), the
median over five processes.  The cold
operation is repeated in each process and its artifacts must match byte for
byte; a mismatch is a failed operation.

Times are scaled by a reference kernel timed around every operation, because
a shared host's speed can drift by a quarter between runs (see worker.py);
the wall-clock figures are printed beside them.

--trace 0  end-to-end metrics: ops_per_s, op_s_p50, setup_s, peak_rss_mb.
--trace 1  per-layer metrics from spans recorded by tracing.py, per steady
           operation, over a fixed list of operations so that the counts
           repeat exactly; the same list also runs untraced, which gives the
           tracing overhead and must write the same artifacts.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Exit status 0 means that line was
printed; anything else (such as a missing source tree) exits non-zero
without it.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402  (needs HERE on the path)
from worker import REF_NOMINAL_S, reference_median  # noqa: E402

THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_PROCESSES = 5
BUDGET_S = 170.0  # every process of one run ends within this
# Typical steady op time on a 2-core x86 machine; sizes the traced op list.
NOMINAL_OP_S = {"fig3_sweep": 1.0, "four_photon_fit": 0.7, "fisher_scan": 0.8, "dip_fit": 0.045}

# Layers named in the per-layer table, and the workloads each must show
# work on: a binding the tracer missed would otherwise read as zero work.
SERVES = {
    "cli": workloads.WORKLOADS,
    "fock": ("fig3_sweep", "four_photon_fit", "fisher_scan"),
    "detection": ("fig3_sweep", "four_photon_fit", "fisher_scan"),
    "metrology": ("fig3_sweep", "four_photon_fit", "fisher_scan"),
    "estimation": ("fig3_sweep", "four_photon_fit"),
    "spectral": ("dip_fit",),
}


class BenchError(RuntimeError):
    pass


def _worker(work: Path, name: str, plan: dict, deadline: float) -> tuple[dict, float]:
    """Run one worker process; returns its result and its scaled setup time.

    Set-up is the time from launch to the end of the imports plus the cold
    op's fringelab calls, without its check.  Each part is scaled by the
    medians of reference times taken on either side of it (see worker.py).
    """
    cwd = work / name
    cwd.mkdir()
    plan_path = work / f"{name}_plan.json"
    result_path = work / f"{name}_result.json"
    plan_path.write_text(json.dumps(plan))
    env = {**os.environ, **THREAD_ENV}
    with open(work / f"{name}.log", "w") as log:
        ref_before = reference_median()
        launched = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), str(plan_path), str(result_path)],
            cwd=cwd,
            env=env,
            stdout=log,
            stderr=subprocess.STDOUT,
        )
        try:
            code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise BenchError(f"{name} ran past the {BUDGET_S:.0f} s budget") from None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if code != 0:
        tail = (work / f"{name}.log").read_text()[-2000:]
        raise BenchError(f"{name} exited with {code}:\n{tail}")
    result = json.loads(result_path.read_text())
    ref_mid = result["ref_after_import"]
    imports = (result["imported_monotonic"] - launched) / (0.5 * (ref_before + ref_mid))
    cold = result["cold"]["s"] / (0.5 * (ref_mid + result["ref_after_cold"]))
    return result, (imports + cold) * REF_NOMINAL_S


def _plan(workload: str, cold: dict, steady: list, *, seconds=None, count=None, trace=False) -> dict:
    return {
        "src": str(ROOT / "src"),
        "workload": workload,
        "cold": cold,
        "steady": steady,
        "seconds": seconds,
        "count": count,
        "trace": trace,
    }


def _failures(*results: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages) over every op of the given results.

    The first result's cold op is the reference for the others' repeats.
    """
    ref = results[0]["cold"]["hash"]
    attempted = failed = 0
    messages = []
    for i, res in enumerate(results):
        for j, op in enumerate([res["cold"], *res["steady"]]):
            attempted += 1
            error = op["error"]
            if error is None and j == 0 and op["hash"] != ref:
                error = "cold-op artifacts differ between processes"
            if error is not None:
                failed += 1
                messages.append(f"process {i} op {j}: {error}")
    return attempted, failed, messages


def end_to_end(workload: str, cold: dict, steady: list, seconds: float, work: Path, deadline: float):
    setups = []
    results = []
    for k in range(SETUP_PROCESSES):
        last = k == SETUP_PROCESSES - 1
        plan = _plan(workload, cold, steady, seconds=seconds if last else None, count=None if last else 0)
        res, setup = _worker(work, f"e2e{k}", plan, deadline)
        setups.append(setup)
        results.append(res)
    main = results[-1]
    if not main["steady"]:
        raise BenchError("no steady operation completed")
    times = [op["scaled"] for op in main["steady"]]
    wall = [op["s"] for op in main["steady"]]
    ok = sum(op["error"] is None for op in main["steady"])
    metrics = {
        "ops_per_s": (ok / sum(times), "1/s"),
        "op_s_p50": (statistics.median(times), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (main["peak_rss_mb"], "MB"),
    }
    attempted, failed, messages = _failures(main, *results[:-1])
    ref_ms = 1e3 * statistics.median(op["ref"] for op in main["steady"])
    notes = [
        f"op_s_p50 over n={len(times)} steady ops; setup_s runs {[round(s, 3) for s in setups]}",
        f"times scaled to a {1e3 * REF_NOMINAL_S:g} ms reference kernel; it took {ref_ms:.3f} ms here;"
        f" wall-clock op_s_p50 {statistics.median(wall):.6g} s, ops_per_s {ok / sum(wall):.6g} 1/s",
    ]
    if len(times) >= 100:
        notes.append(f"op_s_p90 {statistics.quantiles(times, n=10)[-1]:.6g} s (n={len(times)})")
    notes.append(f"failed_frac {failed / attempted:.6g} ({failed} of {attempted})")
    return metrics, attempted, failed, messages, notes


def _layer_metrics(workload: str, traced: dict, n: int) -> tuple[dict, list[str]]:
    """Per-layer metrics per steady op, times scaled like the op times."""
    before, after = traced["trace"]["before"], traced["trace"]["after"]
    scale = statistics.median(REF_NOMINAL_S / op["ref"] for op in traced["steady"])

    def calls(layer):
        return after["calls"][layer] - before["calls"][layer]

    def self_s(layer):
        return (after["self_s"][layer] - before["self_s"][layer]) * scale

    def counter(name):
        return after["counters"].get(name, 0.0) - before["counters"].get(name, 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    m = {
        "cli.self_s": (self_s("cli") / n, "s"),
        "cli.artifact_bytes": (statistics.fmean(op["bytes"] for op in traced["steady"]), "bytes"),
        "fock.rotate.calls": (calls("fock.rotate") / n, "count"),
        "fock.rotate.self_s": (self_s("fock.rotate") / n, "s"),
        "fock.rotate.amps_out": (ratio(counter("fock.rotate.amps_out"), calls("fock.rotate")), "count"),
        "fock.probe.self_s": (self_s("fock.probe") / n, "s"),
        "detection.count.calls": (calls("detection.count") / n, "count"),
        "detection.count.self_s": (self_s("detection.count") / n, "s"),
        "detection.sample.calls": (calls("detection.sample") / n, "count"),
        "detection.sample.self_s": (self_s("detection.sample") / n, "s"),
        "metrology.maximize.calls": (calls("metrology.maximize") / n, "count"),
        "metrology.maximize.self_s": (self_s("metrology.maximize") / n, "s"),
        "metrology.family_evals": (counter("metrology.family_evals") / n, "count"),
        "metrology.optimal.self_s": (self_s("metrology.optimal") / n, "s"),
        "estimation.fit.calls": (calls("estimation.fit") / n, "count"),
        "estimation.fit.self_s": (self_s("estimation.fit") / n, "s"),
        "estimation.fit.converged_ratio": (
            ratio(counter("estimation.fit.converged"), calls("estimation.fit")), "ratio"),
        "estimation.bootstrap.calls": (calls("estimation.bootstrap") / n, "count"),
        "estimation.bootstrap.self_s": (self_s("estimation.bootstrap") / n, "s"),
        "estimation.fits_per_bootstrap_trial": (
            ratio(counter("estimation.bootstrap.fits"), counter("estimation.bootstrap.trials")), "ratio"),
        "estimation.fisher.calls": (calls("estimation.fisher") / n, "count"),
        "estimation.fisher.self_s": (self_s("estimation.fisher") / n, "s"),
        "spectral.fit.calls": (calls("spectral.fit") / n, "count"),
        "spectral.fit.self_s": (self_s("spectral.fit") / n, "s"),
        "spectral.fit.first_s": (
            traced["trace"]["first_s"].get("spectral.fit", 0.0) * REF_NOMINAL_S / traced["ref_after_cold"], "s"),
        "spectral.fit.ill_posed_ratio": (
            ratio(counter("spectral.fit.ill_posed"), calls("spectral.fit")), "ratio"),
        "spectral.overlap.calls": (calls("spectral.overlap") / n, "count"),
        "spectral.overlap.self_s": (self_s("spectral.overlap") / n, "s"),
    }
    missing = [
        f"layer {layer} recorded no call on {workload}"
        for layer, served in SERVES.items()
        if workload in served
        and not any(v for k, v in after["calls"].items() if k.split(".")[0] == layer)
    ]
    return m, missing


def traced_run(workload: str, cold: dict, steady: list, seconds: float, work: Path, deadline: float):
    # Half the time untraced, half traced, over the same fixed op list.
    n = max(2, int(0.5 * seconds / NOMINAL_OP_S[workload]))
    plain, _ = _worker(work, "plain", _plan(workload, cold, steady, count=n), deadline)
    traced, _ = _worker(work, "traced", _plan(workload, cold, steady, count=n, trace=True), deadline)
    metrics, messages = _layer_metrics(workload, traced, n)
    attempted, failed, op_messages = _failures(plain, traced)
    for i, (a, b) in enumerate(zip(plain["steady"], traced["steady"])):
        if a["error"] is None and b["error"] is None and a["hash"] != b["hash"]:
            failed += 1
            op_messages.append(f"steady op {i}: traced artifacts differ from untraced")
    p50_plain = statistics.median(op["scaled"] for op in plain["steady"])
    p50_traced = statistics.median(op["scaled"] for op in traced["steady"])
    metrics["trace.overhead_s"] = (p50_traced - p50_plain, "s")
    notes = [f"per-layer values are per steady op over n={n} ops; untraced op_s_p50 {p50_plain:.6g} s"]
    return metrics, attempted, failed, messages + op_messages, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + BUDGET_S

    if not (ROOT / "src" / "fringelab" / "cli.py").is_file():
        print(f"benchmark: no fringelab source tree at {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    try:
        cold, steady = workloads.make_inputs(args.workload, args.seed, work / "inputs")
        run = traced_run if args.trace else end_to_end
        metrics, attempted, failed, messages, notes = run(
            args.workload, cold, steady, args.seconds, work, deadline
        )
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run is still using it
            pass

    for message in messages:
        print(f"check failed: {message}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} {value:.6g} {unit}")
    for note in notes:
        print(f"  {note}")
    result = {
        "correct": not messages,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
