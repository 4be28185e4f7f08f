"""Repeat the benchmark over seeds and record the numbers with their stamp.

    python3 perfbench/baseline.py [--out FILE]

Runs ``run.py`` once per workload and seed (seeds 1..10) with tracing off,
and twice with tracing on at seed 1.  Prints every end-to-end metric by
name and unit with its median and quartile spread (IQR / median), checks
that the exact per-layer counts repeat across the two traced runs, and
compares the measured self-time shares and counts with the predictions the
per-layer table was written with.  ``--out`` writes all of it, with the machine and
version stamp, as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import THREAD_ENV  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

EXACT_COUNTS = (
    "fock.rotate.calls",
    "metrology.family_evals",
    "estimation.fit.calls",
    "detection.count.calls",
    "spectral.overlap.calls",
)
LAYERS = ("cli", "fock", "detection", "metrology", "estimation", "spectral")
SEEDS = range(1, 11)


def _share(layer):
    return lambda metrics, shares: shares[layer]


# The per-layer table's predictions: (workload, prediction as written,
# measured value, lowest and highest value that count as agreeing).
PREDICTIONS = (
    ("fisher_scan", "fock.apply_path_rotation is about 80% of the op", _share("fock"), 0.70, 0.90),
    ("fisher_scan", "detection is about 13% of the op", _share("detection"), 0.08, 0.18),
    ("fisher_scan", "estimation does nothing", _share("estimation"), 0.0, 0.0),
    ("fisher_scan", "each family eval costs one rotation per ensemble component (2 here)",
     lambda m, s: m["fock.rotate.calls"] / m["metrology.family_evals"], 2.0, 2.0),
    ("fig3_sweep", "estimation is about 96% of the op", _share("estimation"), 0.91, 1.0),
    ("fig3_sweep", "fock is under 1%", _share("fock"), 0.0, 0.01),
    ("fig3_sweep", "detection is under 1%", _share("detection"), 0.0, 0.01),
    ("fig3_sweep", "optimal_fisher_two_photon is under 1%", _share("metrology"), 0.0, 0.01),
    ("fig3_sweep", "101 fit_mle calls per point (606 per six-point sweep)",
     lambda m, s: m["estimation.fit.calls"], 101, 101),
    ("four_photon_fit", "estimation does most of the work", _share("estimation"), 0.5, 1.0),
    ("dip_fit", "the op is spent in spectral and the cli", lambda m, s: s["spectral"] + s["cli"], 0.95, 1.0),
    ("dip_fit", "estimation does nothing", _share("estimation"), 0.0, 0.0),
    # The lazy overlap table is built by the private helpers of fit_hom_dip;
    # quartic_gaussian_overlap is the cli's per-delay quadrature for
    # iprime_curve.csv.  Were the table in spectral.overlap, the first fit
    # would cost about as much as a steady one.
    ("dip_fit", "spectral.overlap carries the lazy table on its first call",
     lambda m, s: m["spectral.fit.first_s"] / (m["spectral.fit.self_s"] / m["spectral.fit.calls"]), 0.0, 2.0),
)


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}\n{proc.stderr}")
    *lines, last = proc.stdout.strip().splitlines()
    result = json.loads(last)
    result["lines"] = lines
    if proc.stderr:
        result["stderr"] = proc.stderr
    return result


def _spread(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
            "values": values}


def _shares(metrics: dict) -> dict:
    self_s = {k: v["value"] for k, v in metrics.items() if k.endswith(".self_s")}
    total = sum(self_s.values())
    return {layer: sum(v for k, v in self_s.items() if k.split(".")[0] == layer) / total
            for layer in LAYERS}


def _stamp() -> dict:
    import numpy
    import scipy

    def git(ref):
        try:
            return subprocess.run(["git", "rev-parse", ref], cwd=ROOT, capture_output=True,
                                  text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            return "unknown"

    return {
        "commit": git("HEAD"),
        "src_tree": git("HEAD:src"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "thread_env": THREAD_ENV,
        "seeds": list(SEEDS),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {"stamp": _stamp(), "run_seconds": seconds, "workloads": {}}

    for workload in WORKLOADS:
        runs = [_run(workload, seed, seconds, 0) for seed in SEEDS]
        entry = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "all_correct": all(r["correct"] for r in runs),
            "end_to_end": {},
        }
        entry["seed_1_output"] = runs[0]["lines"]
        print("\n".join(runs[0]["lines"]))
        print(f"{workload}: {entry['failed']} of {entry['attempted']} ops failed over {len(SEEDS)} seeds")
        for name, unit in ((n, runs[0]["metrics"][n]["unit"]) for n in runs[0]["metrics"]):
            s = _spread([r["metrics"][name]["value"] for r in runs])
            entry["end_to_end"][name] = {"unit": unit, **s}
            flag = "" if s["spread"] <= bounds[name] / 3 else "  (above a third of its bound)"
            print(f"  {name:12s} median {s['median']:.6g} {unit}  spread {s['spread']:.3f}"
                  f"  bound {bounds[name]}{flag}")

        traced = [_run(workload, 1, seconds, 1) for _ in range(2)]
        per_layer = {k: v["value"] for k, v in traced[0]["metrics"].items()}
        repeats = {k: per_layer[k] == traced[1]["metrics"][k]["value"] for k in EXACT_COUNTS}
        shares = _shares(traced[0]["metrics"])
        entry["per_layer"] = per_layer
        entry["trace_correct"] = all(t["correct"] for t in traced)
        entry["exact_counts_repeat"] = repeats
        entry["self_time_shares"] = shares
        print(f"  exact counts repeat across two traced runs: {all(repeats.values())}")
        print("  self-time shares: " + ", ".join(f"{k} {v:.3f}" for k, v in shares.items()))
        checks = []
        for wl, text, measure, lo, hi in PREDICTIONS:
            if wl == workload:
                value = measure(per_layer, shares)
                holds = lo <= value <= hi
                checks.append({"prediction": text, "measured": value, "holds": holds})
                print(f"  prediction '{text}': measured {value:.4g} -> "
                      f"{'holds' if holds else 'CONTRADICTED'}")
        entry["predictions"] = checks
        report["workloads"][workload] = entry

    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
