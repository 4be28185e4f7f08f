"""Workload inputs, the operations that run them, and the output checks.

Inputs come only from the benchmark seed.  Continuous draws follow a Halton
sequence with a seed-chosen random shift, so every prefix of a run's input
list covers the drawn ranges evenly however many operations fit in the run.
The cold operation is the same for every seed, so that ``setup_s`` measures
the same work in every run.

An operation is a list of steps.  A step is either a ``fringelab`` command
line or ``["efficiencies"]``, which copies the efficiencies out of a
``simulate`` truth file for ``fit``, as the README does between the two
commands.  The program receives only the generated configs and CSV files.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

WORKLOADS = ("fig3_sweep", "four_photon_fit", "fisher_scan", "dip_fit")

# Steady operations generated per run; a run that uses them all starts
# again at the first.
POOL = {"fig3_sweep": 60, "four_photon_fit": 40, "fisher_scan": 80, "dip_fit": 64}

FIG3_IPRIMES = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)  # the README sweep
A5_POINT = (0.4790, 0.0282)  # (lambda4, zeta) of the paper's four-photon prediction
A5_EXPECTED = (2.246, 0.7547)  # per-photon Fisher information at full and zero overlap
DIP_DELAYS = np.linspace(-10.0, 10.0, 81)
DIP_TRIALS = 4000
# Largest |fitted - true| class probability at the scanned phases was 0.0053
# over 60 draws at the seed commit (median 0.0020); the check allows 0.02.
FOUR_PHOTON_PROB_TOL = 0.02
# The CLI default is 200 bootstrap trials: about 5 s per op, varying by a
# third from op to op, so a 20 s run held four ops and run medians spread by
# a quarter between seeds.  20 trials keep the same refit path at 0.7 s per op.
FOUR_PHOTON_TRIALS = 20


def _halton(index: int, base: int) -> float:
    f, r = 1.0, 0.0
    i = index
    while i > 0:
        f /= base
        r += f * (i % base)
        i //= base
    return r


def _draws(rng: np.random.Generator, n: int, dims: int) -> np.ndarray:
    """n points in [0, 1)^dims: shifted Halton, one prime base per dimension."""
    bases = (2, 3, 5)[:dims]
    shift = rng.random(dims)
    pts = np.array([[_halton(i + 1, b) for b in bases] for i in range(n)])
    return (pts + shift) % 1.0


def _write_json(path: Path, payload: dict) -> str:
    path.write_text(json.dumps(payload, indent=1) + "\n")
    return str(path)


def quartic_gaussian_overlap(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """q(u) = 4/Gamma(1/4) * int_0^inf exp(-y^4) cos(u y) dy and dq/du.

    Computed here by Gauss-Legendre rather than by the program, so the dip
    inputs and their check do not depend on the code under test.
    exp(-y^4) is below 1e-300 beyond y = 5.
    """
    nodes, weights = np.polynomial.legendre.leggauss(400)
    y = 2.5 * (nodes + 1.0)
    w = 2.5 * weights * np.exp(-(y**4)) * 4.0 / math.gamma(0.25)
    uy = np.outer(np.abs(u), y)
    return np.cos(uy) @ w, -(np.sin(uy) * y) @ w * np.sign(u)


# ---------------------------------------------------------------------------
# Input generation.  Each generator returns (cold op, steady ops); an op is a
# dict with "steps" and "truth" for its check.


def _fig3_op(work: Path, name: str, iprime: float, seed: int) -> dict:
    cfg = _write_json(
        work / f"{name}.json",
        {
            "iprimes": [iprime],
            "zeta": 0.0119,
            "phases": {"count": 32},
            "expected_counts_per_point": 100000,
            "seed": seed,
            "restarts": 8,
            "bootstrap_trials": 100,
        },
    )
    return {"steps": [["reproduce-fig3", "--config", cfg]], "truth": {"iprime": iprime}}


def _fig3_sweep(work: Path, rng: np.random.Generator) -> tuple[dict, list[dict]]:
    seeds = rng.integers(0, 2**31, size=POOL["fig3_sweep"])
    # One fixed cold op, the README's first point with its seed, so that
    # setup_s does not depend on which fit the seed picks.
    cold = _fig3_op(work, "fig3_cold", FIG3_IPRIMES[0], 7)
    steady = [
        _fig3_op(work, f"fig3_{i}", FIG3_IPRIMES[i % len(FIG3_IPRIMES)], int(seeds[i]))
        for i in range(POOL["fig3_sweep"])
    ]
    return cold, steady


def _four_photon_op(work: Path, name: str, lam1: float, tau: float, seed: int) -> dict:
    # The fit reads the simulate artifacts from the operation's directory.
    sim = _write_json(
        work / f"{name}_sim.json",
        {
            "probe": {"type": "four_photon", "lambdas": [lam1, math.sqrt(1.0 - lam1 * lam1)], "tau": tau},
            "zeta": 0.0282,
            "bins_per_arm": 4,
            "phases": {"count": 32},
            "expected_counts_per_point": 100000,
            "seed": seed,
        },
    )
    fit = _write_json(
        work / f"{name}_fit.json",
        {
            "fringe_csv": "fringe.csv",
            "efficiency_json": "eff.json",
            "harmonics": [2, 4],
            "bootstrap_trials": FOUR_PHOTON_TRIALS,
            "seed": seed + 1,
        },
    )
    return {
        "steps": [["simulate", "--config", sim], ["efficiencies"], ["fit", "--config", fit]],
        "truth": {"lambda1": lam1, "tau": tau},
    }


def _four_photon_fit(work: Path, rng: np.random.Generator) -> tuple[dict, list[dict]]:
    n = POOL["four_photon_fit"]
    u = _draws(rng, n, 2)
    seeds = rng.integers(0, 2**30, size=n)
    # One fixed cold op: its cost varies threefold across draws, and
    # setup_s should not depend on which one the seed picks.
    cold = _four_photon_op(work, "fp_cold", 0.8, 1.0, 20160302)
    steady = [
        _four_photon_op(
            work, f"fp_{i}", float(0.7 + 0.25 * u[i, 0]), float(0.5 + 0.5 * u[i, 1]), int(seeds[i])
        )
        for i in range(n)
    ]
    return cold, steady


def _fisher_op(work: Path, name: str, lam4: float, zeta: float) -> dict:
    cfg = _write_json(
        work / f"{name}.json", {"mode": "four_photon_extremes", "lambda4": lam4, "zeta": zeta}
    )
    return {"steps": [["predict", "--config", cfg]], "truth": {"lambda4": lam4, "zeta": zeta}}


def _fisher_scan(work: Path, rng: np.random.Generator) -> tuple[dict, list[dict]]:
    n = POOL["fisher_scan"]
    u = _draws(rng, n, 2)
    cold = _fisher_op(work, "fs_cold", *A5_POINT)
    cold["truth"]["expected"] = A5_EXPECTED
    steady = [
        _fisher_op(work, f"fs_{i}", float(0.3 + 0.65 * u[i, 0]), float(0.005 + 0.045 * u[i, 1]))
        for i in range(n)
    ]
    return cold, steady


def _dip_op(work: Path, name: str, b: float, sigma: float, rng: np.random.Generator) -> dict:
    a = 0.5
    u = DIP_DELAYS / sigma
    q, dq_du = quartic_gaussian_overlap(u)
    p = a + b * q
    observed = rng.binomial(DIP_TRIALS, p) / DIP_TRIALS
    weight = DIP_TRIALS / np.maximum(observed * (1.0 - observed), 1.0 / DIP_TRIALS)
    csv = work / f"{name}.csv"
    rows = [f"{x!r},{v!r},{w!r}" for x, v, w in zip(DIP_DELAYS.tolist(), observed.tolist(), weight.tolist())]
    csv.write_text("x,p,weight\n" + "\n".join(rows) + "\n")
    init = np.array([a, b, sigma]) * rng.uniform(0.8, 1.2, size=3)
    cfg = _write_json(
        work / f"{name}.json",
        {"input": str(csv), "init": dict(zip(("a", "b", "sigma"), init.tolist()))},
    )
    # Standard error of the fitted sigma from the Fisher information of the
    # binomial data at the truth.  The 5% gate alone misses on noise: at the
    # seed commit it failed 1 of 520 draws, where an independent
    # least-squares fit of the same data agreed with the program to 4e-9.
    jac = np.column_stack([np.ones_like(u), q, b * dq_du * (-u / sigma)])
    info = (jac.T * (DIP_TRIALS / (p * (1.0 - p)))) @ jac
    se_sigma = math.sqrt(np.linalg.inv(info)[2, 2])
    return {
        "steps": [["hom", "--config", cfg]],
        "truth": {"a": a, "b": b, "sigma": sigma, "sigma_tol": max(0.05 * sigma, 4.0 * se_sigma)},
    }


def _dip_fit(work: Path, rng: np.random.Generator) -> tuple[dict, list[dict]]:
    n = POOL["dip_fit"]
    u = _draws(rng, n, 2)
    # One fixed cold op, as for the other workloads, mid-way in the drawn ranges.
    cold = _dip_op(work, "dip_cold", -0.39, 2.0, np.random.default_rng(20160302))
    steady = [
        _dip_op(work, f"dip_{i}", float(-0.48 + 0.18 * u[i, 0]), float(1.0 + 2.0 * u[i, 1]), rng)
        for i in range(n)
    ]
    return cold, steady


_GENERATORS = {
    "fig3_sweep": _fig3_sweep,
    "four_photon_fit": _four_photon_fit,
    "fisher_scan": _fisher_scan,
    "dip_fit": _dip_fit,
}


def make_inputs(workload: str, seed: int, work: Path) -> tuple[dict, list[dict]]:
    """Write the workload's input files under ``work``; return (cold, steady) ops."""
    work.mkdir(parents=True, exist_ok=True)
    return _GENERATORS[workload](work, np.random.default_rng([seed, WORKLOADS.index(workload)]))


# ---------------------------------------------------------------------------
# Running and checking one operation.  Both work in the current directory,
# which holds the operation's artifacts.


def run_op(cli, op: dict) -> str | None:
    """Run every step of ``op``; returns an error or None.

    ``cli`` is the ``fringelab.cli`` module; ``cli.main`` is looked up per
    step so that a traced binding is used.
    """
    for step in op["steps"]:
        if step == ["efficiencies"]:
            truth = json.loads(Path("fringe_truth.json").read_text())
            Path("eff.json").write_text(json.dumps(truth["efficiencies"]) + "\n")
            continue
        code = cli.main([*step, "--out", "."])
        if code != 0:
            return f"{step[0]} exited with {code}"
    return None


def _check_fig3(truth: dict) -> str | None:
    point = json.loads(Path("fig3_summary.json").read_text())["points"][0]
    if point["iprime"] != truth["iprime"]:
        return f"iprime {point['iprime']} != {truth['iprime']}"
    sigma = point["sigma"]
    if not (math.isfinite(sigma) and sigma > 0):
        return f"bootstrap sigma {sigma}"
    if abs(point["fprime"] - point["predicted"]) > 4.0 * sigma:
        return f"F' {point['fprime']} is more than 4 sigma from {point['predicted']}"
    return None


def _check_four_photon(truth: dict) -> str | None:
    report = json.loads(Path("fit_report.json").read_text())
    if report["fit"]["converged"] is not True:
        return "fit did not converge"
    sim = json.loads(Path("fringe_truth.json").read_text())
    model = report["fit"]["model"]
    theta = np.array(sim["theta"])
    worst = 0.0
    for col, c in enumerate(sim["classes"]):
        coef = model["coefficients"][str(c)]
        p = coef["c0"] + sum(
            coef["cos"][str(k)] * np.cos(k * theta) + coef["sin"][str(k)] * np.sin(k * theta)
            for k in model["harmonics"]
        )
        worst = max(worst, float(np.max(np.abs(p - np.array(sim["probs"])[:, col]))))
    if not worst <= FOUR_PHOTON_PROB_TOL:
        return f"fitted class probability off by {worst}"
    return None


def _check_fisher(truth: dict) -> str | None:
    lines = Path("prediction.csv").read_text().split()
    if lines[:1] != ["iprime,fprime"] or [r.split(",")[0] for r in lines[1:]] != ["1", "0"]:
        return f"unexpected prediction.csv layout {lines}"
    full, zero = (float(r.split(",")[1]) for r in lines[1:])
    if not 0.0 < zero <= full <= 4.0:
        return f"per-photon information out of order: full {full}, zero {zero}"
    if "expected" in truth:
        for got, want in zip((full, zero), truth["expected"]):
            if abs(got / want - 1.0) > 0.05:
                return f"A5 point gave {got}, more than 5% from {want}"
    return None


def _check_dip(truth: dict) -> str | None:
    fit = json.loads(Path("hom_fit.json").read_text())
    if fit["ill_posed"] is not False:
        return "dip fit is ill-posed"
    if abs(fit["sigma"] - truth["sigma"]) > truth["sigma_tol"]:
        return f"sigma {fit['sigma']} more than {truth['sigma_tol']} from {truth['sigma']}"
    rows = Path("iprime_curve.csv").read_text().split()
    if rows[0] != "x,iprime" or len(rows) != len(DIP_DELAYS) + 1:
        return "iprime_curve.csv does not hold one row per delay"
    if not all(math.isfinite(float(r.split(",")[1])) for r in rows[1:]):
        return "iprime_curve.csv holds a non-finite value"
    return None


_CHECKS = {
    "fig3_sweep": _check_fig3,
    "four_photon_fit": _check_four_photon,
    "fisher_scan": _check_fisher,
    "dip_fit": _check_dip,
}


def check_op(workload: str, op: dict) -> str | None:
    """Check the artifacts in the current directory; returns an error or None."""
    try:
        return _CHECKS[workload](op["truth"])
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unreadable artifact: {exc!r}"
