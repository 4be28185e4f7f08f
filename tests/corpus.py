"""Seeded corpora of low-count fringes, and the checks every fit of them
must pass: 300 dual-Fock n = 3 fringes fitted with harmonics [2, 4, 6], 150
four-photon fringes with [2, 4] and 150 two-photon fringes with [2].

At a few hundred counts per point some class probabilities sit near zero,
cells see no counts, and the fits meet their nonnegativity walls, at cells
and at the model's dips between them; no benchmark fit does.  The tests fit
a slice of each corpus.  Run as a script, it fits all of them:

    PYTHONPATH=src python tests/corpus.py

prints, per corpus, the number of fits, how many did not converge, how
many objective evaluations they took, and how often a fit's coefficients
(once per exchange round, and once more for its model's own check) were
scanned for dips or cleared of them by the coefficient bound; it lists
every fit that fails a check, and exits 1 if any does.
"""

from __future__ import annotations

import math
import sys
from collections import Counter

import numpy as np
from scipy.optimize import nnls

from fringelab import estimation
from fringelab.detection import class_efficiencies
from fringelab.estimation import FringeDataset, _local_minima, fit_mle, log_likelihood
from fringelab.fock import dual_fock_mismatched
from fringelab.metrology import counting_family, four_photon_pair_ensemble, two_photon_family

HARMONICS = (2, 4, 6)
PAIR_CORPUS = 150  # fringes in each of the four- and two-photon corpora


def _fringes(rng, family, etas, total, n_phases) -> FringeDataset:
    """Poisson counts of ``family`` at ``n_phases`` phases from theta = 0,
    drawn phase-major from ``rng``."""
    thetas = 2 * math.pi * np.arange(n_phases) / n_phases
    eta = np.array([etas[c] for c in family.classes])
    counts = rng.poisson(total * family.evaluator(thetas) * eta)
    points = tuple((float(t), dict(zip(family.classes, row.tolist()))) for t, row in zip(thetas, counts))
    return FringeDataset(points, etas)


def dual_fock_corpus(indices):
    """Datasets ``indices`` of a seeded stream of dual-Fock n = 3 fringes:
    random indistinguishability, background zeta in {0, 0.0119, 0.05},
    50-3,000 expected counts per point and 9-20 phases from theta = 0.
    Fitted with harmonics [2, 4, 6], the low-count ones dip below zero
    between data cells next to cells with no counts."""
    rng = np.random.default_rng(20261018)
    etas = class_efficiencies(6, 8)
    datasets = []
    for i in range(max(indices) + 1):
        indist = rng.uniform()
        zeta = float(rng.choice([0.0, 0.0119, 0.05]))
        total = rng.choice([50, 100, 300, 3000])
        n_phases = rng.choice([9, 11, 13, 14, 15, 16, 20])
        dataset = _fringes(rng, counting_family(dual_fock_mismatched(3, indist), zeta), etas, total, n_phases)
        if i in indices:
            datasets.append(dataset)
    return datasets


def _pair_stream():
    """One seeded stream of PAIR_CORPUS four-photon fringes, then
    PAIR_CORPUS two-photon fringes, each drawn in the order: state
    parameters, zeta, counts per point, phase count, counts.

    Four-photon: the purity-weighted pair ensemble with lambda4 ~ U(0.3, 1)
    and cross overlap ~ U(0, 1), zeta in {0, 0.0282}, 20-300 expected counts
    per point, 16, 20 or 32 phases, four bins per arm.  Two-photon: I' ~
    U(0, 1), zeta in {0, 0.0119}, 50-1e5 expected counts per point, 12, 16
    or 32 phases, four bins per arm."""
    rng = np.random.default_rng(20261019)
    etas = class_efficiencies(4, 4)
    for _ in range(PAIR_CORPUS):
        lam4, tau = rng.uniform(0.3, 1.0), rng.uniform()
        zeta = float(rng.choice([0.0, 0.0282]))
        total = rng.choice([20, 50, 100, 300])
        n_phases = rng.choice([16, 20, 32])
        yield _fringes(rng, counting_family(four_photon_pair_ensemble(lam4, tau), zeta), etas, total, n_phases)
    etas = class_efficiencies(2, 4)
    for _ in range(PAIR_CORPUS):
        iprime = rng.uniform()
        zeta = float(rng.choice([0.0, 0.0119]))
        total = rng.choice([50, 300, 3000, 1e5])
        n_phases = rng.choice([12, 16, 32])
        yield _fringes(rng, two_photon_family(iprime, zeta), etas, total, n_phases)


def four_photon_corpus(indices):
    """Datasets ``indices`` of the four-photon half of ``_pair_stream``,
    fitted with harmonics [2, 4]."""
    return [d for i, d in zip(range(max(indices) + 1), _pair_stream()) if i in indices]


def two_photon_corpus(indices):
    """Datasets ``indices`` of the two-photon half of ``_pair_stream``,
    fitted with harmonics [2]."""
    return [d for i, d in zip(range(-PAIR_CORPUS, max(indices) + 1), _pair_stream()) if i in indices]


# Name, datasets ``indices``, size and harmonics of each corpus.
CORPORA = (
    ("dual-Fock", dual_fock_corpus, 300, HARMONICS),
    ("four-photon", four_photon_corpus, PAIR_CORPUS, (2, 4)),
    ("two-photon", two_photon_corpus, PAIR_CORPUS, (2,)),
)


def certificate_failures(problem, trial: int, z: np.ndarray) -> list[str]:
    """What fails of the KKT certificate of ``z`` (free coefficients) as the
    maximum of trial ``trial`` of ``problem`` (an ``estimation._FitProblem``)
    under its walls, checked apart from the solver; empty when it holds.

    No wall may be crossed by more than 1e-9, and no step that keeps the
    walls holding with equality, cells and dips alike, may gain more than
    1e-9 * (1 + the trial's counts) by the quadratic model of the
    log-likelihood at ``z``, with the solver's ridge along directions the
    data leave flat.  By duality that gain is the least r.C^-1.r / 2 over
    multipliers mu >= 0, with r = grad + A^T mu the gradient less a
    combination of the outward wall normals A and C the model's curvature:
    a nonnegative least-squares problem once C is factored.  The gain is in
    the unit of the tolerance, so a gradient left over where the curvature
    is steep counts for what it is worth.
    """
    tol = 1e-9 * (1.0 + problem.counts[trial].sum())
    value, grad, hess = (out[0] for out in problem.objective(z[None], np.array([trial])))
    if not np.isfinite(value):
        return ["the log-likelihood is not finite"]
    walls = problem.walls[trial]
    rows = np.concatenate([problem.geometry.cell_rows, problem.dip_rows[trial]])[walls]
    slack = rows @ z + problem.offset[trial, walls]
    failures = []
    if slack.min(initial=0.0) < -1e-9:
        failures.append(f"a wall is crossed by {-slack.min():.3g}")
    rows = rows[slack <= 1e-9]
    ridge = 1e-12 * (1.0 + np.abs(np.diagonal(hess)).max())
    factor = np.linalg.cholesky(ridge * np.eye(z.size) - hess)
    normals = np.linalg.solve(factor, rows.T.reshape(z.size, -1))
    force = np.linalg.solve(factor, grad)
    left = nnls(normals, -force)[1] if rows.size else np.linalg.norm(force)
    gain = left**2 / 2
    if gain > tol:
        failures.append(f"a step along the walls gains {gain:.3g}")
    return failures


def checked_fit(dataset: FringeDataset, harmonics=HARMONICS):
    """``fit_mle`` of ``dataset`` with (fit, counts, failures): the counts
    are the objective evaluations, and the coefficient sets scanned for dips
    and cleared of them by the coefficient bound, the model's own check
    among them; the failures name each check the fit fails, and are
    empty when it is converged, no class probability dips below zero, its
    log-likelihood is ``log_likelihood`` of its model to 1e-12, and the
    last solve's result carries the KKT certificate on that solve's walls."""
    solves, evaluations, checked, scanned = [], [], [], []
    newton, objective = estimation._newton, estimation._FitProblem.objective
    possible_dips, local_minima = estimation._possible_dips, estimation._local_minima

    def recorded(problem, free0):
        free, value, converged = newton(problem, free0)
        solves.append((problem, free))
        return free, value, converged

    def counted(self, free, trials):
        evaluations.append(len(trials))
        return objective(self, free, trials)

    def bounded(coeff, harmonics):
        checked.append(len(coeff))
        return possible_dips(coeff, harmonics)

    def scan(coeff, harmonics):
        scanned.append(len(coeff))
        return local_minima(coeff, harmonics)

    estimation._newton, estimation._FitProblem.objective = recorded, counted
    estimation._possible_dips, estimation._local_minima = bounded, scan
    try:
        fit = fit_mle(dataset, harmonics)
    finally:
        estimation._newton, estimation._FitProblem.objective = newton, objective
        estimation._possible_dips, estimation._local_minima = possible_dips, local_minima
    failures = [] if fit.converged else ["did not converge"]
    lowest = _local_minima(fit.model.coefficients[None], fit.model.harmonics)[3].min(initial=0.0)
    if lowest < 0.0:
        failures.append(f"a class probability dips to {lowest:.3g}")
    reference = log_likelihood(fit.model, dataset)
    if not abs(fit.log_likelihood - reference) <= 1e-12 * abs(reference):
        failures.append(f"log-likelihood {fit.log_likelihood!r} against {reference!r}")
    problem, free = solves[-1]
    failures += certificate_failures(problem, 0, free[0])
    counts = Counter(evaluations=sum(evaluations), scanned=sum(scanned), cleared=sum(checked) - sum(scanned))
    return fit, counts, failures


def main() -> int:
    failed = 0
    for name, corpus, size, harmonics in CORPORA:
        counts, non_converged = Counter(), 0
        for i, dataset in enumerate(corpus(range(size))):
            fit, used, failures = checked_fit(dataset, harmonics)
            counts += used
            non_converged += not fit.converged
            if failures:
                failed += 1
                print(f"{name} dataset {i}: " + "; ".join(failures))
        print(
            f"{name}: {size} fits, {non_converged} non-converged, {counts['evaluations']} objective evaluations;"
            f" {counts['scanned']} trials scanned for dips, {counts['cleared']} cleared by the coefficient bound"
        )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
