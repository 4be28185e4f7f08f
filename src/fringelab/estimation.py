"""Poisson maximum-likelihood fitting of Fourier fringe models with
per-outcome detection efficiencies, multi-start gradient ascent, and
parametric-bootstrap error bars.

The observed counts x of outcome class d at phase theta are modeled as
Poisson with mean lambda = lambda_t * p(d|theta) * eta_d, where lambda_t is
the efficiency-corrected total-event estimate sum_d x_d/eta_d and p(d|theta)
is a truncated Fourier series per class.  Normalization over classes is
enforced exactly by eliminating one class's coefficients; nonnegativity is
enforced by a quadratic penalty on a dense phase grid.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import gammaln

from .errors import IllPosedError
from .metrology import FisherReport, _basis, _basis_derivative, _maximize_fourier_fisher

_NEG_TOL = 1e-9  # slack on the nonnegativity of fitted probabilities


@dataclass(frozen=True)
class FringeDataset:
    """Counts per outcome class at each scanned phase, with efficiencies."""

    points: tuple[tuple[float, dict[int, int]], ...]
    efficiencies: dict[int, float]

    def __post_init__(self) -> None:
        effs = {int(k): float(v) for k, v in self.efficiencies.items()}
        for c, e in effs.items():
            if not 0.0 < e <= 1.0:
                raise ValueError(f"efficiency for class {c} must be in (0, 1], got {e}")
        pts = []
        for theta, counts in self.points:
            theta = float(theta)
            if not math.isfinite(theta):
                raise ValueError("phases must be finite")
            clean = {}
            for c, x in counts.items():
                c = int(c)
                if c not in effs:
                    raise ValueError(f"class {c} has no efficiency entry")
                xi = int(x)
                if xi != x or xi < 0:
                    raise ValueError(f"counts must be nonnegative integers, got {x}")
                clean[c] = xi
            pts.append((theta, clean))
        if not pts:
            raise ValueError("dataset has no points")
        object.__setattr__(self, "points", tuple(pts))
        object.__setattr__(self, "efficiencies", effs)

    @property
    def classes(self) -> tuple[int, ...]:
        return tuple(sorted(self.efficiencies))

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(thetas, counts, eta) with counts shaped (classes, thetas)."""
        classes = self.classes
        thetas = np.array([t for t, _ in self.points])
        counts = np.array(
            [[counts.get(c, 0) for _, counts in self.points] for c in classes],
            dtype=float,
        )
        eta = np.array([self.efficiencies[c] for c in classes])
        return thetas, counts, eta


@dataclass(frozen=True)
class FourierFringeModel:
    """Per-class truncated Fourier series p(class|theta).

    ``coefficients`` has one row per class: [c0, cos_k, sin_k, ...] following
    the harmonic order.  Rows sum columnwise to [1, 0, 0, ...] so the class
    probabilities are normalized at every phase, and the probabilities are
    nonnegative on a 360-point grid.
    """

    classes: tuple[int, ...]
    harmonics: tuple[int, ...]
    coefficients: np.ndarray

    def __post_init__(self) -> None:
        classes = tuple(int(c) for c in self.classes)
        harmonics = tuple(int(k) for k in self.harmonics)
        if len(set(classes)) != len(classes) or not classes:
            raise ValueError("classes must be non-empty and unique")
        if len(set(harmonics)) != len(harmonics) or any(k <= 0 for k in harmonics):
            raise ValueError("harmonics must be unique positive frequencies")
        coeff = np.array(self.coefficients, dtype=float)
        if coeff.shape != (len(classes), 1 + 2 * len(harmonics)):
            raise ValueError(f"coefficient array has shape {coeff.shape}")
        colsum = coeff.sum(axis=0)
        target = np.zeros_like(colsum)
        target[0] = 1.0
        if not np.allclose(colsum, target, atol=1e-9):
            raise ValueError(f"columns sum to {colsum}, breaking normalization")
        grid = np.linspace(0.0, 2.0 * math.pi, 360, endpoint=False)
        if float((coeff @ _basis(harmonics, grid)).min()) < -_NEG_TOL:
            raise ValueError("model probabilities are negative on the phase grid")
        object.__setattr__(self, "classes", classes)
        object.__setattr__(self, "harmonics", harmonics)
        object.__setattr__(self, "coefficients", coeff)

    def probs_at(self, thetas: np.ndarray) -> np.ndarray:
        return self.coefficients @ _basis(self.harmonics, np.asarray(thetas, dtype=float))

    def derivs_at(self, thetas: np.ndarray) -> np.ndarray:
        return self.coefficients @ _basis_derivative(
            self.harmonics, np.asarray(thetas, dtype=float)
        )

    def evaluate(self, theta: float) -> dict[int, float]:
        col = self.probs_at(np.array([theta]))[:, 0]
        return dict(zip(self.classes, col.tolist()))

    def to_json(self) -> str:
        payload = {
            "classes": list(self.classes),
            "harmonics": list(self.harmonics),
            "coefficients": {
                str(c): {
                    "c0": self.coefficients[i, 0],
                    "cos": {
                        str(k): self.coefficients[i, 1 + 2 * j]
                        for j, k in enumerate(self.harmonics)
                    },
                    "sin": {
                        str(k): self.coefficients[i, 2 + 2 * j]
                        for j, k in enumerate(self.harmonics)
                    },
                }
                for i, c in enumerate(self.classes)
            },
        }
        return json.dumps(payload)

    @classmethod
    def from_json(cls, text: str) -> "FourierFringeModel":
        data = json.loads(text)
        classes = tuple(int(c) for c in data["classes"])
        harmonics = tuple(int(k) for k in data["harmonics"])
        coeff = np.zeros((len(classes), 1 + 2 * len(harmonics)))
        for i, c in enumerate(classes):
            entry = data["coefficients"][str(c)]
            coeff[i, 0] = entry["c0"]
            for j, k in enumerate(harmonics):
                coeff[i, 1 + 2 * j] = entry["cos"][str(k)]
                coeff[i, 2 + 2 * j] = entry["sin"][str(k)]
        return cls(classes, harmonics, coeff)


@dataclass(frozen=True)
class FitResult:
    model: FourierFringeModel
    log_likelihood: float
    converged: bool
    restarts_used: int


def total_rate_estimate(dataset: FringeDataset, theta: float) -> float:
    """Efficiency-corrected total events at one scanned phase: sum x/eta."""
    for t, counts in dataset.points:
        if t == theta:
            return float(
                sum(x / dataset.efficiencies[c] for c, x in counts.items())
            )
    raise ValueError(f"phase {theta} is not in the dataset")


def _poisson_loglik(x: np.ndarray, lam: np.ndarray) -> float:
    """Sum of Poisson log-masses; impossible data (x > 0 at rate 0) gives -inf."""
    if np.any(lam < 0):
        return -np.inf
    positive = x > 0
    if np.any(positive & (lam <= 0)):
        return -np.inf
    safe = np.where(lam > 0, lam, 1.0)
    terms = np.where(positive, x * np.log(safe), 0.0) - lam - gammaln(x + 1.0)
    return float(terms.sum())


def _rates(
    model_probs: np.ndarray, lam_t: np.ndarray, eta: np.ndarray
) -> np.ndarray:
    return lam_t[None, :] * model_probs * eta[:, None]


def log_likelihood(model: FourierFringeModel, dataset: FringeDataset) -> float:
    """Poisson log-likelihood of the dataset under the model.

    Rates are lambda_t(theta) * p(class|theta) * eta_class with lambda_t the
    per-phase efficiency-corrected total.  Returns -inf when the model
    assigns zero rate to an observed count.
    """
    if tuple(model.classes) != dataset.classes:
        raise ValueError("model and dataset classes differ")
    thetas, counts, eta = dataset.arrays()
    lam_t = (counts / eta[:, None]).sum(axis=0)
    lam = _rates(model.probs_at(thetas), lam_t, eta)
    return _poisson_loglik(counts, lam)


# ---------------------------------------------------------------------------
# Fitting.


class _FitProblem:
    """Precomputed arrays and the penalized objective for one dataset.

    ``extra_penalty_thetas`` lets the fit loop densify the nonnegativity
    penalty where a violation was found between the base grid points
    (cutting-plane style).
    """

    def __init__(
        self,
        dataset: FringeDataset,
        harmonics: tuple[int, ...],
        extra_penalty_thetas: tuple[float, ...] = (),
    ):
        self.classes = dataset.classes
        self.harmonics = harmonics
        self.thetas, self.counts, self.eta = dataset.arrays()
        distinct = np.unique(self.thetas)
        if distinct.size < 8:
            raise IllPosedError(
                f"{distinct.size} distinct phases cannot identify a fringe model"
            )
        if float(distinct.max() - distinct.min()) < math.pi - 1e-9:
            raise IllPosedError("phases must span at least pi")
        self.basis = _basis(harmonics, self.thetas)
        self.lam_t = (self.counts / self.eta[:, None]).sum(axis=0)
        self.rate_scale = self.eta[:, None] * self.lam_t[None, :]
        self.positive = self.counts > 0
        self.x_positive = self.counts[self.positive]
        self.lgamma_const = float(gammaln(self.counts + 1.0).sum())
        grid = np.linspace(0.0, 2.0 * math.pi, 360, endpoint=False)
        if extra_penalty_thetas:
            grid = np.concatenate([grid, np.array(extra_penalty_thetas)])
        self.grid_basis = _basis(harmonics, grid)
        self.mu = 10.0 * (1.0 + float(self.counts.sum()))
        self.n_free = len(self.classes) - 1
        self.n_coef = 1 + 2 * len(harmonics)
        self.target = np.zeros(self.n_coef)
        self.target[0] = 1.0

    def assemble(self, free: np.ndarray) -> np.ndarray:
        out = np.empty((len(self.classes), self.n_coef))
        out[:-1] = free
        out[-1] = self.target - free.sum(axis=0)
        return out

    def objective(self, free: np.ndarray) -> tuple[float, np.ndarray | None]:
        coeff = self.assemble(free)
        probs = coeff @ self.basis
        lam = self.rate_scale * probs
        if lam.min() < 0.0:
            return -np.inf, None
        lam_pos = lam[self.positive]
        if lam_pos.size and lam_pos.min() <= 0.0:
            return -np.inf, None
        ll = float((self.x_positive * np.log(lam_pos)).sum() - lam.sum()) - self.lgamma_const
        grid_probs = coeff @ self.grid_basis
        violation = np.minimum(grid_probs, 0.0)
        value = ll - self.mu * float((violation**2).sum())
        ratio = np.zeros_like(lam)
        ratio[self.positive] = self.x_positive / lam_pos
        dll = ((ratio - 1.0) * self.rate_scale) @ self.basis.T
        dpen = 2.0 * self.mu * (violation @ self.grid_basis.T)
        full_grad = dll - dpen
        grad = full_grad[:-1] - full_grad[-1][None, :]
        return value, grad


def _ascend(
    problem: _FitProblem, free0: np.ndarray, max_iter: int = 500
) -> tuple[np.ndarray, float, bool]:
    """Backtracking gradient ascent; returns (free, objective, converged)."""
    free = free0.copy()
    value, grad = problem.objective(free)
    if not np.isfinite(value):
        return free, value, False
    step = 1.0 / problem.mu
    stalls = 0
    for _ in range(max_iter):
        gnorm2 = float((grad**2).sum())
        if math.sqrt(gnorm2) < 1e-9:
            return free, value, True
        step = min(step * 2.0, 1e6 / problem.mu)
        accepted = False
        for _ in range(60):
            trial = free + step * grad
            trial_value, trial_grad = problem.objective(trial)
            if trial_value >= value + 1e-4 * step * gnorm2:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            return free, value, True
        improvement = trial_value - value
        assert improvement >= 0.0  # accepted steps never decrease the objective
        free, value, grad = trial, trial_value, trial_grad
        if improvement < 1e-10 * (1.0 + abs(value)):
            stalls += 1
            if stalls >= 2:
                return free, value, True
        else:
            stalls = 0
    return free, value, False


def _least_squares_init(problem: _FitProblem) -> np.ndarray:
    """Project efficiency-corrected empirical frequencies onto the basis."""
    with np.errstate(invalid="ignore", divide="ignore"):
        freq = (problem.counts / problem.eta[:, None]) / problem.lam_t[None, :]
    keep = problem.lam_t > 0
    if not np.any(keep):
        return np.tile(problem.target / len(problem.classes), (problem.n_free, 1))
    b = problem.basis[:, keep]
    coeff, *_ = np.linalg.lstsq(b.T, freq[:, keep].T, rcond=None)
    coeff = coeff.T
    correction = (coeff.sum(axis=0) - problem.target) / len(problem.classes)
    coeff = coeff - correction[None, :]
    return coeff[:-1]


def fit_mle(
    dataset: FringeDataset,
    harmonics: Sequence[int],
    restarts: int = 50,
    seed: int | None = None,
    warm_start: FourierFringeModel | None = None,
) -> FitResult:
    """Maximum-likelihood Fourier fringe fit with random restarts.

    Each start runs backtracking gradient ascent on the penalized Poisson
    log-likelihood (analytic gradients; one class eliminated to enforce
    normalization exactly).  The first start projects the empirical
    frequencies onto the basis; the rest draw harmonic coefficients uniformly
    from [-0.2, 0.2] around uniform class weights.  The best result must pass
    a final nonnegativity check or is returned with converged = False.
    """
    restarts = int(restarts)
    if restarts < 1:
        raise ValueError("restarts must be at least 1")
    harmonics = tuple(sorted(int(k) for k in harmonics))
    problem = _FitProblem(dataset, harmonics)
    rng = np.random.default_rng(seed)

    starts = [_least_squares_init(problem)]
    if warm_start is not None:
        if warm_start.classes != problem.classes or warm_start.harmonics != harmonics:
            raise ValueError("warm start does not match the requested model family")
        starts.append(np.array(warm_start.coefficients[:-1]))
    for _ in range(restarts):
        free = np.empty((problem.n_free, problem.n_coef))
        free[:, 0] = 1.0 / len(problem.classes)
        free[:, 1:] = rng.uniform(-0.2, 0.2, size=(problem.n_free, problem.n_coef - 1))
        starts.append(free)

    best: tuple[np.ndarray, float, bool] | None = None
    for start in starts:
        result = _ascend(problem, start)
        if best is None:
            best = result
            continue
        tie = 1e-6 * (1.0 + abs(best[1]))
        if result[1] > best[1] + tie or (
            abs(result[1] - best[1]) <= tie and result[2] and not best[2]
        ):
            best = result
    assert best is not None
    free, value, converged = best
    if not converged and np.isfinite(value):
        # A start that spent its iteration budget crawling along the
        # nonnegativity boundary usually stalls immediately when continued.
        free2, value2, converged2 = _ascend(problem, free)
        if value2 >= value:
            free, value, converged = free2, value2, converged2

    # Narrow dips can slip between the penalty grid points; add the located
    # dip to the penalty set and re-ascend until none survives.
    extra: list[float] = []
    for _ in range(3):
        worst, theta = _continuous_minimum(problem.assemble(free), harmonics)
        if worst >= -_NEG_TOL:
            break
        extra.extend([theta - 2e-3, theta, theta + 2e-3])
        problem = _FitProblem(dataset, harmonics, extra_penalty_thetas=tuple(extra))
        free, value, converged = _ascend(problem, free)

    coeff, shrink = _project_feasible(
        problem.assemble(free), harmonics, len(problem.classes)
    )
    if shrink < 1.0 - 1e-4:
        # The penalty left a material violation; report the projected model
        # but flag it.
        converged = False
    model = FourierFringeModel(problem.classes, harmonics, coeff)
    ll = log_likelihood(model, dataset)
    return FitResult(
        model=model,
        log_likelihood=ll,
        converged=bool(converged and np.isfinite(ll)),
        restarts_used=len(starts),
    )


def _continuous_minimum(
    coeff: np.ndarray, harmonics: tuple[int, ...]
) -> tuple[float, float]:
    """Continuous minimum of the class probabilities and its phase.

    Grid minima sit between samples for oscillatory models; a parabolic
    vertex polish per class pins the true dip, which matters because a model
    crossing zero between grid points has divergent information there.
    """
    grid = np.linspace(0.0, 2.0 * math.pi, 720, endpoint=False)
    probs = coeff @ _basis(harmonics, grid)
    flat = int(np.argmin(probs))
    worst = float(probs.flat[flat])
    worst_theta = float(grid[flat % len(grid)])
    step = grid[1] - grid[0]
    for k_idx in range(probs.shape[0]):
        row = probs[k_idx]
        i = int(np.argmin(row))
        f_minus, f0, f_plus = row[i - 1], row[i], row[(i + 1) % len(grid)]
        curve = f_plus - 2.0 * f0 + f_minus
        if curve <= 0.0:
            continue
        offset = -0.5 * step * (f_plus - f_minus) / curve
        if abs(offset) > step:
            continue
        theta = float(grid[i] + offset)
        value = float(coeff[k_idx] @ _basis(harmonics, np.array([theta]))[:, 0])
        if value < worst:
            worst, worst_theta = value, theta
    return worst, worst_theta


def _project_feasible(
    coeff: np.ndarray, harmonics: tuple[int, ...], n_classes: int
) -> tuple[np.ndarray, float]:
    """Mix toward the uniform model until probabilities are nonnegative.

    The mixture (1-t)*model + t*uniform keeps both sum constraints for any
    t, and boundary-touching optima only need t within rounding of zero.
    The continuous minimum is used so no sub-grid zero crossing survives.
    Returns the projected coefficients and the retained fraction 1 - t.
    """
    projected = coeff
    retained = 1.0
    for _ in range(3):
        worst, _theta = _continuous_minimum(projected, harmonics)
        if worst >= 0.0:
            break
        t = -worst / (1.0 / n_classes - worst)
        t = min(1.0, t * (1.0 + 1e-12) + 1e-16)
        projected = projected * (1.0 - t)
        projected[:, 0] += t / n_classes
        retained *= 1.0 - t
    return projected, retained


def fisher_from_model(model: FourierFringeModel) -> FisherReport:
    """Fisher information of a fitted model, maximized over phase in (0, pi).

    Uses the exact Fourier form through the same phase maximiser as
    ``metrology.maximize_fisher``, with its guard against rounding next to a
    vanishing class probability.
    """
    return _maximize_fourier_fisher(
        model.coefficients, model.harmonics, max(model.classes), (0.0, math.pi)
    )


@dataclass(frozen=True)
class BootstrapReport:
    """Spread of refitted quantities across parametric-bootstrap trials."""

    sigma_max_fisher: float
    sigma_per_photon: float
    sigma_coefficients: np.ndarray
    trials: int

    def to_json(self) -> str:
        return json.dumps(
            {
                "sigma_max_fisher": self.sigma_max_fisher,
                "sigma_per_photon": self.sigma_per_photon,
                "sigma_coefficients": self.sigma_coefficients.tolist(),
                "trials": self.trials,
            }
        )


def bootstrap_errors(
    fit: FitResult,
    dataset: FringeDataset,
    trials: int,
    seed: int,
    restarts: int = 1,
) -> BootstrapReport:
    """Parametric bootstrap: resample counts from the fitted rates and refit.

    Each trial draws Poisson counts at the original phases with the original
    per-phase totals and efficiencies, refits (warm-started at the parent
    fit), and records the refitted coefficients and maximum Fisher
    information.  Sub-seeds are spawned deterministically from ``seed`` so
    results do not depend on evaluation order.
    """
    trials = int(trials)
    if trials < 2:
        raise ValueError("need at least 2 trials for a standard deviation")
    thetas, counts, eta = dataset.arrays()
    lam_t = (counts / eta[:, None]).sum(axis=0)
    lam = _rates(fit.model.probs_at(thetas), lam_t, eta)
    lam = np.maximum(lam, 0.0)
    children = np.random.SeedSequence(seed).spawn(trials)
    classes = dataset.classes
    max_fs = np.empty(trials)
    coefs = np.empty((trials,) + fit.model.coefficients.shape)
    for t in range(trials):
        rng = np.random.default_rng(children[t])
        fake = rng.poisson(lam)
        points = tuple(
            (float(th), {c: int(fake[k, j]) for k, c in enumerate(classes)})
            for j, th in enumerate(thetas)
        )
        fake_ds = FringeDataset(points, dataset.efficiencies)
        refit = fit_mle(
            fake_ds,
            fit.model.harmonics,
            restarts=restarts,
            seed=children[t].spawn(1)[0].generate_state(1)[0],
            warm_start=fit.model,
        )
        max_fs[t] = fisher_from_model(refit.model).max_fisher
        coefs[t] = refit.model.coefficients
    n_photons = max(classes)
    return BootstrapReport(
        sigma_max_fisher=float(np.std(max_fs, ddof=1)),
        sigma_per_photon=float(np.std(max_fs / n_photons, ddof=1)),
        sigma_coefficients=np.std(coefs, axis=0, ddof=1),
        trials=trials,
    )
