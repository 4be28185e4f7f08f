"""Poisson maximum-likelihood fitting of Fourier fringe models with
per-outcome detection efficiencies, one damped Newton solve per fit, and
parametric-bootstrap error bars.

The observed counts x of outcome class d at phase theta are modeled as
Poisson with mean lambda = lambda_t * p(d|theta) * eta_d, where lambda_t is
the efficiency-corrected total-event estimate sum_d x_d/eta_d and p(d|theta)
is a truncated Fourier series per class.  Normalization over classes is
enforced exactly by eliminating one class's coefficients; nonnegativity is
enforced by a quadratic penalty on a dense phase grid and, at cells with no
counts, by linear constraints.  The log-likelihood is concave in the
remaining coefficients and the penalty is too, so every local maximum is
global, and Newton's method with an active set for those constraints
reaches one from the uniform model.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import gammaln

from .errors import IllPosedError
from .metrology import FisherReport, _basis, _maximize_fourier_fisher

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

    Class probabilities are affine in the free coefficients (the rows of
    every class but the last): ``rows @ free.ravel() + offset``, with
    ``cell_rows`` at the data cells and ``grid_rows`` on the penalty grid.
    A zero-count cell with a nonzero total adds only -lambda, so the optimum
    may sit on its wall lambda >= 0; ``walls`` marks one cell per distinct
    wall.  ``extra_penalty_thetas`` lets the fit loop densify the penalty
    where a violation was found between the base grid points.
    """

    def __init__(
        self,
        dataset: FringeDataset,
        harmonics: tuple[int, ...],
        extra_penalty_thetas: tuple[float, ...] = (),
    ):
        self.classes = dataset.classes
        self.harmonics = harmonics
        thetas, counts, eta = dataset.arrays()
        distinct = np.unique(thetas)
        if distinct.size < 8:
            raise IllPosedError(
                f"{distinct.size} distinct phases cannot identify a fringe model"
            )
        if float(distinct.max() - distinct.min()) < math.pi - 1e-9:
            raise IllPosedError("phases must span at least pi")
        lam_t = (counts / eta[:, None]).sum(axis=0)
        self.counts = counts.ravel()
        self.rate_scale = (eta[:, None] * lam_t[None, :]).ravel()
        self.seen = self.counts > 0
        self.lgamma_const = float(gammaln(self.counts + 1.0).sum())
        # A dip below zero at the optimum shrinks as 1/mu.  At 10 per count
        # the exact maximum of a zero-count fit dipped by up to 7e-5, which
        # the final nonnegativity check rejects.
        self.mu = 1e4 * (1.0 + float(self.counts.sum()))
        self.n_free = len(self.classes) - 1
        self.n_coef = 1 + 2 * len(harmonics)
        self.target = np.zeros(self.n_coef)
        self.target[0] = 1.0
        grid = np.linspace(0.0, 2.0 * math.pi, 360, endpoint=False)
        if extra_penalty_thetas:
            grid = np.concatenate([grid, np.array(extra_penalty_thetas)])
        self.cell_rows, self.cell_offset = self._affine(thetas)
        self.grid_rows, self.grid_offset = self._affine(grid)
        # Phases a period of the model apart give the same wall; keep one.
        wall = np.flatnonzero(~self.seen & (self.rate_scale > 0))
        _, first = np.unique(self.cell_rows[wall].round(12), axis=0, return_index=True)
        self.walls = np.zeros_like(self.seen)
        self.walls[wall[first]] = True

    def _affine(self, thetas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Rows and offsets giving every class at ``thetas``, class-major: a
        class is its own free row, the last is 1 minus the sum of them."""
        mix = np.vstack([np.eye(self.n_free), -np.ones(self.n_free)])
        offset = np.repeat(np.eye(self.n_free + 1)[-1], thetas.size)
        return np.kron(mix, _basis(self.harmonics, thetas).T), offset

    def assemble(self, free: np.ndarray) -> np.ndarray:
        free = np.reshape(free, (self.n_free, self.n_coef))
        return np.vstack([free, self.target - free.sum(axis=0)])

    def objective(
        self, free: np.ndarray
    ) -> tuple[float, np.ndarray | None, np.ndarray | None]:
        """Penalized log-likelihood with its gradient and Hessian in the
        flattened free coefficients; (-inf, None, None) unless lambda > 0 where
        a count was seen and lambda >= -_NEG_TOL (rounding) on the walls."""
        z = np.ravel(free)
        p = self.cell_rows @ z + self.cell_offset
        if p[self.seen].min(initial=1.0) <= 0.0 or p[self.walls].min(initial=0.0) < -_NEG_TOL:
            return -np.inf, None, None
        x, lam = self.counts[self.seen], self.rate_scale * p
        violation = np.minimum(self.grid_rows @ z + self.grid_offset, 0.0)
        ll = float((x * np.log(lam[self.seen])).sum() - lam.sum()) - self.lgamma_const
        value = ll - self.mu * float(violation @ violation)
        dp = -self.rate_scale
        dp[self.seen] += x / p[self.seen]
        grad = self.cell_rows.T @ dp - 2.0 * self.mu * (self.grid_rows.T @ violation)
        # Curvature -x/p^2 at each cell with counts and -2 mu at each grid
        # point below zero.
        seen = self.cell_rows[self.seen]
        below = self.grid_rows[violation < 0.0]
        hess = -(seen.T * (x / p[self.seen] ** 2)) @ seen - 2.0 * self.mu * (below.T @ below)
        return value, grad, hess


def _newton(
    problem: _FitProblem, free0: np.ndarray, max_iter: int = 200
) -> tuple[np.ndarray, float, bool]:
    """Damped Newton ascent from ``free0`` with an active set on the walls;
    returns (free, objective, converged).

    Each step maximizes the quadratic model with the active walls held at
    zero, stops at the first other wall it would cross (which becomes
    active), goes at most 0.9 of the way to the zero of a cell with counts,
    and backtracks until the objective rises.  Once the Newton decrement is
    below 1e-12 * (1 + sum of counts) (absolute: the objective's last digits
    are rounding), the wall with the most negative multiplier is released;
    with none negative the KKT conditions hold.  A ridge of 1e-12 of the
    largest curvature lets a step run along a direction the data leave flat
    until a wall stops it.
    """
    z = np.ravel(free0).astype(float)
    value, grad, hess = problem.objective(z)
    if not np.isfinite(value):
        return z, value, False
    tol = 1e-12 * (1.0 + float(problem.counts.sum()))
    rows, offset = problem.cell_rows, problem.cell_offset
    row_norms = np.linalg.norm(rows, axis=1)
    candidates = problem.seen | problem.walls
    active: list[int] = []
    for _ in range(max_iter):
        a = rows[active]
        curvature = hess - 1e-12 * (1.0 + np.abs(np.diag(hess)).max()) * np.eye(z.size)
        kkt = np.block([[curvature, a.T], [a, np.zeros((len(active), len(active)))]])
        try:
            solution = np.linalg.solve(kkt, np.concatenate([-grad, -(a @ z + offset[active])]))
        except np.linalg.LinAlgError:
            return z, value, False
        step, multipliers = solution[: z.size], solution[z.size :]
        if -step @ curvature @ step <= tol:
            if multipliers.min(initial=0.0) >= -tol:
                return z, value, True
            del active[int(np.argmin(multipliers))]
            continue

        slope = rows @ step
        crossing = candidates & (slope < -1e-9 * np.linalg.norm(step) * row_norms)
        crossing[active] = False
        ratios = np.full(slope.shape, np.inf)
        ratios[crossing] = np.maximum(rows[crossing] @ z + offset[crossing], 0.0) / -slope[crossing]
        ratios[problem.seen] *= 0.9
        r = int(np.argmin(ratios))
        alpha = min(1.0, float(ratios[r]))
        blocker = r if ratios[r] < 1.0 and problem.walls[r] else None
        gain = float(grad @ step)
        for _ in range(60):
            t_value, t_grad, t_hess = problem.objective(z + alpha * step)
            if t_value >= value + 1e-4 * alpha * gain:
                break
            alpha, blocker = 0.5 * alpha, None
        else:
            return z, value, False
        z, value, grad, hess = z + alpha * step, t_value, t_grad, t_hess
        if blocker is not None:
            active.append(blocker)
    return z, value, False


def fit_mle(
    dataset: FringeDataset,
    harmonics: Sequence[int],
    restarts: int = 50,
    seed: int | None = None,
) -> FitResult:
    """Maximum-likelihood Fourier fringe fit.

    The penalized Poisson log-likelihood is concave in the free coefficients
    (one class eliminated to enforce normalization exactly), so one damped
    Newton solve from the uniform model finds the maximum (see ``_newton``).
    A model dip that slips between the penalty grid points is added to the
    grid and the solve repeated.  The result must then pass a final
    nonnegativity check or is returned with converged = False.

    ``restarts`` (at least 1) and ``seed`` are accepted for existing callers
    and have no effect: there is one optimum and no random start.
    """
    if int(restarts) < 1:
        raise ValueError("restarts must be at least 1")
    harmonics = tuple(sorted(int(k) for k in harmonics))
    extra: list[float] = []
    for _ in range(4):
        problem = _FitProblem(dataset, harmonics, extra_penalty_thetas=tuple(extra))
        uniform = np.tile(problem.target / len(problem.classes), (problem.n_free, 1))
        free, _value, converged = _newton(problem, uniform)
        worst, theta = _continuous_minimum(problem.assemble(free), harmonics)
        if worst >= -_NEG_TOL:
            break
        extra.extend([theta - 2e-3, theta, theta + 2e-3])

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
    """Spread of refitted quantities across parametric-bootstrap trials;
    ``failed_refits`` counts the refits, still in the spread, that did not
    converge."""

    sigma_max_fisher: float
    sigma_per_photon: float
    sigma_coefficients: np.ndarray
    trials: int
    failed_refits: int

    def to_json(self) -> str:
        return json.dumps(
            {
                "sigma_max_fisher": self.sigma_max_fisher,
                "sigma_per_photon": self.sigma_per_photon,
                "sigma_coefficients": self.sigma_coefficients.tolist(),
                "trials": self.trials,
                "failed_refits": self.failed_refits,
            }
        )


def bootstrap_errors(
    fit: FitResult, dataset: FringeDataset, trials: int, seed: int
) -> BootstrapReport:
    """Parametric bootstrap: resample counts from the fitted rates and refit.

    Each trial draws Poisson counts at the original phases with the original
    per-phase totals and efficiencies, refits, and records the refitted
    coefficients and maximum Fisher information.  Each trial draws from its
    own sub-seed spawned from ``seed``, so results do not depend on
    evaluation order.
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
    failed = 0
    for t in range(trials):
        fake = np.random.default_rng(children[t]).poisson(lam)
        points = tuple(
            (float(th), {c: int(fake[k, j]) for k, c in enumerate(classes)})
            for j, th in enumerate(thetas)
        )
        refit = fit_mle(FringeDataset(points, dataset.efficiencies), fit.model.harmonics)
        failed += not refit.converged
        max_fs[t] = fisher_from_model(refit.model).max_fisher
        coefs[t] = refit.model.coefficients
    n_photons = max(classes)
    return BootstrapReport(
        sigma_max_fisher=float(np.std(max_fs, ddof=1)),
        sigma_per_photon=float(np.std(max_fs / n_photons, ddof=1)),
        sigma_coefficients=np.std(coefs, axis=0, ddof=1),
        trials=trials,
        failed_refits=failed,
    )
