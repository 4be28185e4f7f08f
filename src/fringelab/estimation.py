"""Poisson maximum-likelihood fitting of Fourier fringe models with
per-outcome detection efficiencies, damped Newton solves with walls that keep
every class probability nonnegative, and parametric-bootstrap error bars
whose refits are solved in batches of bounded size.

The observed counts x of outcome class d at phase theta are modeled as
Poisson with mean lambda = lambda_t * p(d|theta) * eta_d, where lambda_t is
the efficiency-corrected total-event estimate sum_d x_d/eta_d and p(d|theta)
is a truncated Fourier series per class.  Normalization over classes is
enforced exactly by eliminating one class's coefficients; nonnegativity by
linear walls p(d|theta) >= 0, at cells with no counts and at the model's own
dips between cells.  The log-likelihood is concave in the remaining
coefficients and the walls are linear, so every local maximum is global, and
Newton's method with an active set on the walls reaches one; the start only
sets how many steps that takes.  Each fit starts at the least-squares
projection of its observed class fractions onto the model, the
method-of-moments estimate, a step or two from the maximum when counts are
high.  The fitting code carries a leading trial axis, so a bootstrap refits
each block of its resamples in lockstep, and a single fit is a batch of one.
The constant -sum log(x!) cancels in every comparison the solve makes; it is
added once, with ``math.lgamma``, to the log-likelihoods reported.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import IllPosedError
from .metrology import FisherReport, _basis, _fisher_report, _grid, _maximize_fourier_fisher

_NEG_TOL = 1e-9  # slack on the nonnegativity of fitted probabilities
_MAX_ITER = 200  # Newton steps per solve
_MAX_ROUNDS = 32  # solves per fit, each walling off the dips of the last
_TINY = np.finfo(float).tiny
# Cells per class the bootstrap holds for one trial beyond its data: the
# 722 points of ``_local_minima``'s scan.
_SCAN_POINTS = 722
# Trial-cells (trials x classes x (phases + _SCAN_POINTS)) the bootstrap draws
# and refits at once; the cost per refit is flat from 100 to 1,000 two-photon
# trials of 32 phases a block and higher below that.  A trial that the
# coefficient floor or its samples clear (``_possible_dips``) is never scanned,
# but the block counts its scan, so the bound holds when every trial is.
_BLOCK_CELLS = 2**18
# The largest mean that numpy's Poisson sampler accepts.
_POISSON_MAX = float(np.iinfo(np.int64).max - 10 * np.sqrt(np.iinfo(np.int64).max))


def _label(c) -> int:
    """Class label ``c`` as an int; a ValueError unless it is integral."""
    label = int(c)
    if label != c:
        raise ValueError(f"class labels must be integers, got {c!r}")
    return label


@dataclass(frozen=True)
class FringeDataset:
    """Counts per outcome class at each scanned phase, with efficiencies."""

    points: tuple[tuple[float, dict[int, int]], ...]
    efficiencies: dict[int, float]

    def __post_init__(self) -> None:
        effs = {_label(k): float(v) for k, v in self.efficiencies.items()}
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
                c = _label(c)
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
        classes = self.classes
        thetas = np.array([t for t, _ in pts])
        counts = np.array([[row.get(c, 0) for _, row in pts] for c in classes], dtype=float)
        eta = np.array([effs[c] for c in classes])
        thetas.flags.writeable = counts.flags.writeable = eta.flags.writeable = False
        object.__setattr__(self, "_arrays", (thetas, counts, eta))

    @property
    def classes(self) -> tuple[int, ...]:
        return tuple(sorted(self.efficiencies))

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(thetas, counts, eta), counts shaped (classes, thetas); read-only."""
        return self._arrays


def _harmonics(harmonics: Sequence[int]) -> tuple[int, ...]:
    """``harmonics`` as ints, in the order given; a ValueError unless they are
    non-empty, integral, unique and positive."""
    given = tuple(harmonics)
    ints = tuple(int(k) for k in given)
    if not ints or ints != given or min(ints) <= 0 or len(set(ints)) < len(ints):
        raise ValueError(f"harmonics must be non-empty, integral, unique and positive, got {given!r}")
    return ints


@dataclass(frozen=True)
class FourierFringeModel:
    """Per-class truncated Fourier series p(class|theta).

    ``coefficients`` has one row per class: [c0, cos_k, sin_k, ...] following
    the harmonic order.  They are finite, and rows sum columnwise to
    [1, 0, 0, ...] so the class probabilities are normalized at every phase;
    no local minimum of a class probability lies below -_NEG_TOL (rounding),
    which ``_possible_dips`` checks by scanning only what neither the
    coefficient floor nor the samples clear.  The model keeps a read-only
    copy of the checked coefficients, so no later write can break them.
    """

    classes: tuple[int, ...]
    harmonics: tuple[int, ...]
    coefficients: np.ndarray

    def __post_init__(self) -> None:
        classes = tuple(_label(c) for c in self.classes)
        harmonics = _harmonics(self.harmonics)
        if len(set(classes)) != len(classes) or not classes:
            raise ValueError("classes must be non-empty and unique")
        coeff = np.array(self.coefficients, dtype=float)
        if coeff.shape != (len(classes), 1 + 2 * len(harmonics)):
            raise ValueError(f"coefficient array has shape {coeff.shape}")
        if not np.isfinite(coeff).all():
            raise ValueError("coefficients must be finite")
        colsum, target = coeff.sum(axis=0), np.eye(1, coeff.shape[1])[0]
        # np.allclose(colsum, target, atol=1e-9), without its overhead.
        if not (np.abs(colsum - target) <= 1e-9 + 1e-5 * target).all():
            raise ValueError(f"columns sum to {colsum}, breaking normalization")
        if _possible_dips(coeff[None], harmonics)[3].min(initial=0.0) < -_NEG_TOL:
            raise ValueError("model probabilities are negative at some phase")
        coeff.flags.writeable = False
        object.__setattr__(self, "classes", classes)
        object.__setattr__(self, "harmonics", harmonics)
        object.__setattr__(self, "coefficients", coeff)

    def probs_at(self, thetas: np.ndarray) -> np.ndarray:
        return self.coefficients @ _basis(self.harmonics, np.asarray(thetas, dtype=float))

    def evaluate(self, theta: float) -> dict[int, float]:
        col = self.probs_at(np.array([theta]))[:, 0]
        return dict(zip(self.classes, col.tolist()))


@dataclass(frozen=True)
class FitResult:
    model: FourierFringeModel
    log_likelihood: float
    converged: bool


def _poisson_loglik(x: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Sum of Poisson log-masses without their log(x!) over the last two
    axes, (classes, phases); impossible data (x > 0 at rate 0, or a negative
    rate) gives -inf."""
    positive = x > 0
    impossible = ((lam < 0) | (positive & (lam <= 0))).any(axis=(-2, -1))
    safe = np.where(lam > 0, lam, 1.0)
    terms = np.where(positive, x * np.log(safe), 0.0) - lam
    total = terms.reshape(terms.shape[:-2] + (-1,)).sum(axis=-1)
    return np.where(impossible, -np.inf, total)


def _log_factorials(counts: np.ndarray) -> float:
    """Sum of log(x!) over the counts, the constant of the Poisson
    log-likelihood."""
    return math.fsum(map(math.lgamma, (np.ravel(counts) + 1.0).tolist()))


def _rates(model_probs: np.ndarray | float, counts: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """Poisson rates lambda_t * p * eta of ``counts`` (..., classes, phases)
    under ``model_probs``, lambda_t being each phase's efficiency-corrected
    total sum_d x_d / eta_d."""
    lam_t = (counts / eta[:, None]).sum(axis=-2)
    return lam_t[..., None, :] * model_probs * eta[:, None]


def _check_totals(dataset: FringeDataset) -> None:
    """Raise ``IllPosedError`` unless some phase holds a count and, at every
    phase, the efficiency-corrected total sum_d x_d / eta_d is a float and
    each class seen there holds at least 2^-52 of it: the fit solves for
    class probabilities that sum to 1, and a smaller one is below their
    float resolution."""
    thetas, counts, eta = dataset.arrays()
    with np.errstate(over="ignore"):
        corrected = counts / eta[:, None]
        totals = corrected.sum(axis=0)
    if not totals.any():
        raise IllPosedError("no phase holds a count")
    low = (counts > 0) & (corrected < np.finfo(float).eps * totals)
    bad = ~np.isfinite(totals) | low.any(axis=0)
    if bad.any():
        raise IllPosedError(
            f"efficiency-corrected total at phase {float(thetas[np.argmax(bad)])!r} is beyond the float "
            "range, or a class seen there holds less than 2^-52 of it"
        )


def log_likelihood(model: FourierFringeModel, dataset: FringeDataset) -> float:
    """Poisson log-likelihood of the dataset under the model.

    Rates are lambda_t(theta) * p(class|theta) * eta_class with lambda_t the
    per-phase efficiency-corrected total.  The value includes the constant
    -sum log(x!), so it is the log of the probability of the counts.  Returns
    -inf when the model assigns zero rate to an observed count.
    """
    if tuple(model.classes) != dataset.classes:
        raise ValueError("model and dataset classes differ")
    thetas, counts, eta = dataset.arrays()
    lam = _rates(model.probs_at(thetas), counts, eta)
    return float(_poisson_loglik(counts, lam)) - _log_factorials(counts)


# ---------------------------------------------------------------------------
# Fitting.


class _Geometry:
    """What every trial of a batch shares: classes, harmonics, phases, and
    the affine map from the free coefficients to the class probabilities.

    The free coefficients are the rows of every class but the last,
    flattened; a class probability is ``row @ free + offset`` (``affine``),
    with ``cell_rows`` at the data cells, class-major.  ``basis`` is the
    Fourier basis at the phases, and ``projector`` maps a series' values
    there to its least-squares coefficients; it starts every fit.  Fewer
    than two classes leave no free coefficient, and phases that cannot
    identify the model raise ``IllPosedError``, checked first for a phase
    that the top harmonic carries past the float range, where the basis
    would be NaN.
    """

    def __init__(self, thetas: np.ndarray, classes: tuple[int, ...], harmonics: tuple[int, ...]):
        if len(classes) < 2:
            raise IllPosedError(f"a fringe model needs at least 2 classes, got {len(classes)}")
        top = float(np.abs(thetas).max(initial=0.0))
        if not math.isfinite(max(harmonics) * top):
            raise IllPosedError(f"phase {top!r} is beyond the float range at harmonic {max(harmonics)}")
        distinct = np.unique(thetas)
        if distinct.size < 8:
            raise IllPosedError(
                f"{distinct.size} distinct phases cannot identify a fringe model"
            )
        if float(distinct.max() - distinct.min()) < math.pi - 1e-9:
            raise IllPosedError("phases must span at least pi")
        self.basis = _basis(harmonics, thetas)
        u, sv, vt = np.linalg.svd(self.basis.T, full_matrices=False)
        if (sv > sv[0] * max(thetas.size, sv.size) * np.finfo(float).eps).sum() < 1 + 2 * len(harmonics):
            # No count would set a term that vanishes at every phase, as
            # sin(6 theta) does at 12 equally spaced phases.
            raise IllPosedError(f"{distinct.size} phases alias harmonics {list(harmonics)}")
        # Least-squares coefficients of a series from its values at the phases.
        self.projector = (vt.T / sv) @ u.T
        self.thetas = thetas
        self.classes = classes
        self.harmonics = harmonics
        self.n_free = len(classes) - 1
        self.n_coef = 1 + 2 * len(harmonics)
        self.target = np.zeros(self.n_coef)
        self.target[0] = 1.0
        self.cell_rows, self.cell_offset = self.affine(
            np.repeat(np.arange(len(classes)), thetas.size), np.tile(thetas, len(classes))
        )
        self.row_norms = np.linalg.norm(self.cell_rows, axis=1)

    def affine(self, cls: np.ndarray, thetas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Rows (m, free) and offsets (m,) giving class index ``cls`` (m,) at
        ``thetas`` (m,): a class is its own free row, the last is 1 minus the
        sum of them."""
        mix = np.vstack([np.eye(self.n_free), -np.ones(self.n_free)])[cls]
        # C order: the products' rounding follows the layout.
        basis = np.ascontiguousarray(_basis(self.harmonics, thetas).T)
        rows = mix[:, :, None] * basis[:, None, :]
        return rows.reshape(len(cls), self.n_free * self.n_coef), (cls == self.n_free).astype(float)

    def start(self, counts: np.ndarray, eta: np.ndarray) -> np.ndarray:
        """Free coefficients (trials, free) projecting each trial's observed
        class fractions x/(eta lambda_t) onto the model by least squares,
        the method-of-moments estimate; a phase with no counts takes 1/C for
        every class.  A projection not positive at every data cell is mixed
        toward uniform until its lowest cell is 1% of uniform: a start next
        to a cell's zero makes Newton crawl away from it, about one doubling
        per step."""
        corrected = counts / eta[:, None]
        lam_t = corrected.sum(axis=-2, keepdims=True)
        fractions = np.where(lam_t > 0, corrected / np.where(lam_t > 0, lam_t, 1.0), 1.0 / len(self.classes))
        free = _each(self.projector, fractions[:, :-1].reshape(-1, self.thetas.size))
        free = free.reshape(len(counts), -1)
        worst = (_each(self.cell_rows, free) + self.cell_offset).min(axis=1)
        low = np.flatnonzero(worst <= 0.0)
        if low.size:
            lifted = _toward_uniform(self.assemble(free[low]), worst[low], 0.01 / len(self.classes))
            free[low] = lifted[:, :-1].reshape(low.size, free.shape[1])
        return free

    def assemble(self, free: np.ndarray) -> np.ndarray:
        """Coefficients (trials, classes, coefficients) from free (trials, free)."""
        free = np.reshape(free, (len(free), self.n_free, self.n_coef))
        return np.concatenate([free, (self.target - free.sum(axis=1))[:, None]], axis=1)


def _geometry(thetas: np.ndarray, classes: tuple[int, ...], harmonics: tuple[int, ...]) -> _Geometry:
    """The ``_Geometry`` of ``thetas``, ``classes`` and ``harmonics``, shared:
    a fit and its bootstrap, and every point of a sweep on one phase grid,
    build it once.  Only the last one is kept, since one of 10,000 phases and
    five classes holds about 14 MB."""
    return _cached_geometry(np.asarray(thetas, dtype=float).tobytes(), classes, harmonics)


@functools.lru_cache(maxsize=1)
def _cached_geometry(theta_bytes: bytes, classes: tuple[int, ...], harmonics: tuple[int, ...]) -> _Geometry:
    geometry = _Geometry(np.frombuffer(theta_bytes), classes, harmonics)
    for array in vars(geometry).values():
        if isinstance(array, np.ndarray):
            array.flags.writeable = False
    return geometry


class _FitProblem:
    """The log-likelihood of a batch of trials on one geometry, and the
    walls that keep their class probabilities nonnegative.

    Per-trial arrays lead with the trial axis: counts, rates per unit
    probability, and the constraints.  A trial's constraints are its data
    cells, then its dip walls, padded to the batch's most.  A zero-count
    cell with a nonzero total adds only -lambda, so the optimum may sit on
    its wall lambda >= 0; cells a period of the model apart repeat a wall
    row, which the rank-revealing KKT solve takes as it comes.  ``dips``
    (trial, class index, theta), flat, walls p(class|theta) >= 0 between
    the cells.  ``walls`` marks every wall.
    """

    def __init__(self, geometry: _Geometry, counts: np.ndarray, eta: np.ndarray, dips: Sequence):
        self.geometry = geometry
        self.counts = counts.reshape(len(counts), -1)
        self.rate_scale = _rates(1.0, counts, eta).reshape(self.counts.shape)
        self.seen = self.counts > 0
        cells = np.ones((len(counts), 1))
        self.walls = ~self.seen & (self.rate_scale > 0)
        # The highest class probability that makes a data cell infeasible: 0
        # where a count was seen, the float below -_NEG_TOL on a wall, and
        # none (NaN, which no probability is at or below) elsewhere.
        self.floor = np.where(self.seen, 0.0, np.where(self.walls, np.nextafter(-_NEG_TOL, -np.inf), np.nan))
        # ``objective`` reads these whole when it is asked for every trial.
        for array in (self.counts, self.rate_scale, self.seen, self.floor):
            array.flags.writeable = False
        self.offset = cells * geometry.cell_offset
        self.row_norms = cells * geometry.row_norms
        self.dip_rows = np.zeros((len(counts), 0, geometry.n_free * geometry.n_coef))
        if not len(dips[0]):
            return
        # Slot each dip after the earlier dips of its trial.
        owner = dips[0]
        order = np.argsort(owner, kind="stable")
        slot = np.empty_like(owner)
        slot[order] = np.arange(owner.size) - np.searchsorted(owner[order], owner[order])
        shape = (len(counts), slot.max() + 1)
        rows, offset = geometry.affine(dips[1], dips[2])
        self.dip_rows = np.zeros(shape + rows.shape[1:])
        dip_offset, dip_walls = np.zeros(shape), np.zeros(shape, dtype=bool)
        self.dip_rows[owner, slot], dip_offset[owner, slot], dip_walls[owner, slot] = rows, offset, True
        self.walls = np.concatenate([self.walls, dip_walls], axis=1)
        self.offset = np.concatenate([self.offset, dip_offset], axis=1)
        self.row_norms = np.concatenate([self.row_norms, np.linalg.norm(self.dip_rows, axis=-1)], axis=1)

    def objective(
        self, free: np.ndarray, trials: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Log-likelihood without log(x!) (b,) of ``trials`` at ``free``
        (b, n), with its gradient (b, n) and Hessian (b, n, n); the value is
        -inf, and the derivatives meaningless, unless lambda > 0 where a
        count was seen and lambda >= -_NEG_TOL (rounding) on the cell
        walls.  ``trials`` ascend without repeats, so as many as the
        problem holds are all of them, and the per-trial arrays are then
        read whole rather than gathered."""
        g = self.geometry
        x, scale, seen, floor = self.counts, self.rate_scale, self.seen, self.floor
        if trials.size < len(x):
            x, scale, seen, floor = x[trials], scale[trials], seen[trials], floor[trials]
        p = _each(g.cell_rows, free)
        p += g.cell_offset
        feasible = ~(p <= floor).any(axis=1)
        lam = scale * p
        # log(tiny) only where no count was seen, so it is multiplied by 0.
        terms = np.maximum(lam, _TINY)
        np.log(terms, out=terms)
        terms *= x
        ll = terms.sum(axis=1) - lam.sum(axis=1)
        # x is 0 wherever no count was seen, so x / 1 there is the 0 it needs.
        p_seen = np.where(seen, p, 1.0)
        weight = p_seen * p_seen
        np.divide(x, p_seen, out=p_seen)
        p_seen -= scale
        grad = _each(g.cell_rows.T, p_seen)
        np.divide(-x, weight, out=weight)
        hess = (g.cell_rows.T * weight[:, None, :]) @ g.cell_rows  # bit for bit -(rows * weight) @ rows
        return np.where(feasible, ll, -np.inf), grad, hess

    def apply(self, vectors: np.ndarray, trials: np.ndarray) -> np.ndarray:
        """Every constraint row of each of ``trials`` times its vector of
        ``vectors`` (b, n); a dip row is summed on its own, so its bits do
        not depend on the padding."""
        cells = _each(self.geometry.cell_rows, vectors)
        if not self.dip_rows.shape[1]:
            return cells
        dips = (self.dip_rows[trials] * vectors[:, None, :]).sum(axis=-1)
        return np.concatenate([cells, dips], axis=1)

    def rows(self, trials: np.ndarray, held: np.ndarray) -> np.ndarray:
        """Constraint rows (b, k, n) at the indices ``held`` (b, k) of each
        of ``trials``."""
        cells = len(self.geometry.cell_rows)
        rows = self.geometry.cell_rows[np.minimum(held, cells - 1)]
        i, j = np.nonzero(held >= cells)
        rows[i, j] = self.dip_rows[trials[i], held[i, j] - cells]
        return rows


def _each(matrix: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """``matrix @ v`` for each row v of ``vectors``, one product per trial so
    that a trial's bits do not depend on the batch (a 2-D product's do)."""
    return (matrix @ vectors[:, :, None])[..., 0]


def _solve_stack(kkt: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solutions of a stack of linear systems; NaN rows for singular ones."""
    try:
        return np.linalg.solve(kkt, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        out = np.full(rhs.shape, np.nan)
        for i, (a, b) in enumerate(zip(kkt, rhs)):
            try:
                out[i] = np.linalg.solve(a, b)
            except np.linalg.LinAlgError:
                pass
        return out


def _kkt_solve(
    curvature: np.ndarray, grad: np.ndarray, a: np.ndarray, slack: np.ndarray
) -> np.ndarray:
    """[step, multipliers] (b, n + k) of each stacked Newton problem: the
    step d maximizes grad.d + d.curvature.d/2 subject to a d = -slack, and
    the multipliers mu balance what is left, a^T mu = -grad - curvature d.

    Two walls that close in on one tangent point from both sides have
    nearly parallel rows, and the block KKT system of such rows is nearly
    singular.  So it is solved rank-revealingly, in the coordinates y = v d
    of an SVD a = u s v of the rows, cut at 1e-9 of the largest singular
    value: the first ``rank`` meet the slack by least squares, the rest are
    a Newton step on the null space of the rows, and the multipliers follow
    by the pseudo-inverse.  Trials are solved as one stack per rank, so a
    trial's bits do not depend on the batch.
    """
    n = a.shape[2]
    u, sv, vt = np.linalg.svd(a)
    rank = (sv > 1e-9 * sv[:, :1]).sum(axis=1)
    solution = np.empty((len(a), n + a.shape[1]))
    ranks = np.flatnonzero(np.bincount(rank))
    for r in ranks:
        group = slice(None) if ranks.size == 1 else rank == r
        u_r, s_r, v = u[group, :, :r], sv[group, :r], vt[group]
        h = v @ curvature[group] @ v.transpose(0, 2, 1)
        fixed = -_each(u_r.transpose(0, 2, 1), slack[group]) / s_r
        force = -_each(v, grad[group]) - _each(h[..., :r], fixed)
        free = _solve_stack(h[:, r:, r:], force[:, r:])
        y = np.concatenate([fixed, free], axis=1)
        mu = _each(u_r, (force[:, :r] - _each(h[:, :r, r:], free)) / s_r)
        solution[group] = np.concatenate([_each(v.transpose(0, 2, 1), y), mu], axis=1)
    return solution


def _near(level: np.ndarray, slope: np.ndarray) -> np.ndarray:
    """Whether each step (b,) has a cell near enough to stop it, from the
    cells' levels >= 0 and slopes along the step (b, cells).

    A cell stops a step only when level < -slope / 0.9.  A cell is far when
    0.8 * level > -slope: its ratio is then above 1.25 before the 0.9 cut, at
    any magnitude, subnormal included.  The comparison is false for NaN and
    for inf against inf, whose ratio is NaN, so those count as near.
    """
    return ~(0.8 * level > -slope).all(axis=1)


def _nearest(
    level: np.ndarray, slope: np.ndarray, crossing: np.ndarray, seen: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The ratio test of each step (b,): the index of the first ``crossing``
    cell it meets and the fraction of the step that reaches it, 0.9 of the
    way to the zero of a ``seen`` cell, or inf when it crosses none."""
    ratios = np.full(slope.shape, np.inf)
    np.divide(level, -slope, out=ratios, where=crossing)
    np.multiply(ratios, 0.9, out=ratios, where=seen)
    r = np.argmin(ratios, axis=1)
    return r, ratios[np.arange(r.size), r]


def _newton(problem: _FitProblem, free0: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Damped Newton ascent of every trial from ``free0`` (trials, n) with an
    active set on its walls; returns (free, objective, converged).

    The trials run in lockstep, each deciding its own step: it maximizes the
    quadratic model with its active walls held at zero, stops at the first
    other wall it would cross (which becomes active), goes at most 0.9 of the
    way to the zero of a cell with counts, and backtracks until the objective
    rises.  Once the Newton decrement is below 1e-12 * (1 + sum of counts)
    (absolute: the objective's last digits are rounding), the wall with the
    most negative multiplier is released; with none negative the KKT
    conditions hold and the trial stops.  A ridge of 1e-12 of the largest
    curvature lets a step run along a direction the data leave flat until a
    wall stops it.  The KKT systems of the running trials are solved as one
    stack per active-set size, rank-revealingly (see ``_kkt_solve``), so
    nearly parallel walls neither blow up the multipliers nor stall the
    line search.  A trial still running after ``_MAX_ITER``
    steps has not converged.  The ratio test runs only for a moving trial
    with a cell near enough to stop it (``_near``).
    """
    z = np.array(free0, dtype=float)
    n_trials, n = z.shape
    value, grad, hess = problem.objective(z, np.arange(n_trials))
    tol = 1e-12 * (1.0 + problem.counts.sum(axis=1))
    walls, seen = problem.walls, np.zeros_like(problem.walls)
    seen[:, : problem.seen.shape[1]] = problem.seen
    candidates = seen | walls
    active = np.zeros(candidates.shape, dtype=bool)
    converged = np.zeros(n_trials, dtype=bool)
    running = np.isfinite(value)
    for _ in range(_MAX_ITER):
        idx = running.nonzero()[0]
        if not idx.size:
            break
        active_i = active[idx]
        # Summing the boolean set casts it element by element; most solves
        # hold no wall, which any() shows at a fraction of the cost.
        size = active_i.sum(axis=1) if active_i.any() else np.zeros(idx.size, dtype=np.intp)
        # The slack of every constraint, for the KKT systems and the ratio test.
        levels = problem.apply(z[idx], idx) + problem.offset[idx]
        # Each trial's active walls first; only a trial holding a wall can
        # release one.
        order = np.argsort(~active_i, axis=1, kind="stable") if size.any() else None
        curvature, tol_i = hess[idx], tol[idx]
        ridge = 1e-12 * (1.0 + np.abs(np.diagonal(curvature, axis1=1, axis2=2)).max(axis=1))
        curvature.reshape(idx.size, n * n)[:, :: n + 1] -= ridge[:, None]
        solution = np.zeros((idx.size, n + size.max()))
        # LAPACK's rounding depends on the size of a system, padding
        # included, so each trial is solved at the size of its own active
        # set: its steps are then the same bits in any batch.
        widths = np.bincount(size).nonzero()[0]
        for width in widths:
            group = slice(None) if widths.size == 1 else (size == width).nonzero()[0]
            trials = idx[group]
            if width:
                held = order[group, :width]
                slack = np.take_along_axis(levels[group], held, axis=1)
                a = problem.rows(trials, held)
                solution[group, : n + width] = _kkt_solve(curvature[group], grad[trials], a, slack)
            else:
                solution[group, :n] = _solve_stack(curvature[group], -grad[trials])
        step, multipliers = solution[:, :n], solution[:, n:]
        solved = np.isfinite(solution).all(axis=1)
        running[idx[~solved]] = False
        decrement = -((curvature @ step[:, :, None])[..., 0] * step).sum(axis=1)
        flat = solved & (decrement <= tol_i)
        done = flat & (multipliers.min(axis=1, initial=0.0) >= -tol_i)
        converged[idx[done]] = True
        running[idx[done]] = False
        release = (flat & ~done).nonzero()[0]
        if release.size:
            worst = np.argmin(multipliers[release], axis=1)
            active[idx[release], order[release, worst]] = False

        move = (solved & ~flat).nonzero()[0]
        if not move.size:
            continue
        trials, step = idx[move], step[move]
        level = np.maximum(levels[move], 0.0)
        slope = problem.apply(step, trials)
        # Only a trial with a near cell runs the ratio test; the rest go the
        # whole step, as the test would send them.
        alpha, blocker = np.ones(move.size), np.zeros(move.size, dtype=bool)
        r = np.zeros(move.size, dtype=int)
        near = _near(level, slope)
        n_near = np.count_nonzero(near)
        if n_near:
            near = slice(None) if n_near == move.size else near.nonzero()[0]
            t, s, d = trials[near], slope[near], step[near]
            crossing = (
                candidates[t]
                & ~active[t]
                & (s < -1e-9 * np.sqrt((d * d).sum(axis=1))[:, None] * problem.row_norms[t])
            )
            r[near], nearest = _nearest(level[near], s, crossing, seen[t])
            alpha[near] = np.minimum(1.0, nearest)
            blocker[near] = (nearest < 1.0) & walls[t, r[near]]
        gain = (grad[trials] * step).sum(axis=1)
        searching = np.arange(move.size)
        for _ in range(60):
            t = trials[searching]
            t_value, t_grad, t_hess = problem.objective(
                z[t] + alpha[searching, None] * step[searching], t
            )
            # The objective cannot resolve a step to a wall that gains less
            # than the tolerance: it only has to stay within it.
            rise = alpha[searching] * gain[searching]
            unresolved = blocker[searching] & (rise <= tol[t])
            ok = t_value >= value[t] + np.where(unresolved, -tol[t], 1e-4 * rise)
            accept, t = searching[ok], t[ok]
            z[t] += alpha[accept, None] * step[accept]
            value[t], grad[t], hess[t] = t_value[ok], t_grad[ok], t_hess[ok]
            active[t[blocker[accept]], r[accept][blocker[accept]]] = True
            searching = searching[~ok]
            if not searching.size:
                break
            alpha[searching] *= 0.5
            blocker[searching] = False
        else:
            running[trials[searching]] = False
    return z, value, converged


def _fit_batch(
    geometry: _Geometry, counts: np.ndarray, eta: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fit every trial of ``counts`` (trials, classes, phases) as ``fit_mle``
    fits one; returns the coefficients (trials, classes, coefficients), the
    log-likelihoods without their log(x!) constants and the converged flags.

    The first solve starts each trial at the projection of its own class
    fractions (``_Geometry.start``), the same start whether the trial is a
    fit or a bootstrap refit.  Nonnegativity at every phase is met by an
    exchange method (Hettich & Kortanek, SIAM Rev. 35, 380 (1993)): each
    round re-solves, as a smaller batch, the trials whose model still dips
    below -_NEG_TOL, with a wall at every such local minimum beside the
    earlier walls that still hold it up, from the last solution mixed toward
    uniform until every wall holds.  A trial still dipping after
    ``_MAX_ROUNDS`` solves has not converged.  Every trial's arithmetic is
    its own, so it gets the same bits in any batch.
    """
    n_trials = len(counts)
    coeff = np.empty((n_trials, len(geometry.classes), geometry.n_coef))
    converged = np.empty(n_trials, dtype=bool)
    worst = np.zeros(n_trials)
    todo, free = np.arange(n_trials), geometry.start(counts, eta)
    # The walls of the trials in ``todo``: (position in todo, class, theta).
    dips = [np.zeros(0, dtype=int), np.zeros(0, dtype=int), np.zeros(0)]
    for rounds in range(1, _MAX_ROUNDS + 1):
        free, _value, converged[todo] = _newton(_FitProblem(geometry, counts[todo], eta, dips), free)
        fitted = coeff[todo] = geometry.assemble(free)
        trial, cls, theta, value = _possible_dips(fitted, geometry.harmonics)
        worst[todo] = 0.0
        np.minimum.at(worst, todo[trial], value)
        new = value < -_NEG_TOL
        dipping = np.bincount(trial[new], minlength=todo.size) > 0
        if rounds == _MAX_ROUNDS or not dipping.any():
            converged[todo[dipping]] = False
            break
        # A wall with slack only crowds the next solve; it comes back as a
        # dip if it is needed again.
        kept = dipping[dips[0]]
        if kept.any():
            walls = fitted[dips[0], dips[1]]
            kept &= (walls * _basis(geometry.harmonics, dips[2]).T).sum(axis=-1) <= _NEG_TOL
        todo = todo[dipping]
        dips = [np.concatenate([old[kept], now[new]]) for old, now in zip(dips, (trial, cls, theta))]
        dips[0] = (np.cumsum(dipping) - 1)[dips[0]]
        free = _toward_uniform(fitted[dipping], worst[todo])[:, :-1].reshape(todo.size, -1)

    # Lift what rounding or the round bound left below zero.
    negative = np.flatnonzero(worst < 0.0)
    if negative.size:
        coeff[negative] = _toward_uniform(coeff[negative], worst[negative])
    ll = _poisson_loglik(counts, _rates(coeff @ geometry.basis, counts, eta))
    return coeff, ll, converged & np.isfinite(ll)


def fit_mle(dataset: FringeDataset, harmonics: Sequence[int]) -> FitResult:
    """Maximum-likelihood Fourier fringe fit.

    The Poisson log-likelihood is concave in the free coefficients (one
    class eliminated to enforce normalization exactly) and every constraint
    p(class|theta) >= 0 is linear, so one damped Newton solve finds the
    maximum under a set of walls (see ``_newton``).  It starts at the
    least-squares projection of the observed class fractions onto the
    Fourier basis at the data phases, lifted toward the uniform model if it
    is not positive at every data cell (see ``_Geometry.start``).
    A model that dips below zero between the data cells gets a wall at each
    dip and is solved again (see ``_fit_batch``).  The fit is converged when
    the last solve ends with its KKT certificate, no class probability dips
    below -_NEG_TOL at any phase, and the log-likelihood is finite; a dip
    within that slack is lifted to zero by mixing toward the uniform model.
    This is the one-trial case of the batch the bootstrap refits with.  The
    reported log-likelihood is the one ``log_likelihood`` gives: it includes
    the log(x!) constant that the solve leaves out.
    """
    harmonics = tuple(sorted(_harmonics(harmonics)))
    thetas, counts, eta = dataset.arrays()
    _check_totals(dataset)
    coeff, ll, converged = _fit_batch(
        _geometry(thetas, dataset.classes, harmonics), counts[None], eta
    )
    return FitResult(
        model=FourierFringeModel(dataset.classes, harmonics, coeff[0]),
        log_likelihood=float(ll[0]) - _log_factorials(counts),
        converged=bool(converged[0]),
    )


def _local_minima(coeff: np.ndarray, harmonics: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    """Every local minimum over phase of every class probability of each
    trial, flat: (trial, class index, theta, value); ``coeff`` is (trials,
    classes, coefficients).

    One period, 2 pi / gcd(harmonics), is scanned at ``_SCAN_POINTS``
    points (720 cells, and a period on, the last before the first and the
    first after), so no dip ties with its copy a period on.  Grid minima sit
    between samples for oscillatory models; Newton steps on the exact series
    derivatives pin each dip, which matters because a model crossing zero
    between grid points has divergent information there.  A polished dip no
    lower than its grid point keeps the grid point.
    """
    period = 2.0 * math.pi / math.gcd(*harmonics)
    grid, basis = _grid(tuple(harmonics), _SCAN_POINTS, -1.0, period / 720)
    probs = coeff @ basis
    cells = probs[..., 1:-1]
    row, cell = np.divmod(np.flatnonzero((cells < probs[..., :-2]) & (cells <= probs[..., 2:])), 720)
    trial, cls = np.divmod(row, coeff.shape[1])
    k = np.asarray(harmonics, dtype=float)
    dip = coeff[trial, cls]
    cos_k, sin_k = dip[:, 1::2], dip[:, 2::2]
    theta = grid[cell + 1]
    for _ in range(3):
        c, s = np.cos(k * theta[:, None]), np.sin(k * theta[:, None])
        slope = (k * (sin_k * c - cos_k * s)).sum(axis=-1)
        curve = -(k * k * (cos_k * c + sin_k * s)).sum(axis=-1)
        theta = theta - slope / np.where(curve > 0.0, curve, np.inf)
    theta = theta % period
    theta[theta == period] = 0.0  # a step just below 0 wraps to period
    value = (dip * _basis(harmonics, theta).T).sum(axis=-1)
    on_grid = cells[trial, cls, cell]
    polished = value < on_grid
    return trial, cls, np.where(polished, theta, grid[cell + 1]), np.where(polished, value, on_grid)


def _possible_dips(coeff: np.ndarray, harmonics: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    """``_local_minima`` of the trials of ``coeff`` (trials, classes,
    coefficients) that neither certificate clears, with trial indices into
    ``coeff``; a trial clears when each class probability p = c0 + sum_k
    (a_k cos k theta + b_k sin k theta) is certainly above _NEG_TOL.

    The floor c0 - sum_k |(a_k, b_k)|, which p reaches for one harmonic, is
    tried first.  A trial it leaves is sampled at 36 phases h apart over one
    period: between neighbouring samples p >= min(p_j, p_j+1) - (h^2 / 8)
    max |p''|, and |p''| <= sum_k k^2 |(a_k, b_k)| (``_samples_clear``).  A
    NaN or infinite coefficient never clears.  A cleared trial's rows are
    nonnegative and sum to 1, so no coefficient exceeds 2, and rounding of
    about 1e-16 cannot cross _NEG_TOL.  The rest are scanned as one subset
    of whole trials, each with its own product, as in any batch.
    """
    floor = coeff[..., 0] - np.hypot(coeff[..., 1::2], coeff[..., 2::2]).sum(axis=-1)
    unsure = np.flatnonzero(~(np.isfinite(floor) & (floor > _NEG_TOL)).all(axis=-1))
    if unsure.size:
        unsure = unsure[~_samples_clear(coeff[unsure], harmonics)]
    if not unsure.size:
        return unsure, unsure, np.zeros(0), np.zeros(0)
    trial, cls, theta, value = _local_minima(coeff[unsure], harmonics)
    return unsure[trial], cls, theta, value


def _samples_clear(coeff: np.ndarray, harmonics: tuple[int, ...]) -> np.ndarray:
    """Whether each trial is finite and every class's lowest of 36 samples a period (every
    20th point of ``_local_minima``'s scan), less (h^2 / 8) sum_k k^2 |(a_k, b_k)|, is above _NEG_TOL."""
    period = 2.0 * math.pi / math.gcd(*harmonics)
    basis = _grid(tuple(harmonics), _SCAN_POINTS, -1.0, period / 720)[1]
    k2 = np.square(np.asarray(harmonics, dtype=float))  # as floats: an int64 square can wrap
    with np.errstate(invalid="ignore"):  # inf * 0 or inf - inf, only where a trial is not finite
        bend = np.hypot(coeff[..., 1::2], coeff[..., 2::2]) @ k2 * (period / 36) ** 2 / 8
        low = (coeff @ basis[:, 1:-1:20]).min(axis=-1) - bend
    return np.isfinite(coeff).all(axis=(1, 2)) & (low > _NEG_TOL).all(axis=-1)


def _toward_uniform(coeff: np.ndarray, worst: np.ndarray, floor: float = 1e-15) -> np.ndarray:
    """Each trial's (1-t)*model + t*uniform, with t lifting its lowest class
    probability ``worst`` (<= 0) to ``floor``, by default 1e-15, past the
    rounding of evaluating the series; ``coeff`` is (trials, classes,
    coefficients).  The mixture keeps both sum constraints, and the lowest
    point stays where it is."""
    n_classes = coeff.shape[1]
    t = np.minimum(1.0, (floor - worst) / (1.0 / n_classes - worst))
    mixed = coeff * (1.0 - t)[:, None, None]
    mixed[:, :, 0] += t[:, None] / n_classes
    return mixed


def fisher_from_model(model: FourierFringeModel) -> FisherReport:
    """Fisher information of a fitted model, maximized over phase in (0, pi).

    Uses the exact Fourier form through the same phase maximiser as
    ``metrology.maximize_fisher``, with its guard against rounding next to a
    vanishing class probability.
    """
    maxima = _maximize_fourier_fisher(model.coefficients[None], model.harmonics)
    return _fisher_report(maxima, max(model.classes))


@dataclass(frozen=True)
class BootstrapReport:
    """Spread of refitted quantities across parametric-bootstrap trials;
    ``failed_refits`` counts the refits, still in the spread, that did not
    converge.  ``fisher`` is the fitted model's own maximum, as
    ``fisher_from_model`` gives it."""

    sigma_max_fisher: float
    sigma_per_photon: float
    sigma_coefficients: np.ndarray
    trials: int
    failed_refits: int
    fisher: FisherReport


def bootstrap_errors(
    fit: FitResult, dataset: FringeDataset, trials: int, seed: int
) -> BootstrapReport:
    """Parametric bootstrap: resample counts from the fitted rates and refit.

    Every trial draws Poisson counts at the original phases with the original
    per-phase totals and efficiencies from one stream, ``default_rng(seed)``:
    trial k is row k of ``poisson(lam, size=(trials,) + lam.shape)``, so the
    first k trials are the same bits whatever the trial count.  The trials are
    drawn and refitted in blocks of at most ``_BLOCK_CELLS`` trial-cells (at
    least one trial), a trial counting its data cells and the
    ``_SCAN_POINTS`` of every class that its dip scan holds, one block after
    another from the same generator, so memory does not grow with the trial
    count beyond one block and the bits do not depend on the block size.  Each
    trial is refitted exactly as ``fit_mle`` would fit it (same optimum, same
    converged flag), on the fit's own geometry, and the spread of the refitted
    coefficients and maximum Fisher information is reported.  The fit's own
    maximum rides as one more trial in the first block's maximiser call, the
    same bits as ``fisher_from_model(fit.model)``.
    """
    if not (math.isfinite(trials) and int(trials) == trials):
        raise ValueError(f"trials must be an integer, got {trials!r}")
    trials = int(trials)
    if trials < 2:
        raise ValueError("need at least 2 trials for a standard deviation")
    thetas, counts, eta = dataset.arrays()
    harmonics = fit.model.harmonics
    geometry = _geometry(thetas, dataset.classes, harmonics)
    _check_totals(dataset)
    lam = np.maximum(_rates(fit.model.coefficients @ geometry.basis, counts, eta), 0.0)
    if (top := float(lam.max())) > _POISSON_MAX:
        raise IllPosedError(f"resampling mean {top!r} is above the Poisson limit {_POISSON_MAX!r}")
    rng = np.random.default_rng(seed)
    n_classes, n_photons = len(dataset.classes), max(dataset.classes)
    block = max(1, _BLOCK_CELLS // (n_classes * (thetas.size + _SCAN_POINTS)))
    coefs = np.empty((trials, n_classes, geometry.n_coef))
    max_fs = np.empty(trials)
    failed = 0
    for start in range(0, trials, block):
        part = slice(start, min(start + block, trials))
        fake = rng.poisson(lam, size=(part.stop - start,) + lam.shape).astype(float)
        coefs[part], _ll, converged = _fit_batch(geometry, fake, eta)
        # The fitted model is row 0 of the first block's maximiser call.
        lead = [] if start else [fit.model.coefficients[None]]
        maxima = _maximize_fourier_fisher(np.concatenate(lead + [coefs[part]]), harmonics)
        if lead:
            fisher = _fisher_report(maxima, n_photons)
        max_fs[part] = maxima[3][len(lead) :]
        failed += int((~converged).sum())
    return BootstrapReport(
        sigma_max_fisher=float(np.std(max_fs, ddof=1)),
        sigma_per_photon=float(np.std(max_fs / n_photons, ddof=1)),
        sigma_coefficients=np.std(coefs, axis=0, ddof=1),
        trials=trials,
        failed_refits=failed,
        fisher=fisher,
    )
