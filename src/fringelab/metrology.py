"""Fisher information of counting fringes, optimal operating points under
background noise, and closed-form predictions for two- and four-photon
probes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .detection import _zeta, add_background
from .errors import SingularFisherError
from .fock import (
    MultimodeFockState,
    PathSectors,
    StateEnsemble,
    _fraction,
    apply_path_rotation,  # noqa: F401  (bound here for perfbench's tracer test)
    dual_fock_mismatched,
    two_distinct_pairs,
)


@dataclass(frozen=True)
class FringeFamily:
    """Counting-class probabilities as a function of the interferometer phase.

    ``evaluator`` takes a 1-D array of phases and returns the class
    probabilities shaped (phases, classes), columns in ``classes`` order.
    Each class probability must be a trigonometric polynomial of degree at
    most ``n_photons`` in theta, as rotating an N-photon probe gives: the
    half-angle rotation makes every amplitude a degree-N polynomial in
    cos(theta/2) and sin(theta/2), and background mixing is linear.
    ``maximize_fisher`` and the fixed step of ``fisher_at`` rely on this.
    Every Fisher maximum is over the period (0, pi), ``_HALF_TURN``.
    """

    evaluator: Callable[[np.ndarray], np.ndarray]
    classes: tuple[int, ...]
    n_photons: int


@dataclass(frozen=True)
class FisherReport:
    theta_grid: tuple[float, ...]
    fisher_values: tuple[float, ...]
    max_fisher: float
    argmax_theta: float
    per_photon: float


def fisher_at(family: FringeFamily, theta: float) -> float:
    """Fisher information, the sum over classes of (dp/dtheta)^2 / p, at one
    phase by central differences of half-width 5e-5 from one evaluator call
    over the three phases.  The fixed step resolves every family that keeps
    the ``FringeFamily`` contract: a class of degree N <= ``MAX_PHOTONS`` = 8
    has |p'''| <= N^3 (Bernstein), so the quotient is off by at most
    N^3 * 4.2e-10; on 57 families at 1,201 phases down to 1e-7 from 0, pi/2
    and pi it was off by at most 6.3e-8.  A class with p
    below 1e-14 adds nothing when its derivative is below 1e-10, or below
    1e-2 * sqrt(p), a term under 1e-4, as a class vanishing as theta^4 gives
    (p'^2 / p ~ 1e-6 there).  A larger derivative means a finite or
    diverging share that p cannot resolve, as a class vanishing as theta^2
    carries, and raises SingularFisherError.
    """
    half = 5e-5
    rows = family.evaluator(np.array([theta, theta + half, theta - half]))
    probs, plus, minus = np.asarray(rows, dtype=float)
    derivs = (plus - minus) / (2.0 * half)
    total = 0.0
    for c, p, d in zip(family.classes, probs.tolist(), derivs.tolist()):
        if not (math.isfinite(p) and math.isfinite(d)):
            raise ValueError(f"non-finite probability or derivative at theta={theta}")
        if p < 1e-14:
            if abs(d) < max(1e-10, 1e-2 * math.sqrt(max(p, 0.0))):
                continue
            raise SingularFisherError(
                f"class {c} has probability {p!r} but derivative {d!r} at theta={theta}"
            )
        total += d * d / p
    return total


# Computed class probabilities, by rotation or by Fourier sum, carry absolute
# rounding of up to about 3e-15 (measured on dual-Fock n <= 4 and the
# four-photon ensembles), which d^2/p magnifies next to a zero of p; a mere
# liveness cut, even at p = 1e-8, overshoots the flat two-photon maximum of 4
# by 8e-8.  Adding this bound to every denominator means rounding can only
# lower the information, and a class within it of zero counts as dead.  Where
# a maximum sits at a zero of a class probability, F = F0 - c theta^2 there,
# and the bound costs at most 4 sqrt(c * bound), about 4e-7 for the two-photon
# families, and digs a crater into F that Newton steps would fall into.
_ROUNDING = 1e-14


def _basis(harmonics: Sequence[int], thetas: np.ndarray) -> np.ndarray:
    """Rows [1, cos(k1 t), sin(k1 t), cos(k2 t), sin(k2 t), ...]."""
    rows = [np.ones_like(thetas)]
    for k in harmonics:
        rows.append(np.cos(k * thetas))
        rows.append(np.sin(k * thetas))
    return np.array(rows)


def _derivative(coeff: np.ndarray, harmonics: Sequence[int]) -> np.ndarray:
    """Fourier rows of the phase derivative: (a_k, b_k) -> (k b_k, -k a_k)."""
    k = np.asarray(harmonics, dtype=float)
    out = np.zeros_like(coeff)
    out[..., 1::2], out[..., 2::2] = k * coeff[..., 2::2], -k * coeff[..., 1::2]
    return out


def _information(p: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Sum over classes (axis -2) of d^2 / (p + _ROUNDING), live classes
    only, overwriting ``p`` and ``d``.  In place because a bootstrap's scan
    holds (trials, classes, 256) of each, and three more such arrays at once
    took the heap past the size at which malloc hands it back to the system
    after every call, so that the next call faulted it in again."""
    dead = ~(p > _ROUNDING)
    p += _ROUNDING
    p[dead] = 1.0
    d *= d
    d /= p
    d[dead] = 0.0
    return d.sum(axis=-2)


def _polish(
    coeff: np.ndarray, harmonics: Sequence[int], theta: np.ndarray, window: tuple
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """At most six Newton steps on F = sum d^2 / P, P = p + _ROUNDING, from
    each trial's ``theta``, clipped to its ``window``, uphill to its edge
    where F'' >= 0.  A class adds 2 d r/P - d^3/P^2 to F' and 2 (r^2 + d s)/P
    - 5 d^2 r/P^2 + 2 d^4/P^3 to F'', r and s being p'' and p'''.  Returns
    the phases, F there, and whether each trial finished there: a next step
    of at most 1e-8 (quadratic convergence leaves F within rounding of its
    local maximum), F'' < 0, and every class probability above 1e-6.  A
    trial stops where it finishes while the others step on, so its result
    does not depend on its batch.
    """
    orders = [coeff]
    for _ in range(3):
        orders.append(_derivative(orders[-1], harmonics))
    stack = np.concatenate(orders, axis=-2)  # (trials, 4 classes, coefficients)
    for steps in range(7):
        rows = stack @ _basis(harmonics, theta).T[:, :, None]
        p, d, r, s = rows.reshape(len(theta), 4, -1).transpose(1, 0, 2)
        w = np.where(p > _ROUNDING, 1.0 / (p + _ROUNDING), 0.0)
        dw = d * w
        f = (d * dw).sum(axis=-1)
        f1 = (dw * (2.0 * r - d * dw)).sum(axis=-1)
        f2 = (2.0 * (r * r + d * s) * w + dw * dw * (2.0 * d * dw - 5.0 * r)).sum(axis=-1)
        concave = f2 < 0.0
        step = np.where(concave, -f1 / np.where(concave, f2, -1.0), np.copysign(np.inf, f1))
        moved = np.clip(theta + step, *window)
        done = np.abs(moved - theta) <= 1e-8
        if steps == 6 or np.all(done):
            break
        theta = np.where(done, theta, moved)
    return theta, f, done & concave & (p.min(axis=-1) > 1e-6)


@functools.lru_cache(maxsize=64)
def _grid(harmonics: tuple[int, ...], count: int, offset: float, step: float) -> tuple[np.ndarray, np.ndarray]:
    """The phases (arange(count) + offset) * step and their basis rows,
    read-only: the Fisher scan's and ``estimation._local_minima``'s."""
    grid = (np.arange(count) + offset) * step
    basis = _basis(harmonics, grid)
    grid.flags.writeable = basis.flags.writeable = False
    return grid, basis


# The phase window of every Fisher maximum.  Rotations about one axis
# commute, so R(theta + pi) = R(pi) R(theta), and R(pi) swaps the two paths,
# which leaves each |n1 - n2| class unchanged: every class probability, and
# so the information, has period pi.
_HALF_TURN = (0.0, math.pi)


# Fractions of a zoom interval at which it is sampled.
_ZOOM = np.arange(129) / 128


def _maximize_fourier_fisher(
    coeff: np.ndarray, harmonics: Sequence[int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Maximum over the period (0, pi) of the exact information of Fourier
    class rows, for each trial of ``coeff`` (trials, classes, coefficients).

    A 256-cell midpoint scan, one product of the value and derivative rows
    with the basis, picks the first cell within 1e-12 of its maximum, so of
    mirror maxima (theta, pi - theta) the lower is reported whatever the
    last bits say.  ``_polish`` steps from there; its point is kept where it
    beats the scan.  A trial it does not finish, with a maximum at a zero of
    a class probability (zeta = 0, or a fitted class on a wall), takes three
    nested zooms from its cell instead: 129 points over one spacing of the
    previous level either side, within the period.  Every step is per trial,
    so a trial's maximum is the same bits alone and in any batch.  Returns
    the grid, the scan values (trials, 256), argmaxes and maxima.
    """
    lo, hi = _HALF_TURN
    h = (hi - lo) / 256
    grid, basis = _grid(tuple(harmonics), 256, 0.5, h)
    n = coeff.shape[-2]
    rows = np.concatenate([coeff, _derivative(coeff, harmonics)], axis=-2) @ basis
    values = _information(rows[:, :n], rows[:, n:])
    i = np.argmax(values >= values.max(axis=1, keepdims=True) * (1.0 - 1e-12), axis=1)
    theta_star, f_star = grid[i], values[np.arange(len(coeff)), i]
    window = (np.maximum(lo, theta_star - h), np.minimum(hi, theta_star + h))
    theta, f, finished = _polish(coeff, harmonics, theta_star, window)
    better = finished & (f > f_star)
    theta_star, f_star = np.where(better, theta, theta_star), np.where(better, f, f_star)
    redo = np.flatnonzero(~finished)
    k = np.asarray(harmonics, dtype=float)[:, None]
    c0, a, b = coeff[redo, :, :1], coeff[redo, :, 1::2], coeff[redo, :, 2::2]
    for level in range(3 if redo.size else 0):
        half = h / 64.0**level
        start = np.maximum(lo, theta_star[redo] - half)
        zoom = start[:, None] + (np.minimum(hi, theta_star[redo] + half) - start)[:, None] * _ZOOM
        cos, sin = np.cos(k * zoom[:, None, :]), np.sin(k * zoom[:, None, :])
        zoom_values = _information(c0 + a @ cos + b @ sin, b @ (k * cos) - a @ (k * sin))
        j = np.argmax(zoom_values, axis=1)
        better = zoom_values[np.arange(redo.size), j] > f_star[redo]
        theta_star[redo[better]] = zoom[better, j[better]]
        f_star[redo[better]] = zoom_values[better, j[better]]
    return grid, values, theta_star, f_star


def _fisher_report(maxima: tuple, n_photons: int) -> FisherReport:
    """``FisherReport`` of the first trial of ``_maximize_fourier_fisher``'s
    ``maxima``."""
    grid, values, theta_star, f_star = maxima
    return FisherReport(
        theta_grid=tuple(grid.tolist()),
        fisher_values=tuple(values[0].tolist()),
        max_fisher=float(f_star[0]),
        argmax_theta=float(theta_star[0]),
        per_photon=float(f_star[0]) / n_photons,
    )


def _family_coefficients(family: FringeFamily) -> tuple[np.ndarray, tuple[int, ...]]:
    """Fourier rows of the class probabilities, exact from 2N + 1 phases.

    Each class probability is a trigonometric polynomial of degree at most
    N = ``family.n_photons``, so its samples at 2N + 1 equally spaced phases
    fix its coefficients for harmonics 1..N without aliasing.  Returns the
    rows [c0, cos 1, sin 1, ..., cos N, sin N] in ``family.classes`` order
    with the harmonics 1..N; ``_basis`` evaluates them at any phase.  One
    evaluator call over these 2N + 1 phases is the only one that
    ``maximize_fisher`` and ``fringe_probabilities`` make.  Keep it one call
    over exactly these phases: a ``PathSectors`` evaluator's bits at a phase
    depend on how many phases share its call, so these 2N + 1 phases fix the
    bits that ``fringe_probabilities``, and every simulated count, see.
    """
    m = 2 * family.n_photons + 1
    thetas = 2.0 * math.pi * np.arange(m) / m
    probs = np.asarray(family.evaluator(thetas), dtype=float).T
    if not np.all(np.isfinite(probs)):
        raise ValueError("non-finite class probability in the fringe family")
    harmonics = tuple(range(1, family.n_photons + 1))
    coeff = probs @ _basis(harmonics, thetas).T * (2.0 / m)
    coeff[:, 0] /= 2.0
    return coeff, harmonics


def fringe_probabilities(family: FringeFamily, thetas: Sequence[float]) -> np.ndarray:
    """Class probabilities at every phase, shaped (phases, classes).

    The family is evaluated only at the 2N + 1 phases of
    ``_family_coefficients``, and the exact Fourier series is summed at
    ``thetas`` in one product, so the cost hardly grows with the number of
    phases.  The sum carries rounding of order 1e-16 where a class
    probability vanishes; values within ``_ROUNDING`` of zero are set to
    exactly zero, so that a vanishing class takes no Poisson draw, and
    anything lower raises ValueError as a defect of the family, as does a
    value that is not finite, at a phase that the top harmonic carries past
    the float range.  Columns follow ``family.classes``.
    """
    coeff, harmonics = _family_coefficients(family)
    thetas = np.asarray(thetas, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        probs = (coeff @ _basis(harmonics, thetas)).T
    finite = np.isfinite(probs).all(axis=1)
    if not finite.all():
        raise ValueError(f"class probability is not finite at phase {float(thetas[np.argmin(finite)])!r}")
    if np.any(probs < -_ROUNDING):
        raise ValueError(
            f"class probability {probs.min()!r} is negative beyond rounding "
            "in the fringe family"
        )
    return np.where(probs > _ROUNDING, probs, 0.0)


def maximize_fisher(family: FringeFamily) -> FisherReport:
    """Exact maximum over the period (0, pi) of the Fisher information of
    ``family``.

    The class probabilities are rebuilt exactly as Fourier series from
    2N + 1 evaluations; the information sum d^2/p is scanned on a phase grid
    and polished by Newton steps on its exact derivatives.  Rounding is kept
    from inflating the information next to a zero of a class probability
    (see ``_ROUNDING``), where nested zooms replace the Newton steps.
    """
    coeff, harmonics = _family_coefficients(family)
    return _fisher_report(_maximize_fourier_fisher(coeff[None], harmonics), family.n_photons)


def small_angle_fisher(n: int, indist: float) -> float:
    """Zero-phase Fisher information 2(n + I n^2) of an |n,n> probe."""
    if n != int(n) or n < 1:
        raise ValueError("n must be a positive integer")
    indist = _fraction("indist", indist)
    n = int(n)
    return 2.0 * (n + indist * n * n)


# ---------------------------------------------------------------------------
# Fringe families.


def _mixed_family(columns: Callable, classes: tuple[int, ...], n: int, zeta: float) -> FringeFamily:
    """Family whose evaluator mixes background fraction ``zeta`` into the
    class columns ``columns(thetas)``, a dict, and stacks them in ``classes`` order."""

    def evaluate(thetas: np.ndarray) -> np.ndarray:
        mixed = add_background(columns(thetas), zeta)
        return np.column_stack([mixed[c] for c in classes])

    return FringeFamily(evaluator=evaluate, classes=classes, n_photons=n)


def two_photon_family(iprime: float, zeta: float) -> FringeFamily:
    """Closed-form two-photon |delta| fringes with uniform background mixing."""
    iprime, zeta = _fraction("iprime", iprime), _zeta(zeta)

    def columns(thetas: np.ndarray) -> dict[int, np.ndarray]:
        c = np.cos(2.0 * np.asarray(thetas, dtype=float))
        return {0: (3.0 - iprime + (1.0 + iprime) * c) / 4.0, 2: (1.0 + iprime) * (1.0 - c) / 4.0}

    return _mixed_family(columns, (0, 2), 2, zeta)


def counting_family(probe: MultimodeFockState | StateEnsemble, zeta: float = 0.0) -> FringeFamily:
    """Fringe family of a probe: rotate, count into |n1 - n2| classes, mix
    background.

    The probe is grouped into photon-number sectors once, here
    (``fock.PathSectors``).  Each evaluator call rotates every sector at all
    of its phases in one array pass and mixes the background into the class
    columns.  ``fock.apply_path_rotation`` is the one-phase reference that
    the tests check the rotation against.  ``zeta`` is checked here, before
    any rotation.
    """
    zeta = _zeta(zeta)
    sectors = PathSectors(probe)
    n = sectors.n_photons
    classes = tuple(range(n % 2, n + 1, 2))

    def columns(thetas: np.ndarray) -> dict[int, np.ndarray]:
        return dict(zip(classes, sectors.class_probabilities(thetas).T))

    return _mixed_family(columns, classes, n, zeta)


# ---------------------------------------------------------------------------
# Optimal two-photon operating point under background noise.


def optimal_theta(iprime: float, zeta: float) -> float:
    """Phase of highest two-photon sensitivity under background fraction zeta.

    Closed form arctan(((zeta^2 - 2 zeta)/(iprime^2 (zeta-1)^2 - 1))^(1/4)).
    At iprime = 1 with zeta = 0 the information is phase-independent (the
    0/0 corner); the zeta -> 0 limit pi/4 is returned there.
    """
    iprime, zeta = _fraction("iprime", iprime), _zeta(zeta)
    num = zeta * zeta - 2.0 * zeta
    den = iprime * iprime * (zeta - 1.0) ** 2 - 1.0
    if den == 0.0:
        return math.pi / 4.0
    return math.atan((num / den) ** 0.25)


@dataclass(frozen=True)
class OptimalFisherResult:
    """Maximized two-photon Fisher information with its closed-form cross-check.

    The value is defined by direct numeric maximization; the closed-form
    expression 2 + 2 I'(zeta-1)^2 +- 2 sqrt(zeta(zeta-2)[I'^2 (zeta-1)^2 - 1])
    is evaluated under both square-root branch readings and the matching
    branch is reported (the radicand is a product of two nonpositive factors,
    so the two readings differ by the sign of the root).
    """

    value: float
    theta: float
    closed_form_negative_branch: float
    closed_form_principal_branch: float
    matched_branch: str


def optimal_fisher_two_photon(iprime: float, zeta: float) -> OptimalFisherResult:
    """Maximum over phase of the two-photon Fisher information.

    For zeta > 0 the maximum is interior and found by ``maximize_fisher``,
    which reports the lower of the mirror maxima theta and pi - theta.  For
    zeta = 0 the supremum is the zero-phase limit 2(1 + iprime), where the
    distinguishable class probability vanishes and the rounding guard holds
    a numeric maximum about 4e-7 below it (see ``_ROUNDING``); the analytic
    limit is returned and the numeric route, nested zooms there, is
    exercised against it in the tests.
    """
    family = two_photon_family(iprime, zeta)
    root2 = zeta * (zeta - 2.0) * (iprime * iprime * (zeta - 1.0) ** 2 - 1.0)
    root = math.sqrt(max(root2, 0.0))
    base = 2.0 + 2.0 * iprime * (zeta - 1.0) ** 2
    principal = base + 2.0 * root
    negative = base - 2.0 * root

    if zeta == 0.0:
        value, theta = 2.0 * (1.0 + iprime), 0.0
    else:
        report = maximize_fisher(family)
        value, theta = report.max_fisher, report.argmax_theta

    tol = 1e-6 * max(1.0, abs(value))
    near_neg = abs(value - negative) <= tol
    near_pos = abs(value - principal) <= tol
    if near_neg and near_pos:
        matched = "both"
    elif near_neg:
        matched = "negative"
    elif near_pos:
        matched = "principal"
    else:
        matched = "neither"
    return OptimalFisherResult(
        value=float(value),
        theta=float(theta),
        closed_form_negative_branch=negative,
        closed_form_principal_branch=principal,
        matched_branch=matched,
    )


def predicted_fprime_curve(iprimes: Sequence[float], zeta: float) -> np.ndarray:
    """Per-photon optimal Fisher information over a grid of exchange
    symmetries: the closed form's negative branch, halved.  It shares no code
    with the phase maximiser; ``optimal_fisher_two_photon`` checks the two."""
    for iprime in iprimes:
        _fraction("iprime", iprime)
    zeta = _zeta(zeta)
    ip = np.asarray(iprimes, dtype=float)
    radicand = zeta * (zeta - 2.0) * (ip * ip * (zeta - 1.0) ** 2 - 1.0)
    return 1.0 + ip * (zeta - 1.0) ** 2 - np.sqrt(np.maximum(radicand, 0.0))


# ---------------------------------------------------------------------------
# Four-photon spectral-purity relations and predictions.


def _lambda4(lam4: float) -> float:
    """``lam4`` as a float; a ValueError unless it is a purity in (0, 1]."""
    lam4 = float(lam4)
    if not 0.0 < lam4 <= 1.0:
        raise ValueError(f"lambda4 {lam4} outside (0, 1]")
    return lam4


def p4_from_lambda4(lam4: float) -> float:
    """Balanced-point probability of all four photons bunching, from purity."""
    lam4 = _lambda4(lam4)
    return (2.0 * lam4 + 1.0) / (2.0 * lam4 + 2.0)


def lambda4_from_p4(p4: float) -> float:
    """Spectral purity from the balanced-point four-photon bunching probability.

    Inverse of p4 = (2 L + 1)/(2 L + 2), i.e. L = (2 p4 - 1)/(2 - 2 p4);
    p4 ranges over [1/2, 3/4] as the purity spans [0, 1].
    """
    p4 = float(p4)
    if not 0.5 <= p4 <= 0.75:
        raise ValueError(f"p4 {p4} outside the reachable range [0.5, 0.75]")
    return (2.0 * p4 - 1.0) / (2.0 - 2.0 * p4)


def four_photon_pair_ensemble(lam4: float, cross_overlap: float) -> StateEnsemble:
    """Purity-weighted mixture equivalent of the four-photon Schmidt probe.

    Weight 2 L/(1+L) on a double pair in a single internal mode and
    (1-L)/(1+L) on two pairs in distinct modes, each pair with path-mode
    overlap ``cross_overlap``.  Counting statistics of the full Schmidt-state
    expansion depend on the spectrum only through L, so this mixture
    reproduces them exactly (verified against the expansion in the tests).
    """
    lam4 = _lambda4(lam4)
    cross_overlap = _fraction("cross_overlap", cross_overlap)
    tau2 = cross_overlap**2
    w_single = 2.0 * lam4 / (1.0 + lam4)
    components: list[tuple[float, MultimodeFockState]] = [
        (w_single, dual_fock_mismatched(2, tau2))
    ]
    if lam4 < 1.0:
        components.append(((1.0 - lam4) / (1.0 + lam4), two_distinct_pairs(cross_overlap)))
    return StateEnsemble(tuple(components))


@functools.cache
def _four_photon_tables() -> np.ndarray:
    """Read-only Fourier rows, without background, of the double pair and the
    distinct pairs at overlap 1 and 0: (2, 2, 3 classes, 9 coefficients)."""
    states = [(dual_fock_mismatched(2, tau * tau), two_distinct_pairs(tau)) for tau in (1.0, 0.0)]
    table = np.array([[_family_coefficients(counting_family(s, 0.0))[0] for s in pair] for pair in states])
    table.flags.writeable = False
    return table


def predict_four_photon_extremes(lam4: float, zeta: float) -> tuple[float, float]:
    """Per-photon Fisher information at full and zero mode overlap.

    The purity weights, the uniform background over the three |delta|
    classes and the Fourier map are linear: each overlap's class rows are
    (1 - zeta) times the weighted sum of its cached component rows plus
    zeta/3 on c0, maximized over phase in (0, pi) in one batched call.
    """
    zeta = _zeta(zeta)
    lam4 = _lambda4(lam4)
    table = _four_photon_tables()
    coeff = (1.0 - zeta) * (2.0 * lam4 / (1.0 + lam4) * table[:, 0] + (1.0 - lam4) / (1.0 + lam4) * table[:, 1])
    coeff[..., 0] += zeta / 3.0
    f_star = _maximize_fourier_fisher(coeff, (1, 2, 3, 4))[3]
    return float(f_star[0]) / 4.0, float(f_star[1]) / 4.0
