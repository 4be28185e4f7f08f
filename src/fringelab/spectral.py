"""Spectral-mode bookkeeping: overlap functions, exchange symmetry, Schmidt
spectra of joint spectral amplitudes, and dip-curve fitting.

The delay-overlap function here is the Fourier cosine transform of a quartic
Gaussian, q(x) = 2*Gamma(1/4)^-1 * integral dy exp(-y^4) cos(y*x/sigma),
normalized so q(0) = 1.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import integrate, interpolate, special

from .errors import IllPosedError

# exp(-8^4) underflows double precision, so [0, 8] captures the integrand.
_Y_CUTOFF = 8.0
_NORM = 2.0 / special.gamma(0.25)


def quartic_gaussian_overlap(x: float, sigma: float) -> float:
    """Delay-overlap q(x) = 2*Gamma(1/4)^-1 * int dy exp(-y^4) cos(y x/sigma).

    Even in x, equal to 1 at x = 0, and bounded by 1 in magnitude.
    Evaluated by adaptive quadrature on [0, 8] with absolute tolerance 1e-10.
    """
    x = float(x)
    sigma = float(sigma)
    if not math.isfinite(x):
        raise ValueError("x must be finite")
    if not (math.isfinite(sigma) and sigma > 0):
        raise ValueError("sigma must be positive and finite")
    u = abs(x) / sigma
    if u == 0.0:
        val, _ = integrate.quad(
            lambda y: math.exp(-(y**4)), 0.0, _Y_CUTOFF, epsabs=1e-12, epsrel=1e-11
        )
    else:
        # QAWO handles the oscillatory cosine weight.
        val, _ = integrate.quad(
            lambda y: math.exp(-(y**4)),
            0.0,
            _Y_CUTOFF,
            weight="cos",
            wvar=u,
            epsabs=1e-12,
            epsrel=1e-11,
            limit=200,
        )
    return 2.0 * _NORM * val


def indistinguishability_from_coincidence(p_hom: float) -> float:
    """Exchange symmetry inferred from a balanced coincidence probability."""
    p_hom = float(p_hom)
    if not 0.0 <= p_hom <= 1.0:
        raise ValueError(f"coincidence probability {p_hom} outside [0, 1]")
    return 1.0 - 2.0 * p_hom


@dataclass(frozen=True)
class SchmidtSpectrum:
    """Schmidt coefficients, non-increasing, with squares summing to one."""

    lambdas: tuple[float, ...]

    def __init__(self, lambdas: Sequence[float]) -> None:
        lams = tuple(sorted((float(v) for v in lambdas), reverse=True))
        if not lams:
            raise ValueError("spectrum must be non-empty")
        if lams[-1] < 0:
            raise ValueError("Schmidt coefficients must be nonnegative")
        total = sum(v * v for v in lams)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"squared coefficients sum to {total!r}, not 1")
        object.__setattr__(self, "lambdas", lams)


def lambda4(spectrum: SchmidtSpectrum) -> float:
    """Fourth-power sum of the Schmidt coefficients (spectral purity)."""
    return float(sum(v**4 for v in spectrum.lambdas))


@dataclass(frozen=True)
class JsaGrid:
    """Joint spectral amplitude on a uniform square frequency grid.

    Amplitudes are normalized so sum |values|^2 * step^2 = 1.
    """

    values: np.ndarray
    axis: np.ndarray

    def __init__(self, values: np.ndarray, axis: np.ndarray) -> None:
        values = np.asarray(values, dtype=complex)
        axis = np.asarray(axis, dtype=float)
        if values.ndim != 2 or values.shape[0] != values.shape[1]:
            raise ValueError(f"grid must be square, got shape {values.shape}")
        if axis.ndim != 1 or axis.size != values.shape[0]:
            raise ValueError("axis length must match the grid side")
        diffs = np.diff(axis)
        if axis.size < 2 or np.any(diffs <= 0):
            raise ValueError("axis must be strictly increasing")
        step = diffs[0]
        if not np.allclose(diffs, step, rtol=1e-9, atol=0.0):
            raise ValueError("axis must be uniformly spaced")
        norm2 = float(np.sum(np.abs(values) ** 2)) * step**2
        if norm2 == 0.0:
            raise ValueError("grid is identically zero")
        object.__setattr__(self, "values", values / math.sqrt(norm2))
        object.__setattr__(self, "axis", axis)

    @property
    def step(self) -> float:
        return float(self.axis[1] - self.axis[0])


def double_gaussian_jsa(
    axis: Sequence[float], sum_width: float, diff_width: float, delay: float = 0.0
) -> JsaGrid:
    """Gaussian pump-times-phasematching amplitude, optionally delayed.

    Builds exp(-(w1+w2)^2/(4 sw^2)) exp(-(w1-w2)^2/(4 dw^2)) exp(-i w2 delay).
    With delay = 0 the grid is exchange symmetric.
    """
    axis = np.asarray(axis, dtype=float)
    w1 = axis[:, None]
    w2 = axis[None, :]
    env = np.exp(-((w1 + w2) ** 2) / (4.0 * sum_width**2)) * np.exp(
        -((w1 - w2) ** 2) / (4.0 * diff_width**2)
    )
    phase = np.exp(-1j * w2 * delay)
    return JsaGrid(env * phase, axis)


def exchange_symmetry(jsa: JsaGrid) -> float:
    """Overlap of the amplitude with its argument-swapped conjugate.

    Always real for a square grid; the imaginary residue is asserted below
    1e-9 to catch malformed input rather than silently discarded.
    """
    phi = jsa.values
    total = complex(np.sum(phi * np.conj(phi.T))) * jsa.step**2
    if abs(total.imag) >= 1e-9:
        raise ValueError(f"exchange overlap has imaginary residue {total.imag!r}")
    return float(total.real)


def schmidt_spectrum_of(jsa: JsaGrid) -> SchmidtSpectrum:
    """Schmidt coefficients of the grid via singular value decomposition.

    Singular values of values*step are the mode weights; modes below 1e-9
    are dust from the factorization and are dropped before renormalizing.
    """
    sv = np.linalg.svd(jsa.values * jsa.step, compute_uv=False)
    if not np.all(np.isfinite(sv)) or sv[0] == 0.0:
        raise ValueError("grid has no resolvable Schmidt modes")
    kept = sv[sv > 1e-9]
    kept = kept / math.sqrt(float(np.sum(kept**2)))
    return SchmidtSpectrum(kept.tolist())


# ---------------------------------------------------------------------------
# Dip-curve fitting: weighted least squares of a + b*q(x) with a tabulated
# overlap function (dense cubic spline of q, built once) so that iterative
# fits do not re-run adaptive quadrature per point.

_TABLE_UMAX = 30.0
_table: tuple[interpolate.CubicSpline, interpolate.CubicSpline] | None = None


def _overlap_table() -> tuple[interpolate.CubicSpline, interpolate.CubicSpline]:
    global _table
    if _table is None:
        # exp(-y^4) < 1e-111 beyond y = 4, and 120 nodes resolve cos(u y) on
        # [0, 4] for every tabulated u (5e-13 from 2000 nodes on [0, 8]).
        nodes, weights = np.polynomial.legendre.leggauss(120)
        y = 2.0 * (nodes + 1.0)
        w = 2.0 * weights * np.exp(-(y**4))
        u = np.linspace(0.0, _TABLE_UMAX, 16001)
        q = 2.0 * _NORM * (np.cos(np.outer(u, y)) @ w)
        spline = interpolate.CubicSpline(u, q)
        _table = (spline, spline.derivative())
    return _table


def _q_and_grad(x: np.ndarray, sigma: float) -> tuple[np.ndarray, np.ndarray]:
    """Tabulated q(x/sigma) and its derivative with respect to sigma."""
    spline, dspline = _overlap_table()
    u = np.abs(x) / sigma
    inside = u <= _TABLE_UMAX
    q = np.where(inside, spline(np.minimum(u, _TABLE_UMAX)), 0.0)
    dq_du = np.where(inside, dspline(np.minimum(u, _TABLE_UMAX)), 0.0)
    return q, dq_du * (-u / sigma)


@dataclass(frozen=True)
class HomDipFit:
    """Result of fitting a + b*q(x) to normalized coincidence data."""

    a: float
    b: float
    sigma: float
    residual: float
    ill_posed: bool = False
    converged: bool = True

    def __post_init__(self) -> None:
        if not self.ill_posed:
            p0 = self.a + self.b  # q(0) = 1
            if not -1e-9 <= p0 <= 1.0 + 1e-9:
                raise ValueError(
                    f"fitted zero-delay coincidence {p0!r} is not a probability"
                )

    def to_json(self) -> str:
        return json.dumps(
            {
                "a": self.a,
                "b": self.b,
                "sigma": self.sigma,
                "residual": self.residual,
                "ill_posed": self.ill_posed,
                "converged": self.converged,
            }
        )


def _gauss_newton(
    x: np.ndarray, p: np.ndarray, w: np.ndarray, start: np.ndarray
) -> tuple[np.ndarray, float, bool, float]:
    """Damped Gauss-Newton on (a, b, sigma); returns params, sse, converged, cond."""
    params = start.copy()
    params[2] = abs(params[2])

    def sse_of(q: np.ndarray, a: float, b: float) -> float:
        r = p - a - b * q
        return float(np.sum(w * r * r))

    q, dq = _q_and_grad(x, params[2])
    sse = sse_of(q, params[0], params[1])
    damping = 1e-3
    converged = False
    for _ in range(200):
        a, b, sigma = params
        r = p - a - b * q
        jac = np.column_stack([-np.ones_like(x), -q, -b * dq])
        jtw = jac.T * w
        hess = jtw @ jac
        grad = jtw @ r
        scale = np.diag(hess).copy()
        scale[scale <= 0] = 1.0
        try:
            delta = np.linalg.solve(hess + damping * np.diag(scale), -grad)
        except np.linalg.LinAlgError:
            break
        trial = params + delta
        trial[2] = abs(trial[2])
        if trial[2] < 1e-12:
            trial[2] = 1e-12
        q_trial, dq_trial = _q_and_grad(x, trial[2])
        sse_trial = sse_of(q_trial, trial[0], trial[1])
        if sse_trial <= sse:
            params, sse, q, dq = trial, sse_trial, q_trial, dq_trial
            damping = max(damping / 3.0, 1e-12)
            if float(np.linalg.norm(delta)) < 1e-10:
                converged = True
                break
        else:
            damping *= 10.0
            if damping > 1e12:
                break
    jac = np.column_stack([-np.ones_like(x), -q, -params[1] * dq])
    cond = float(np.linalg.cond((jac.T * w) @ jac))
    return params, sse, converged, cond


def fit_hom_dip(
    points: Sequence[tuple[float, float, float]],
    init: tuple[float, float, float],
    restarts: int = 20,
) -> HomDipFit:
    """Weighted least-squares fit of a + b*q(x) to coincidence data.

    Runs damped Gauss-Newton from ``init`` plus ``restarts`` multiplicatively
    perturbed starts (+-20 percent) and keeps the lowest weighted residual.
    A rank-deficient normal matrix at the solution (for example b = 0, which
    leaves sigma free) marks the fit ill-posed instead of raising.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError("points must be (x, p, weight) triples")
    if pts.shape[0] < 4:
        raise ValueError("need at least 4 points to fit (a, b, sigma)")
    x, p, w = pts[:, 0], pts[:, 1], pts[:, 2]
    if np.any(w < 0):
        raise ValueError("weights must be nonnegative")
    if np.ptp(x) == 0.0:
        raise IllPosedError("all points share one delay; dip shape is undetermined")

    start = np.asarray(init, dtype=float)
    if start.shape != (3,) or start[2] == 0.0:
        raise ValueError("init must be (a, b, sigma) with sigma != 0")

    rng = np.random.default_rng(0x0D1F)
    starts = [start]
    for _ in range(restarts):
        starts.append(start * rng.uniform(0.8, 1.2, size=3))

    best: tuple[np.ndarray, float, bool, float] | None = None
    for s in starts:
        result = _gauss_newton(x, p, w, s)
        if best is None or result[1] < best[1]:
            best = result
    assert best is not None
    params, sse, converged, cond = best
    ill_posed = bool(cond > 1e10 or not np.isfinite(cond))
    a, b, sigma = (float(v) for v in params)
    p0 = a + b
    if not ill_posed and not (-1e-9 <= p0 <= 1.0 + 1e-9):
        ill_posed = True
    return HomDipFit(
        a=a, b=b, sigma=sigma, residual=float(sse), ill_posed=ill_posed, converged=converged
    )
