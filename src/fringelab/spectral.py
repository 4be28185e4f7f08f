"""Spectral-mode bookkeeping: overlap functions, exchange symmetry, Schmidt
spectra of joint spectral amplitudes, and dip-curve fitting.

The delay-overlap function here is the Fourier cosine transform of a quartic
Gaussian, q(x) = 2*Gamma(1/4)^-1 * integral dy exp(-y^4) cos(y*x/sigma),
normalized so q(0) = 1.  It is a 120-node Gauss-Legendre sum in the scaled
delay u = |x|/sigma, evaluated, with its derivative, from piecewise Chebyshev
series that interpolate the sums to rounding.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import IllPosedError
from .fock import _fraction

_NORM = 2.0 / math.gamma(0.25)

# q(u) = 4/Gamma(1/4) * int_0^4 exp(-y^4) cos(u y) dy as a 120-node
# Gauss-Legendre sum: exp(-y^4) < 1e-111 beyond y = 4, and the nodes resolve
# cos(u y) on [0, 4] for every u up to _UMAX.  Beyond it |q| < 1.2e-10, and q
# is taken as 0.
_UMAX = 30.0
_nodes, _weights = np.polynomial.legendre.leggauss(120)
_Y = 2.0 * (_nodes + 1.0)
_W = 4.0 * _NORM * _weights * np.exp(-(_Y**4))
_WY = _W * _Y

# The sums are interpolated on _PIECES unit pieces of [0, _UMAX], each by a
# Chebyshev series of _TERMS terms (Trefethen, Approximation Theory and
# Approximation Practice, SIAM 2013), to within 6e-16 of the sums.
_PIECES, _TERMS = 30, 12


def _gauss_legendre(u: np.ndarray) -> np.ndarray:
    """q(u) and dq/du, stacked on a new first axis, as the 120-node cosine
    and sine sums at scaled delays 0 <= u <= _UMAX."""
    uy = np.multiply.outer(u, _Y)
    return np.stack([np.cos(uy) @ _W, -(np.sin(uy) @ _WY)])


@functools.cache
def _chebyshev_pieces() -> np.ndarray:
    """Coefficients (terms, 2 * pieces) of the series that interpolate the
    sums at the Chebyshev points (the roots of T_terms) of each piece, q's
    pieces first and then dq/du's; built at first use, in about 2 ms.  The
    coefficients solve the Chebyshev-Vandermonde system, which meets the
    sums at the points to rounding: the discrete cosine transform's
    rounding left the series 2e-15 off the sums near u = 0.4."""
    t = np.cos(np.pi * (np.arange(_TERMS) + 0.5) / _TERMS)
    u = (_UMAX / _PIECES) * (np.arange(_PIECES) + (t[:, None] + 1.0) / 2.0)
    values = np.moveaxis(_gauss_legendre(u), 0, 1).reshape(_TERMS, 2 * _PIECES)
    return np.linalg.solve(np.polynomial.chebyshev.chebvander(t, _TERMS - 1), values)


def _overlap(u: np.ndarray | float) -> np.ndarray:
    """q(u) and dq/du, stacked on a new first axis, at scaled delays
    u = |x|/sigma (both taken at |u| for a negative u): each piece's
    Chebyshev series summed by Clenshaw's recurrence (Math. Tables Aids
    Comput. 9, 118 (1955)) elementwise, so a u gets the same bits in any
    array shape.  Both are 0 beyond _UMAX, and at +-inf or NaN."""
    u = np.abs(np.asarray(u, dtype=float))
    inside = u <= _UMAX
    s = np.where(inside, u * (_PIECES / _UMAX), 0.0)
    piece = np.minimum(s.astype(np.intp), _PIECES - 1)
    # q and dq/du as one array of copies, so that each step of the
    # recurrence is one product of arrays of one shape, not a broadcast.
    index = np.array((piece, piece + _PIECES))
    t = 2.0 * (s - piece) - 1.0
    t = np.array((t, t))
    two_t = t + t
    table = _chebyshev_pieces()
    b1, b2 = table[-1].take(index), 0.0
    for c in table[-2:0:-1]:
        b1, b2 = two_t * b1 - b2 + c.take(index), b1
    return np.where(inside, t * b1 - b2 + table[0].take(index), 0.0)


def quartic_gaussian_overlap(x: float | np.ndarray, sigma: float) -> float | np.ndarray:
    """Delay-overlap q(x) = 2*Gamma(1/4)^-1 * int dy exp(-y^4) cos(y x/sigma).

    Even in x, equal to 1 at x = 0, and bounded by 1 in magnitude.  Evaluated
    from the Chebyshev pieces of a 120-node Gauss-Legendre sum (``_overlap``),
    within 1e-13 of adaptive quadrature; q is 0 for |x|/sigma > 30, where the
    transform is below 1.2e-10.  A float ``x`` gives a float, and an array of
    delays an array of its shape, each delay with the same bits as alone.
    """
    x = np.asarray(x, dtype=float)
    sigma = float(sigma)
    if not np.all(np.isfinite(x)):
        raise ValueError("x must be finite")
    if not (math.isfinite(sigma) and sigma > 0):
        raise ValueError("sigma must be positive and finite")
    q = _overlap(np.abs(x) / sigma)[0]
    return float(q) if x.ndim == 0 else q


def indistinguishability_from_coincidence(p_hom: float) -> float:
    """Exchange symmetry inferred from a balanced coincidence probability."""
    return 1.0 - 2.0 * _fraction("coincidence probability", float(p_hom))


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
        if not abs(total - 1.0) <= 1e-12:
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
        if not (np.isfinite(values).all() and np.isfinite(axis).all()):
            raise ValueError("grid values and axis must be finite")
        # A spacing or an amplitude past the square root of the float range
        # overflows the norm to inf, which is rejected below.
        with np.errstate(over="ignore"):
            diffs = np.diff(axis)
            if axis.size < 2 or np.any(diffs <= 0):
                raise ValueError("axis must be strictly increasing")
            step = float(diffs[0])
            if not np.allclose(diffs, step, rtol=1e-9, atol=0.0):
                raise ValueError("axis must be uniformly spaced")
            norm2 = float(np.sum(np.abs(values) ** 2)) * step * step
        if norm2 == 0.0:
            raise ValueError("grid is identically zero")
        if not math.isfinite(norm2):
            raise ValueError("grid norm overflows the float range")
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
# Dip-curve fitting by variable projection (Golub & Pereyra, SIAM J. Numer.
# Anal. 10, 413 (1973)): the model a + b*q(x/sigma) is linear in (a, b), so
# for each sigma they follow from a 2x2 weighted solve, and the fit is a
# one-dimensional problem in sigma.

def zero_delay_problem(a: float, b: float) -> str | None:
    """Why the fitted zero-delay coincidence a + b (q(0) = 1) is not a
    probability, within 1e-9 of [0, 1]; None when it is one."""
    if -1e-9 <= a + b <= 1.0 + 1e-9:
        return None
    return f"fitted zero-delay coincidence a + b = {a + b!r} is not a probability"


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
        problem = zero_delay_problem(self.a, self.b)
        if problem and not self.ill_posed:
            raise ValueError(problem)


def _linear(
    q: np.ndarray, p: np.ndarray, w: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Weighted least-squares (a, b) of p ~ a + b*q for each row of ``q``,
    and the residuals p - a - b*q.  b is 0 where a row of q is constant."""
    sw = w.sum()
    q_mean = (q @ w) / sw
    p_mean = (p @ w) / sw
    qc = q - q_mean[:, None]
    sqq = (qc * qc) @ w
    b = np.divide(qc @ (w * (p - p_mean)), sqq, out=np.zeros_like(sqq), where=sqq > 0)
    a = p_mean - b * q_mean
    return a, b, p - a[:, None] - b[:, None] * q


def fit_hom_dip(points: Sequence[tuple[float, float, float]]) -> HomDipFit:
    """Weighted least-squares fit of a + b*q(x/sigma) to coincidence data.

    For each sigma a closed-form 2x2 weighted solve gives (a, b), leaving a
    residual in sigma alone.  The data set the sigma window: from half the
    smallest to twice the largest weighted |x| off zero (every |x| off zero
    if none is weighted); below it q(x/sigma) nears 0 at every delay off
    zero, and above it 1.  The residual is scanned on log-spaced sigma, seven
    cells per decade of the window and at least 17, in one evaluation of q
    and dq/du, and Gauss-Newton steps on sigma with Kaufman's projected
    Jacobian (BIT 15, 49 (1975)) and halving backtracking refine the best
    cell until a step is at most 1e-10 sigma (``converged``; at most 100
    steps); each trial sigma takes its q and dq/du from one evaluation.  Fewer
    than three distinct weighted |x| (sigma is then the window's geometric
    mean), a rank-deficient normal matrix at the solution (for example
    b = 0, which leaves sigma free) or a fitted a + b outside [0, 1] marks
    the fit ill-posed instead of raising.  A |x| off zero outside [1e-100,
    1e100], where |x|/sigma^2 could overflow, raises IllPosedError, as does a
    |p| above 1e50 or a weight above 1e100, where a weighted sum of squares
    could.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError("points must be (x, p, weight) triples")
    if pts.shape[0] < 4:
        raise ValueError("need at least 4 points to fit (a, b, sigma)")
    if not np.all(np.isfinite(pts)):
        raise ValueError("points must be finite")
    x, p, w = pts[:, 0], pts[:, 1], pts[:, 2]
    if np.any(w < 0):
        raise ValueError("weights must be nonnegative")
    if np.ptp(x) == 0.0:
        raise IllPosedError("all points share one delay; dip shape is undetermined")

    # q depends on |x| only, so it is evaluated at the distinct |x|.
    ax, inv = np.unique(np.abs(x), return_inverse=True)
    weighted = np.bincount(inv, w) > 0
    off = ax > 0
    if not np.all((ax[off] >= 1e-100) & (ax[off] <= 1e100)):
        raise IllPosedError("every |x| off zero must lie within [1e-100, 1e100]")
    if not (np.abs(p).max() <= 1e50 and w.max() <= 1e100):
        raise IllPosedError("every |p| must be at most 1e50 and every weight at most 1e100")
    span = ax[off & weighted] if np.any(off & weighted) else ax[off]
    lo, hi = span.min() / 2.0, 2.0 * span.max()
    if np.count_nonzero(weighted) < 3:
        # Two weighted delays or fewer are fitted exactly for any sigma.
        sigma = math.sqrt(lo * hi)  # the window's geometric mean
        q = _overlap(ax / sigma)[0][inv]
        root_w = np.sqrt(w)
        (a, b), *_ = np.linalg.lstsq(np.column_stack([root_w, root_w * q]), root_w * p, rcond=None)
        residual = float(w @ (p - a - b * q) ** 2)
        return HomDipFit(a=float(a), b=float(b), sigma=sigma, residual=residual, ill_posed=True)

    def profile(sigmas: np.ndarray):
        u = ax / sigmas[:, None]
        q, dq_du = _overlap(u)
        q = q[:, inv]
        a, b, r = _linear(q, p, w)
        return a, b, (r * r) @ w, r, q, (dq_du * (-u / sigmas[:, None]))[:, inv]

    sigmas = np.geomspace(lo, hi, max(17, math.ceil(7.0 * math.log10(hi / lo))))
    scan = profile(sigmas)
    best = int(np.argmin(scan[2]))
    sigma = float(sigmas[best])
    a, b, sse, r, q, dq = (row[best] for row in scan)
    converged = False
    for _ in range(100):
        # Kaufman's Jacobian of the residual: -b dq/dsigma projected off [1, q].
        v_off = _linear(q[None], b * dq, w)[2][0]
        curvature = (v_off * v_off) @ w
        step = float(v_off @ (w * r)) / curvature if curvature > 0 else 0.0
        while abs(step) > 1e-10 * sigma:
            if sigma + step > 0:
                trial = profile(np.array([sigma + step]))
                if trial[2][0] < sse:
                    break
            step /= 2.0
        else:
            converged = True
            break
        sigma += step
        a, b, sse, r, q, dq = (row[0] for row in trial)

    jac = np.column_stack([np.ones_like(x), q, b * dq])
    normal = (jac.T * w) @ jac
    # A sigma at the edge of the float range leaves inf or nan in the matrix.
    cond = float(np.linalg.cond(normal)) if np.all(np.isfinite(normal)) else math.inf
    a, b = float(a), float(b)
    ill_posed = bool(cond > 1e10 or not np.isfinite(cond)) or zero_delay_problem(a, b) is not None
    return HomDipFit(
        a=a, b=b, sigma=sigma, residual=float(sse), ill_posed=ill_posed, converged=converged
    )
