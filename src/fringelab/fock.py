"""Multimode bosonic states on two interferometer paths.

States are sparse superpositions of occupation configurations.  A mode is a
(path, internal) pair: path is 1 or 2, internal indexes an orthonormal
internal (e.g. spectral) mode.  A configuration maps modes to photon counts;
the total photon number is fixed across the superposition.

The creation-operator polynomial picture is used throughout: a configuration
with counts ``n_m`` corresponds to the monomial ``prod_m (a_m^dag)^{n_m}``,
and the normalized ket carries an extra ``sqrt(prod_m n_m!)``.  Beamsplitter
evolution is a substitution on the operators followed by re-collection of
monomials, which is exact for any photon number.
"""

from __future__ import annotations


import functools
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ResourceLimitError

# Occupation configuration: sorted tuple of (path, internal, count), count > 0.
Occupation = tuple[tuple[int, int, int], ...]

MAX_PHOTONS = 8
MAX_MODE_LABELS = 24

_NORM_TOL = 1e-10


def _fraction(name: str, value: float) -> float:
    """``value`` as a float; a ValueError, naming it ``name``, unless it is in
    [0, 1].  The message shows ``value`` as the caller passed it."""
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} {value} outside [0, 1]")
    return float(value)


def _whole(value, message: str, *args, least: float = -math.inf) -> int:
    """``value`` as an int; a ValueError with ``message.format(*args)`` unless it
    is a whole number of at least ``least``.  A non-number keeps int()'s TypeError."""
    try:
        whole = int(value)
    except (ValueError, OverflowError):
        whole = None
    if whole is None or whole != value or whole < least:
        raise ValueError(message.format(*args))
    return whole


def _photon_limit(n: int) -> None:
    if n > MAX_PHOTONS:
        raise ResourceLimitError(f"{n} photons exceeds the supported {MAX_PHOTONS}")


def _canonical(entries: Iterable[tuple[int, int, int]]) -> Occupation:
    return tuple(sorted((int(p), int(i), int(c)) for p, i, c in entries if c != 0))


def _sqrt_factorials(occ: Occupation) -> float:
    out = 1.0
    for _, _, count in occ:
        out *= math.factorial(count)
    return math.sqrt(out)


@dataclass(frozen=True)
class MultimodeFockState:
    """Normalized superposition of photon-number configurations.

    Parameters
    ----------
    amplitudes : mapping from occupation configuration to complex amplitude.
        Keys are tuples of (path, internal, count) triples, sorted, with
        positive counts.  Pass any mapping; it is canonicalized and copied.
    """

    amplitudes: dict[Occupation, complex] = field(repr=False)

    def __post_init__(self) -> None:
        clean: dict[Occupation, complex] = {}
        bad = "paths, internal indices and counts must be integers, got {}"
        for occ, amp in self.amplitudes.items():
            key = _canonical([_whole(v, bad, occ) for v in entry] for entry in occ)
            amp = complex(amp)
            if amp != 0:
                clean[key] = clean.get(key, 0.0) + amp
        if not clean:
            raise ValueError("state has no nonzero amplitude")
        totals = {sum(c for _, _, c in occ) for occ in clean}
        if len(totals) != 1:
            raise ValueError(f"occupations mix photon numbers: {sorted(totals)}")
        n = totals.pop()
        _photon_limit(n)
        labels = {(p, i) for occ in clean for p, i, _ in occ}
        if len(labels) > MAX_MODE_LABELS:
            raise ResourceLimitError(
                f"{len(labels)} mode labels exceed the supported {MAX_MODE_LABELS}"
            )
        for p, i, c in (t for occ in clean for t in occ):
            if p not in (1, 2):
                raise ValueError(f"path must be 1 or 2, got {p}")
            if i < 0 or c < 0:
                raise ValueError("internal index and count must be nonnegative")
        norm2 = sum(abs(a) ** 2 for a in clean.values())
        if not abs(norm2 - 1.0) <= _NORM_TOL:
            raise ValueError(f"state norm^2 = {norm2!r} is not 1")
        object.__setattr__(self, "amplitudes", clean)
        object.__setattr__(self, "_n", n)

    @property
    def total_photons(self) -> int:
        return self._n  # type: ignore[attr-defined]

    def path_totals(self, occ: Occupation) -> tuple[int, int]:
        n1 = sum(c for p, _, c in occ if p == 1)
        return n1, self.total_photons - n1


@dataclass(frozen=True)
class StateEnsemble:
    """Convex mixture of pure states of one photon number; weights sum to one."""

    components: tuple[tuple[float, MultimodeFockState], ...]

    def __post_init__(self) -> None:
        comps = tuple((float(w), s) for w, s in self.components)
        if not comps:
            raise ValueError("ensemble must have at least one component")
        for w, _ in comps:
            if not 0 < w <= 1:
                raise ValueError(f"component weight {w} outside (0, 1]")
        total = sum(w for w, _ in comps)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"ensemble weights sum to {total!r}, not 1")
        if len({s.total_photons for _, s in comps}) != 1:
            raise ValueError("ensemble components have different photon numbers")
        object.__setattr__(self, "components", comps)

    @property
    def total_photons(self) -> int:
        return self.components[0][1].total_photons


# ---------------------------------------------------------------------------
# Creation-operator polynomial helpers.  A polynomial maps an occupation
# (interpreted as an operator monomial, no factorials) to a coefficient.


def _poly_to_amplitudes(poly: Mapping[Occupation, complex]) -> dict[Occupation, complex]:
    return {occ: coeff * _sqrt_factorials(occ) for occ, coeff in poly.items() if coeff != 0}


def _poly_mul(
    p: Mapping[Occupation, complex], q: Mapping[Occupation, complex]
) -> dict[Occupation, complex]:
    out: dict[Occupation, complex] = {}
    for occ_p, cp in p.items():
        counts = {(pp, ii): cc for pp, ii, cc in occ_p}
        for occ_q, cq in q.items():
            merged = dict(counts)
            for pp, ii, cc in occ_q:
                merged[(pp, ii)] = merged.get((pp, ii), 0) + cc
            key = _canonical((pp, ii, cc) for (pp, ii), cc in merged.items())
            out[key] = out.get(key, 0.0) + cp * cq
    return out


def state_from_poly(poly: Mapping[Occupation, complex]) -> MultimodeFockState:
    """Normalize an operator polynomial applied to vacuum into a state."""
    amps = _poly_to_amplitudes(poly)
    norm = math.sqrt(sum(abs(a) ** 2 for a in amps.values()))
    if norm == 0:
        raise ValueError("polynomial annihilates the vacuum")
    return MultimodeFockState({occ: a / norm for occ, a in amps.items()})


def apply_path_rotation(state: MultimodeFockState, theta: float) -> MultimodeFockState:
    """Rotate the two paths by theta, identically for every internal mode.

    Uses the half-angle convention
        a1i -> cos(theta/2) a1i + sin(theta/2) a2i
        a2i -> -sin(theta/2) a1i + cos(theta/2) a2i
    so a two-photon coincidence fringe oscillates as cos(2*theta) and
    theta = pi/2 is the balanced 50:50 point.  Each creation operator is
    substituted and the monomials are multiplied out: the one-state,
    one-phase reference for ``PathSectors``, which rotates at many phases.
    """
    theta = float(theta)
    if not math.isfinite(theta):
        raise ValueError("theta must be finite")
    c, s = math.cos(0.5 * theta), math.sin(0.5 * theta)
    images = {1: (c, s), 2: (-s, c)}  # path -> coefficients of (a1i, a2i)
    result: dict[Occupation, complex] = {}
    for occ, amp in state.amplitudes.items():
        poly: dict[Occupation, complex] = {(): amp / _sqrt_factorials(occ)}
        for p, i, cnt in occ:
            image = dict(zip((((1, i, 1),), ((2, i, 1),)), images[p]))
            for _ in range(cnt):
                poly = _poly_mul(poly, image)
        for key, coeff in poly.items():
            result[key] = result.get(key, 0.0) + coeff
    return MultimodeFockState(_poly_to_amplitudes(result))


# ---------------------------------------------------------------------------
# Rotation at many phases at once.  The rotation keeps the photon total of
# each internal mode, so amplitudes whose per-mode totals differ never
# interfere: they form incoherent sectors.  Within a sector the rotation is a
# tensor product of one (n+1) x (n+1) matrix per mode, a Wigner d-matrix in
# the basis of that mode's path-1 count (Campos, Saleh & Teich, Phys. Rev. A
# 40, 1371 (1989)).


@functools.lru_cache(maxsize=None)
def _rotation_table(n: int) -> np.ndarray:
    """t[k, l, a] with U[k, l] = sum_a t[k, l, a] cos^a(theta/2) sin^(n-a)(theta/2),
    the amplitude of k of a mode's n photons on path 1 after rotating l there:
    its path-1 operators give c^j s^(l-j), its path-2 ones (-s)^m c^(n-l-m)."""
    f = [math.factorial(i) for i in range(n + 1)]
    t = np.zeros((n + 1, n + 1, n + 1))
    for l in range(n + 1):
        for j in range(l + 1):
            for m in range(n - l + 1):
                k = j + m
                norm = math.sqrt(f[k] * f[n - k] / (f[l] * f[n - l]))
                t[k, l, j + n - l - m] += (-1) ** m * math.comb(l, j) * math.comb(n - l, m) * norm
    t.setflags(write=False)  # shared by every caller through the cache
    return t


class PathSectors:
    """A Fock probe grouped once into sectors, to rotate at many phases.

    A sector holds the amplitudes of one pure component whose occupied
    internal modes carry one set of photon totals, as a dense tensor indexed
    by each mode's path-1 count.  Modes are ordered by their totals, so that
    sectors of one shape stack into one block.  Sectors and components add
    incoherently, so a component's amplitudes are scaled by the square root
    of its weight.
    """

    def __init__(self, probe: MultimodeFockState | StateEnsemble) -> None:
        components = probe.components if isinstance(probe, StateEnsemble) else ((1.0, probe),)
        n = self.n_photons = probe.total_photons
        sectors: dict[tuple, np.ndarray] = {}
        for index, (weight, state) in enumerate(components):
            for occ, amp in state.amplitudes.items():
                per_mode: dict[int, list[int]] = {}
                for p, i, cnt in occ:
                    per_mode.setdefault(i, [0, 0])[p - 1] = cnt
                modes = sorted(per_mode.items(), key=lambda m: (sum(m[1]), m[0]))
                key = (index, *((i, n1 + n2) for i, (n1, n2) in modes))
                if key not in sectors:
                    sectors[key] = np.zeros([sum(m[1]) + 1 for m in modes], dtype=complex)
                sectors[key][tuple(n1 for _, (n1, _) in modes)] = math.sqrt(weight) * amp
        stacks: dict[tuple[int, ...], list[np.ndarray]] = {}
        for tensor in sectors.values():
            stacks.setdefault(tuple(d - 1 for d in tensor.shape), []).append(tensor)
        # Per block: the mode totals, the stacked tensors, and a 0/1 matrix
        # taking each pattern of path-1 counts to its |n1 - n2| class.
        self.blocks = []
        for totals, tensors in sorted(stacks.items()):
            path1 = sum(np.ix_(*(np.arange(t + 1) for t in totals))).ravel()
            indicator = np.abs(2 * path1 - n)[:, None] // 2 == np.arange(n // 2 + 1)
            self.blocks.append((totals, np.stack(tensors), indicator.astype(float)))

    def class_probabilities(self, thetas) -> np.ndarray:
        """|n1 - n2| class probabilities, shaped (phases, classes) with the
        classes increasing.  Each block is contracted with one rotation
        matrix per mode, for every phase at once."""
        thetas = np.asarray(thetas, dtype=float)
        if thetas.ndim != 1 or not np.all(np.isfinite(thetas)):
            raise ValueError("thetas must be a 1-D array of finite phases")
        powers = np.arange(self.n_photons + 1)
        cpow, spow = np.cos(0.5 * thetas)[:, None] ** powers, np.sin(0.5 * thetas)[:, None] ** powers
        matrices = {
            n: np.einsum("kla,pa->pkl", _rotation_table(n), cpow[:, : n + 1] * spow[:, n::-1])
            for n in {n for totals, _, _ in self.blocks for n in totals}
        }
        probs = np.zeros((len(thetas), self.n_photons // 2 + 1))
        for totals, tensors, indicator in self.blocks:
            # Contract the last mode axis and put its new axis first among
            # the mode axes; after every mode the original order is back.
            out = np.einsum("pkl,s...l->psk...", matrices[totals[-1]], tensors)
            for n in reversed(totals[:-1]):
                out = np.einsum("pkl,ps...l->psk...", matrices[n], out)
            weights = (out.real**2 + out.imag**2).sum(axis=1).reshape(len(thetas), -1)
            probs += weights @ indicator
        return probs


# ---------------------------------------------------------------------------
# Probe-state constructors.


def dual_fock_mismatched(n: int, indist: float) -> MultimodeFockState:
    """|n> in path 1 and |n> in path 2 with squared mode overlap ``indist``.

    The path-2 photons occupy a mode with overlap sqrt(indist) onto the
    path-1 mode (internal label 0) and the rest on an orthogonal mode
    (internal label 1); the binomial amplitude decomposition is exact.
    """
    n = _whole(n, "n must be a positive integer", least=1)
    indist = _fraction("indist", indist)
    _photon_limit(2 * n)
    amps: dict[Occupation, complex] = {}
    for k in range(n + 1):
        weight = math.comb(n, n - k) * indist ** (n - k) * (1.0 - indist) ** k
        if weight == 0.0:
            continue
        occ = _canonical([(1, 0, n), (2, 0, n - k), (2, 1, k)])
        amps[occ] = math.sqrt(weight)
    return MultimodeFockState(amps)


def spdc_two_photon(iprime: float) -> MultimodeFockState:
    """Canonical two-photon state with exchange symmetry ``iprime``: the
    n = 1 dual-Fock probe ``dual_fock_mismatched(1, iprime)``.

    One photon in path 1 (internal mode 0); the path-2 photon is in the
    superposition sqrt(iprime)*mode0 + sqrt(1-iprime)*mode1, so the balanced
    coincidence probability is (1 - iprime)/2.
    """
    return dual_fock_mismatched(1, _fraction("iprime", iprime))


def _pair(i: int, tau: float) -> dict[Occupation, complex]:
    """Photon pair a1[f_i] (tau a2[f_i] + sqrt(1-tau^2) a2[f_i_perp]) as a
    polynomial without its zero terms; f_i -> 2i, f_i_perp -> 2i+1."""
    terms = {
        _canonical([(1, 2 * i, 1), (2, 2 * i, 1)]): tau,
        _canonical([(1, 2 * i, 1), (2, 2 * i + 1, 1)]): math.sqrt(max(0.0, 1.0 - tau * tau)),
    }
    return {occ: amp for occ, amp in terms.items() if amp != 0.0}


def four_photon_schmidt(
    lambdas: Sequence[float], cross_overlap: float
) -> MultimodeFockState:
    """Four-photon state from a squared sum of mode-paired photon pairs.

    Builds (sum_i lambda_i a1[f_i] a2[g_i])^2 |0> with
    g_i = tau f_i + sqrt(1-tau^2) f_i_perp, then normalizes.  Internal labels:
    f_i -> 2i, f_i_perp -> 2i+1.  For tau = 1 the pre-normalization norm is
    sqrt(2 + 2*sum_i lambda_i^4).
    """
    from .spectral import SchmidtSpectrum  # local import avoids a cycle

    spectrum = lambdas if isinstance(lambdas, SchmidtSpectrum) else SchmidtSpectrum(lambdas)
    tau = _fraction("cross_overlap", float(cross_overlap))
    if len(spectrum.lambdas) > 12:
        raise ResourceLimitError("spectra with more than 12 modes are not supported")
    pair_sum = {
        occ: lam * amp
        for i, lam in enumerate(spectrum.lambdas)
        if lam != 0.0
        for occ, amp in _pair(i, tau).items()
    }
    squared = _poly_mul(pair_sum, pair_sum)
    return state_from_poly(squared)


def two_distinct_pairs(cross_overlap: float) -> MultimodeFockState:
    """Product of two photon pairs occupying distinct internal-mode sectors.

    Each pair puts one photon in path 1 and one in path 2 with mode overlap
    ``cross_overlap`` between them; the two pairs are mutually orthogonal.
    This is the non-degenerate component of the four-photon Schmidt state.
    """
    tau = _fraction("cross_overlap", float(cross_overlap))
    return state_from_poly(_poly_mul(_pair(0, tau), _pair(1, tau)))
