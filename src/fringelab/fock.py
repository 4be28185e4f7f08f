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


import json
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .errors import ResourceLimitError

# Occupation configuration: sorted tuple of (path, internal, count), count > 0.
Occupation = tuple[tuple[int, int, int], ...]

MAX_PHOTONS = 8
MAX_MODE_LABELS = 24

_NORM_TOL = 1e-10


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
        for occ, amp in self.amplitudes.items():
            occ = _canonical(occ)
            amp = complex(amp)
            if amp != 0:
                clean[occ] = clean.get(occ, 0.0) + amp
        if not clean:
            raise ValueError("state has no nonzero amplitude")
        totals = {sum(c for _, _, c in occ) for occ in clean}
        if len(totals) != 1:
            raise ValueError(f"occupations mix photon numbers: {sorted(totals)}")
        n = totals.pop()
        if n > MAX_PHOTONS:
            raise ResourceLimitError(f"{n} photons exceeds the supported {MAX_PHOTONS}")
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
        if abs(norm2 - 1.0) > _NORM_TOL:
            raise ValueError(f"state norm^2 = {norm2!r} is not 1")
        object.__setattr__(self, "amplitudes", clean)
        object.__setattr__(self, "_n", n)

    @property
    def total_photons(self) -> int:
        return self._n  # type: ignore[attr-defined]

    def path_totals(self, occ: Occupation) -> tuple[int, int]:
        n1 = sum(c for p, _, c in occ if p == 1)
        return n1, self.total_photons - n1

    def to_json(self) -> str:
        """Serialize as a JSON list of {occupations, re, im} terms."""
        terms = []
        for occ in sorted(self.amplitudes):
            amp = self.amplitudes[occ]
            terms.append(
                {
                    "occupations": [[p, i, c] for p, i, c in occ],
                    "re": amp.real,
                    "im": amp.imag,
                }
            )
        return json.dumps(terms)

    @classmethod
    def from_json(cls, text: str) -> "MultimodeFockState":
        terms = json.loads(text)
        amps = {
            _canonical(tuple(t) for t in term["occupations"]): complex(term["re"], term["im"])
            for term in terms
        }
        return cls(amps)


@dataclass(frozen=True)
class StateEnsemble:
    """Convex mixture of pure states; weights sum to one."""

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
        object.__setattr__(self, "components", comps)


def mix(states: StateEnsemble) -> StateEnsemble:
    """Validate and pass through a convex mixture of states."""
    if not isinstance(states, StateEnsemble):
        raise ValueError("mix expects a StateEnsemble")
    return StateEnsemble(states.components)


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


def _beamsplitter_powers(
    n1: int, n2: int, c: float, s: float
) -> dict[tuple[int, int], float]:
    """Expand (c*x + s*y)^n1 (-s*x + c*y)^n2 into x^k1 y^k2 coefficients."""
    out: dict[tuple[int, int], float] = {}
    for j in range(n1 + 1):
        a = math.comb(n1, j) * c**j * s ** (n1 - j)
        for m in range(n2 + 1):
            b = math.comb(n2, m) * (-s) ** m * c ** (n2 - m)
            key = (j + m, n1 - j + n2 - m)
            out[key] = out.get(key, 0.0) + a * b
    return out


def apply_path_rotation(
    state: MultimodeFockState,
    theta: float,
    *,
    opposite_sign_internals: Sequence[int] = (),
) -> MultimodeFockState:
    """Rotate the two paths by theta, identically for every internal mode.

    Uses the half-angle convention
        a1i -> cos(theta/2) a1i + sin(theta/2) a2i
        a2i -> -sin(theta/2) a1i + cos(theta/2) a2i
    so a two-photon coincidence fringe oscillates as cos(2*theta) and
    theta = pi/2 is the balanced 50:50 point.

    ``opposite_sign_internals`` rotates the listed internal labels by -theta
    instead; path-resolved counting statistics are invariant under this
    choice (exercised in the test suite), so the default rotates everything
    the same way.
    """
    theta = float(theta)
    if not math.isfinite(theta):
        raise ValueError("theta must be finite")
    flipped = frozenset(int(i) for i in opposite_sign_internals)
    half = 0.5 * theta
    trig = {
        False: (math.cos(half), math.sin(half)),
        True: (math.cos(-half), math.sin(-half)),
    }

    result: dict[Occupation, complex] = {}
    for occ, amp in state.amplitudes.items():
        coeff = amp / _sqrt_factorials(occ)
        per_internal: dict[int, list[int]] = {}
        for p, i, cnt in occ:
            per_internal.setdefault(i, [0, 0])[p - 1] = cnt
        # Cartesian product of the per-internal-mode expansions.
        partial: list[tuple[dict[tuple[int, int], int], complex]] = [({}, coeff)]
        for i, (n1, n2) in per_internal.items():
            c, s = trig[i in flipped]
            expansion = _beamsplitter_powers(n1, n2, c, s)
            grown = []
            for counts, w in partial:
                for (k1, k2), factor in expansion.items():
                    if factor == 0.0:
                        continue
                    nxt = dict(counts)
                    if k1:
                        nxt[(1, i)] = k1
                    if k2:
                        nxt[(2, i)] = k2
                    grown.append((nxt, w * factor))
            partial = grown
        for counts, w in partial:
            key = _canonical((p, i, cc) for (p, i), cc in counts.items())
            result[key] = result.get(key, 0.0) + w

    amps = _poly_to_amplitudes(result)
    return MultimodeFockState(amps)


# ---------------------------------------------------------------------------
# Probe-state constructors.


def dual_fock_mismatched(n: int, indist: float) -> MultimodeFockState:
    """|n> in path 1 and |n> in path 2 with squared mode overlap ``indist``.

    The path-2 photons occupy a mode with overlap sqrt(indist) onto the
    path-1 mode (internal label 0) and the rest on an orthogonal mode
    (internal label 1); the binomial amplitude decomposition is exact.
    """
    n = int(n)
    if n < 1:
        raise ValueError("n must be a positive integer")
    if not 0.0 <= indist <= 1.0:
        raise ValueError(f"indist {indist} outside [0, 1]")
    amps: dict[Occupation, complex] = {}
    for k in range(n + 1):
        weight = math.comb(n, n - k) * indist ** (n - k) * (1.0 - indist) ** k
        if weight == 0.0:
            continue
        occ = _canonical([(1, 0, n), (2, 0, n - k), (2, 1, k)])
        amps[occ] = math.sqrt(weight)
    return MultimodeFockState(amps)


def spdc_two_photon(iprime: float) -> MultimodeFockState:
    """Canonical two-photon state with exchange symmetry ``iprime``.

    One photon in path 1 (internal mode 0); the path-2 photon is in the
    superposition sqrt(iprime)*mode0 + sqrt(1-iprime)*mode1, so the balanced
    coincidence probability is (1 - iprime)/2.
    """
    if not 0.0 <= iprime <= 1.0:
        raise ValueError(f"iprime {iprime} outside [0, 1]")
    amps: dict[Occupation, complex] = {}
    if iprime > 0.0:
        amps[_canonical([(1, 0, 1), (2, 0, 1)])] = math.sqrt(iprime)
    if iprime < 1.0:
        amps[_canonical([(1, 0, 1), (2, 1, 1)])] = math.sqrt(1.0 - iprime)
    return MultimodeFockState(amps)


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
    tau = float(cross_overlap)
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"cross_overlap {tau} outside [0, 1]")
    if len(spectrum.lambdas) > 12:
        raise ResourceLimitError("spectra with more than 12 modes are not supported")
    ortho = math.sqrt(max(0.0, 1.0 - tau * tau))
    # One pair-creation term per Schmidt mode: a1[f_i] (tau a2[f_i] + ortho a2[f_i_perp]).
    pair_sum: dict[Occupation, complex] = {}
    for i, lam in enumerate(spectrum.lambdas):
        if lam == 0.0:
            continue
        if tau != 0.0:
            occ = _canonical([(1, 2 * i, 1), (2, 2 * i, 1)])
            pair_sum[occ] = pair_sum.get(occ, 0.0) + lam * tau
        if ortho != 0.0:
            occ = _canonical([(1, 2 * i, 1), (2, 2 * i + 1, 1)])
            pair_sum[occ] = pair_sum.get(occ, 0.0) + lam * ortho
    squared = _poly_mul(pair_sum, pair_sum)
    return state_from_poly(squared)


def two_distinct_pairs(cross_overlap: float) -> MultimodeFockState:
    """Product of two photon pairs occupying distinct internal-mode sectors.

    Each pair puts one photon in path 1 and one in path 2 with mode overlap
    ``cross_overlap`` between them; the two pairs are mutually orthogonal.
    This is the non-degenerate component of the four-photon Schmidt state.
    """
    tau = float(cross_overlap)
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"cross_overlap {tau} outside [0, 1]")
    ortho = math.sqrt(max(0.0, 1.0 - tau * tau))
    poly: dict[Occupation, complex] = {(): 1.0}
    for i in (0, 1):
        pair: dict[Occupation, complex] = {}
        if tau != 0.0:
            pair[_canonical([(1, 2 * i, 1), (2, 2 * i, 1)])] = tau
        if ortho != 0.0:
            pair[_canonical([(1, 2 * i, 1), (2, 2 * i + 1, 1)])] = ortho
        poly = _poly_mul(poly, pair)
    return state_from_poly(poly)
