import itertools
import math

import numpy as np
import pytest

from fringelab.detection import (
    NoiseAndEfficiencyConfig,
    OutcomeDistribution,
    aggregate_by_abs_delta,
    class_efficiencies,
    multiplex_efficiency,
    outcome_distribution,
)
from fringelab.errors import ResourceLimitError
from fringelab.estimation import FringeDataset, bootstrap_errors, fit_mle
from fringelab.fock import (
    MultimodeFockState,
    PathSectors,
    StateEnsemble,
    apply_path_rotation,
    dual_fock_mismatched,
    four_photon_schmidt,
    spdc_two_photon,
    state_from_poly,
    two_distinct_pairs,
)
from fringelab.metrology import small_angle_fisher
from fringelab.spectral import SchmidtSpectrum


def amp(state, occ):
    return state.amplitudes.get(tuple(sorted(occ)), 0.0)


def random_state(rng, n_photons, n_internal=3):
    """Random normalized superposition over a handful of configurations."""
    labels = [(p, i) for p in (1, 2) for i in range(n_internal)]
    amps = {}
    for _ in range(rng.integers(2, 7)):
        counts = {}
        for _ in range(n_photons):
            p, i = labels[rng.integers(len(labels))]
            counts[(p, i)] = counts.get((p, i), 0) + 1
        occ = tuple(sorted((p, i, c) for (p, i), c in counts.items()))
        amps[occ] = complex(rng.normal(), rng.normal())
    norm = math.sqrt(sum(abs(a) ** 2 for a in amps.values()))
    return MultimodeFockState({occ: a / norm for occ, a in amps.items()})


def chain_probabilities(probe, thetas):
    """Class probabilities (phases, classes): rotate each component at each
    phase, count, and aggregate into |n1 - n2| classes."""
    components = probe.components if isinstance(probe, StateEnsemble) else ((1.0, probe),)
    rows = []
    for theta in thetas:
        rotated = StateEnsemble(
            tuple((w, apply_path_rotation(state, float(theta))) for w, state in components)
        )
        classes = aggregate_by_abs_delta(outcome_distribution(rotated))
        rows.append([classes[c] for c in sorted(classes)])
    return np.array(rows)


def binomial_expansion_rotation(state, theta):
    """Path rotation by binomial expansion: per internal mode,
    (c x + s y)^n1 (-s x + c y)^n2 multiplied out, then the Cartesian
    product over modes.  An independent reference for
    ``apply_path_rotation``, which substitutes operator by operator."""
    c, s = math.cos(0.5 * theta), math.sin(0.5 * theta)
    result = {}
    for occ, a in state.amplitudes.items():
        norm = math.prod(math.sqrt(math.factorial(cnt)) for _, _, cnt in occ)
        per_internal = {}
        for p, i, cnt in occ:
            per_internal.setdefault(i, [0, 0])[p - 1] = cnt
        partial = [({}, a / norm)]
        for i, (n1, n2) in per_internal.items():
            expansion = {}
            for j in range(n1 + 1):
                left = math.comb(n1, j) * c**j * s ** (n1 - j)
                for m in range(n2 + 1):
                    key = (j + m, n1 - j + n2 - m)
                    right = math.comb(n2, m) * (-s) ** m * c ** (n2 - m)
                    expansion[key] = expansion.get(key, 0.0) + left * right
            partial = [
                ({**counts, **{(p, i): k for p, k in ((1, k1), (2, k2)) if k}}, w * factor)
                for counts, w in partial
                for (k1, k2), factor in expansion.items()
                if factor != 0.0
            ]
        for counts, w in partial:
            key = tuple(sorted((p, i, k) for (p, i), k in counts.items()))
            result[key] = result.get(key, 0.0) + w
    return {
        occ: w * math.prod(math.sqrt(math.factorial(cnt)) for _, _, cnt in occ)
        for occ, w in result.items()
        if w != 0
    }


def kernel_phases(rng, n):
    """Random phases in [-7, 7] and the 2N + 1 grid of the Fourier rows."""
    return np.concatenate([rng.uniform(-7.0, 7.0, 6), 2 * math.pi * np.arange(2 * n + 1) / (2 * n + 1)])


class TestDualFock:
    def test_fully_indistinguishable_single_term(self):
        state = dual_fock_mismatched(1, 1.0)
        assert set(state.amplitudes) == {((1, 0, 1), (2, 0, 1))}
        assert amp(state, [(1, 0, 1), (2, 0, 1)]) == pytest.approx(1.0)

    def test_fully_distinguishable_single_term(self):
        state = dual_fock_mismatched(1, 0.0)
        assert set(state.amplitudes) == {((1, 0, 1), (2, 1, 1))}

    def test_two_photon_binomial_amplitudes(self):
        state = dual_fock_mismatched(2, 0.5)
        assert amp(state, [(1, 0, 2), (2, 0, 2)]) == pytest.approx(0.5)
        assert amp(state, [(1, 0, 2), (2, 0, 1), (2, 1, 1)]) == pytest.approx(1 / math.sqrt(2))
        assert amp(state, [(1, 0, 2), (2, 1, 2)]) == pytest.approx(0.5)

    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("indist", [0.0, 0.3, 0.7, 1.0])
    def test_binomial_weights_sum_to_one(self, n, indist):
        total = sum(
            math.comb(n, n - k) * indist ** (n - k) * (1 - indist) ** k
            for k in range(n + 1)
        )
        assert total == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_states_normalized_up_to_cap(self, n):
        state = dual_fock_mismatched(n, 0.37)
        assert sum(abs(a) ** 2 for a in state.amplitudes.values()) == pytest.approx(1.0)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            dual_fock_mismatched(0, 0.5)
        with pytest.raises(ValueError):
            dual_fock_mismatched(2, 1.5)
        with pytest.raises(ResourceLimitError):
            dual_fock_mismatched(5, 0.5)  # ten photons exceeds the cap
        with pytest.raises(ValueError, match="n must be a positive integer"):
            dual_fock_mismatched(2.5, 0.5)  # int() built a four-photon state
        assert dual_fock_mismatched(2.0, 0.5) == dual_fock_mismatched(2, 0.5)
        # The cap is checked before the binomial weights overflow the floats.
        with pytest.raises(ResourceLimitError, match="^4000 photons exceeds the supported 8$"):
            dual_fock_mismatched(2000, 0.5)


class TestSpdcTwoPhoton:
    def test_endpoints(self):
        assert set(spdc_two_photon(1.0).amplitudes) == {((1, 0, 1), (2, 0, 1))}
        assert set(spdc_two_photon(0.0).amplitudes) == {((1, 0, 1), (2, 1, 1))}

    def test_is_the_one_photon_dual_fock_probe(self):
        for iprime in (0.0, 0.1, 0.25, 0.5, 0.64, 0.9, 1.0):
            two, dual = spdc_two_photon(iprime), dual_fock_mismatched(1, iprime)
            assert list(two.amplitudes.items()) == list(dual.amplitudes.items()), iprime

    def test_hom_coincidence_matches_exchange_symmetry(self):
        # Coincidence after the balanced point equals (1 - iprime)/2.
        iprime = 0.64
        rotated = apply_path_rotation(spdc_two_photon(iprime), math.pi / 2)
        dist = outcome_distribution(rotated)
        assert dist.probs[(1, 1)] == pytest.approx((1 - iprime) / 2, abs=1e-12)
        assert dist.probs[(1, 1)] == pytest.approx(0.18, abs=1e-12)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            spdc_two_photon(-0.2)


class TestPathRotation:
    def test_zero_angle_is_identity(self):
        rng = np.random.default_rng(0)
        state = random_state(rng, 3)
        rotated = apply_path_rotation(state, 0.0)
        assert set(rotated.amplitudes) == set(state.amplitudes)
        for occ, a in state.amplitudes.items():
            assert rotated.amplitudes[occ] == pytest.approx(a, abs=1e-12)

    def test_hom_dip_at_balanced_point(self):
        rotated = apply_path_rotation(dual_fock_mismatched(1, 1.0), math.pi / 2)
        dist = outcome_distribution(rotated)
        assert dist.probs.get((1, 1), 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_distinguishable_balanced_coincidence_half(self):
        rotated = apply_path_rotation(dual_fock_mismatched(1, 0.0), math.pi / 2)
        dist = outcome_distribution(rotated)
        assert dist.probs[(1, 1)] == pytest.approx(0.5, abs=1e-12)

    def test_norm_preserved_on_random_states(self):
        rng = np.random.default_rng(42)
        for trial in range(50):
            n = int(rng.integers(1, 9))
            state = random_state(rng, n)
            theta = float(rng.uniform(-2 * math.pi, 2 * math.pi))
            rotated = apply_path_rotation(state, theta)
            norm = sum(abs(a) ** 2 for a in rotated.amplitudes.values())
            assert norm == pytest.approx(1.0, abs=1e-10)

    def test_rotations_compose(self):
        rng = np.random.default_rng(1)
        state = random_state(rng, 4)
        a = apply_path_rotation(apply_path_rotation(state, 0.7), 0.9)
        b = apply_path_rotation(state, 1.6)
        assert set(a.amplitudes) == set(b.amplitudes)
        for occ in a.amplitudes:
            assert a.amplitudes[occ] == pytest.approx(b.amplitudes[occ], abs=1e-9)

    def test_internal_relabeling_leaves_counting_invariant(self):
        rng = np.random.default_rng(2)
        state = random_state(rng, 3, n_internal=3)
        perm = {0: 2, 1: 0, 2: 1}
        relabeled = MultimodeFockState(
            {
                tuple(sorted((p, perm[i], c) for p, i, c in occ)): a
                for occ, a in state.amplitudes.items()
            }
        )
        for theta in (0.3, 1.1, 2.0):
            d1 = outcome_distribution(apply_path_rotation(state, theta)).probs
            d2 = outcome_distribution(apply_path_rotation(relabeled, theta)).probs
            assert d1.keys() == d2.keys()
            for key in d1:
                assert d1[key] == pytest.approx(d2[key], abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("indist", [0.0, 0.4, 1.0])
    def test_orthogonal_mode_rotation_sign_is_statistically_irrelevant(self, n, indist):
        # Rotating the orthogonal internal mode by -theta instead leaves
        # path-resolved counting unchanged.  That rotation is the +theta one
        # conjugated by a sign flip of the mode's path-2 operator, and a
        # flip after the rotation does not change counts, so it is the same
        # as rotating the state with its amplitudes signed by (-1)^(n21).
        state = dual_fock_mismatched(n, indist)
        signed = MultimodeFockState(
            {
                occ: a * (-1) ** sum(c for p, i, c in occ if (p, i) == (2, 1))
                for occ, a in state.amplitudes.items()
            }
        )
        for theta in (0.37, 1.2, 2.5):
            same = outcome_distribution(apply_path_rotation(state, theta)).probs
            flipped = outcome_distribution(apply_path_rotation(signed, theta)).probs
            for key in set(same) | set(flipped):
                assert same.get(key, 0.0) == pytest.approx(flipped.get(key, 0.0), abs=1e-12)

    def test_matches_binomial_expansion(self):
        rng = np.random.default_rng(20261019)
        for _ in range(300):
            state = random_state(rng, int(rng.integers(1, 9)), int(rng.integers(1, 5)))
            theta = float(rng.uniform(-7.0, 7.0))
            got = apply_path_rotation(state, theta).amplitudes
            want = binomial_expansion_rotation(state, theta)
            for occ in set(got) | set(want):
                assert abs(got.get(occ, 0.0) - want.get(occ, 0.0)) < 1e-14

    def test_non_finite_angle_rejected(self):
        with pytest.raises(ValueError):
            apply_path_rotation(dual_fock_mismatched(1, 1.0), math.nan)


class TestFourPhotonSchmidt:
    def test_single_mode_is_double_pair(self):
        state = four_photon_schmidt(SchmidtSpectrum([1.0]), 1.0)
        assert set(state.amplitudes) == {((1, 0, 2), (2, 0, 2))}
        assert amp(state, [(1, 0, 2), (2, 0, 2)]) == pytest.approx(1.0)

    def test_two_mode_expansion_norm(self):
        # Equal two-mode spectrum: the unnormalized expansion has norm
        # sqrt(2 + 2*lambda4) = sqrt(3), so each of the three terms carries
        # amplitude 1/sqrt(3) after normalization.
        state = four_photon_schmidt(SchmidtSpectrum([2**-0.5, 2**-0.5]), 1.0)
        expected = 1.0 / math.sqrt(3.0)
        assert amp(state, [(1, 0, 2), (2, 0, 2)]) == pytest.approx(expected)
        assert amp(state, [(1, 2, 2), (2, 2, 2)]) == pytest.approx(expected)
        assert amp(state, [(1, 0, 1), (2, 0, 1), (1, 2, 1), (2, 2, 1)]) == pytest.approx(expected)

    def test_zero_overlap_matches_mixture_model(self):
        # Full expansion at tau = 0 against the purity-weighted mixture.
        lams = SchmidtSpectrum([2**-0.5, 2**-0.5])
        state = four_photon_schmidt(lams, 0.0)
        rotated = apply_path_rotation(state, math.pi / 2)
        classes = aggregate_by_abs_delta(outcome_distribution(rotated))
        lam4 = 0.5
        w_single = 2 * lam4 / (1 + lam4)
        single = apply_path_rotation(dual_fock_mismatched(2, 0.0), math.pi / 2)
        pairs = apply_path_rotation(two_distinct_pairs(0.0), math.pi / 2)
        p4_single = aggregate_by_abs_delta(outcome_distribution(single))[4]
        p4_pairs = aggregate_by_abs_delta(outcome_distribution(pairs))[4]
        expected = w_single * p4_single + (1 - w_single) * p4_pairs
        assert classes[4] == pytest.approx(expected, abs=1e-12)
        assert classes[4] == pytest.approx(0.125, abs=1e-12)  # both components give 1/8

    @pytest.mark.parametrize("tau", [0.0, 1.0])
    def test_counting_depends_on_spectrum_only_through_lambda4(self, tau):
        # Two different spectra sharing purity 0.52: the original two-mode
        # one and a three-mode one solved to match.
        spec_a = SchmidtSpectrum([math.sqrt(0.6), math.sqrt(0.4)])
        # Three-mode match: 0.65 + b + c = 1 and 0.65^2 + b^2 + c^2 = 0.52.
        root = math.sqrt(0.35**2 - 4 * 0.0125)
        b, c = (0.35 + root) / 2, (0.35 - root) / 2
        spec_b = SchmidtSpectrum([math.sqrt(0.65), math.sqrt(b), math.sqrt(c)])
        for spec in (spec_a, spec_b):
            assert sum(v**4 for v in spec.lambdas) == pytest.approx(0.52, abs=1e-9)
        state_a = four_photon_schmidt(spec_a, tau)
        state_b = four_photon_schmidt(spec_b, tau)
        for theta in np.linspace(0.0, 2 * math.pi, 64, endpoint=False):
            da = aggregate_by_abs_delta(outcome_distribution(apply_path_rotation(state_a, theta)))
            db = aggregate_by_abs_delta(outcome_distribution(apply_path_rotation(state_b, theta)))
            for key in da:
                assert da[key] == pytest.approx(db[key], abs=1e-9)

    def test_mode_count_limit(self):
        lams = [1.0 / math.sqrt(13)] * 13
        with pytest.raises(ResourceLimitError):
            four_photon_schmidt(SchmidtSpectrum(lams), 1.0)


class TestPathSectors:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_random_superpositions_match_rotation_chain(self, n):
        # Sparse complex superpositions over 1-4 internal modes.
        rng = np.random.default_rng(20261018 + n)
        for n_internal in (1, 2, 3, 4):
            for _ in range(3):
                state = random_state(rng, n, n_internal)
                thetas = kernel_phases(rng, n)
                got = PathSectors(state).class_probabilities(thetas)
                assert got.shape == (len(thetas), n // 2 + 1)
                assert np.max(np.abs(got - chain_probabilities(state, thetas))) < 1e-14

    @pytest.mark.parametrize(
        "probe",
        [
            spdc_two_photon(0.3),
            dual_fock_mismatched(2, 0.6),
            dual_fock_mismatched(4, 0.6),
            two_distinct_pairs(0.7),
            four_photon_schmidt(SchmidtSpectrum([0.8, 0.6]), 0.7),
            four_photon_schmidt(SchmidtSpectrum([0.5] * 4), 0.7),
            StateEnsemble(((0.25, dual_fock_mismatched(2, 0.3)), (0.75, two_distinct_pairs(0.4)))),
        ],
        ids=["spdc", "dual-fock-2", "dual-fock-4", "two-pairs", "schmidt-2", "schmidt-4", "ensemble"],
    )
    def test_named_probes_match_rotation_chain(self, probe):
        rng = np.random.default_rng(7)
        thetas = kernel_phases(rng, probe.total_photons)
        got = PathSectors(probe).class_probabilities(thetas)
        assert np.max(np.abs(got - chain_probabilities(probe, thetas))) < 1e-14

    def test_sectors_follow_per_mode_totals(self):
        # dual-Fock n = 2 puts 4 - k photons in mode 0 and k in mode 1.
        sectors = PathSectors(dual_fock_mismatched(2, 0.5))
        assert [(totals, tensors.shape) for totals, tensors, _ in sectors.blocks] == [
            ((1, 3), (1, 2, 4)),
            ((2, 2), (1, 3, 3)),
            ((4,), (1, 5)),
        ]

    def test_non_finite_phase_rejected(self):
        with pytest.raises(ValueError):
            PathSectors(spdc_two_photon(0.5)).class_probabilities([0.1, math.nan])


class TestEnsembles:
    def test_two_equal_components_average(self):
        a, b = spdc_two_photon(1.0), spdc_two_photon(0.0)
        ens = StateEnsemble(((0.5, a), (0.5, b)))
        d = outcome_distribution(ens).probs
        da = outcome_distribution(a).probs
        db = outcome_distribution(b).probs
        for key in d:
            assert d[key] == pytest.approx(0.5 * da.get(key, 0) + 0.5 * db.get(key, 0))

    def test_lambda4_mixture_reproduces_pure_state_counting(self):
        # Purity-weighted mixture of a single-mode double pair and two
        # distinct pairs matches the fully expanded state at every phase.
        lam4 = 0.5
        pure = four_photon_schmidt(SchmidtSpectrum([2**-0.5, 2**-0.5]), 1.0)
        ens = StateEnsemble(
            (
                (2 * lam4 / (1 + lam4), dual_fock_mismatched(2, 1.0)),
                ((1 - lam4) / (1 + lam4), two_distinct_pairs(1.0)),
            )
        )
        for theta in (0.0, 0.4, 1.3, 2.2):
            dp = aggregate_by_abs_delta(outcome_distribution(apply_path_rotation(pure, theta)))
            rotated = StateEnsemble(
                tuple((w, apply_path_rotation(s, theta)) for w, s in ens.components)
            )
            dm = aggregate_by_abs_delta(outcome_distribution(rotated))
            for key in dp:
                assert dp[key] == pytest.approx(dm[key], abs=1e-12)

    def test_empty_ensemble_rejected(self):
        with pytest.raises(ValueError):
            StateEnsemble(())

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            StateEnsemble(((0.5, spdc_two_photon(1.0)),))
        with pytest.raises(ValueError, match="outside"):
            StateEnsemble(((1.5, spdc_two_photon(1.0)), (-0.5, spdc_two_photon(1.0))))

    def test_photon_numbers_must_agree(self):
        with pytest.raises(ValueError, match="photon numbers"):
            StateEnsemble(((0.5, spdc_two_photon(1.0)), (0.5, dual_fock_mismatched(2, 1.0))))


class TestSerialization:
    def test_validation(self):
        with pytest.raises(ValueError):
            MultimodeFockState({((1, 0, 1),): 0.5})  # norm != 1
        with pytest.raises(ValueError):
            MultimodeFockState(
                {((1, 0, 1),): 2**-0.5, ((1, 0, 2),): 2**-0.5}  # mixed photon number
            )
        with pytest.raises(ValueError):
            MultimodeFockState({((3, 0, 1),): 1.0})  # bad path label
        with pytest.raises(ValueError, match="must be integers"):
            # int() made this a one-photon state keyed by the count-0 triple (2, 0, 0).
            MultimodeFockState({((1, 0, 1.5), (2, 0, 0.5)): 1.0})
        with pytest.raises(ValueError, match="no nonzero amplitude"):
            MultimodeFockState({((1, 0, 1),): 0.0})
        with pytest.raises(ValueError, match="must be nonnegative"):
            MultimodeFockState({((1, -1, 1),): 1.0})
        with pytest.raises(ValueError, match="annihilates the vacuum"):
            state_from_poly({})

    @pytest.mark.parametrize("amplitude", [math.nan, complex(1.0, math.nan)], ids=["nan", "complex-nan"])
    def test_nan_amplitude_rejected(self, amplitude):
        with pytest.raises(ValueError, match="is not 1"):
            MultimodeFockState({((1, 0, 1), (2, 0, 1)): amplitude})

    def test_photon_cap(self):
        with pytest.raises(ResourceLimitError):
            MultimodeFockState({((1, 0, 9),): 1.0})

    def test_mode_label_cap(self):
        occ = tuple((1, i, 1) for i in range(4)) + tuple((2, i, 1) for i in range(4))
        state = MultimodeFockState({occ: 1.0})  # 8 photons over 8 labels is fine
        assert state.total_photons == 8
        spread = {((1, i, 1),): 1.0 / 5.0 for i in range(25)}  # 25 labels in superposition
        with pytest.raises(ResourceLimitError):
            MultimodeFockState(spread)


def _fit_and_data():
    data = FringeDataset(tuple((t, {0: 30, 2: 10}) for t in np.linspace(0, 4, 9).tolist()), {0: 1.0, 2: 1.0})
    return fit_mle(data, [2]), data


# Each whole-number argument of the library: a call that passes it the
# value, the message it raises for the value, and a value below its least
# (None where a lower value has a message of its own).
_WHOLE_ARGUMENTS = {
    "occupation": (
        lambda v: MultimodeFockState({((1, 0, v),): 1.0}),
        lambda v: f"paths, internal indices and counts must be integers, got {((1, 0, v),)}",
        None,
    ),
    "dual_fock_mismatched": (lambda v: dual_fock_mismatched(v, 0.5), lambda v: "n must be a positive integer", 0),
    "small_angle_fisher": (lambda v: small_angle_fisher(v, 0.5), lambda v: "n must be a positive integer", 0),
    "total_photons": (
        lambda v: OutcomeDistribution(v, {(1, 1): 1.0}),
        lambda v: f"total_photons must be an integer >= 0, got {v!r}",
        -1,
    ),
    "outcome": (
        lambda v: OutcomeDistribution(2, {(v, 1): 1.0}),
        lambda v: f"outcome ({v},1) is not a pair of photon numbers",
        -1,
    ),
    "bins_per_arm": (
        lambda v: NoiseAndEfficiencyConfig(bins_per_arm=v),
        lambda v: "bins_per_arm must be a positive integer",
        0,
    ),
    "multiplex_photons": (lambda v: multiplex_efficiency(v, 4), lambda v: "need n >= 0 and m >= 1", -1),
    "multiplex_bins": (lambda v: multiplex_efficiency(1, v), lambda v: "need n >= 0 and m >= 1", 0),
    "class_efficiencies": (
        lambda v: class_efficiencies(v, 4),
        lambda v: f"total_photons must be a nonnegative integer, got {v!r}",
        -1,
    ),
    "class_label": (
        lambda v: FringeDataset(((0.0, {0: 1}),), {0: 1.0, v: 1.0}),
        lambda v: f"class labels must be integers, got {v!r}",
        None,
    ),
    "count": (
        lambda v: FringeDataset(((0.0, {0: v}),), {0: 1.0}),
        lambda v: f"counts must be nonnegative integers, got {v}",
        -1,
    ),
    "harmonic": (
        lambda v: fit_mle(_fit_and_data()[1], [2, v]),
        lambda v: f"harmonics must be non-empty, integral, unique and positive, got {(2, v)!r}",
        0,
    ),
    "bootstrap_trials": (
        lambda v: bootstrap_errors(*_fit_and_data(), trials=v, seed=0),
        lambda v: f"trials must be an integer, got {v!r}",
        None,
    ),
}


@pytest.mark.parametrize(
    "site,value",
    [
        (site, value)
        for site, (_, _, below) in _WHOLE_ARGUMENTS.items()
        for value in (math.inf, math.nan, 2.5) + (() if below is None else (below,))
    ],
)
def test_whole_number_arguments_raise_their_own_message(site, value):
    # inf once raised int()'s OverflowError and NaN its "cannot convert"
    # ValueError at every site but the bootstrap's.
    call, message, _ = _WHOLE_ARGUMENTS[site]
    with pytest.raises(ValueError) as raised:
        call(value)
    assert str(raised.value) == message(value)
