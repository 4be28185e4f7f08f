import itertools
import math

import numpy as np
import pytest

from fringelab.detection import (
    NoiseAndEfficiencyConfig,
    OutcomeDistribution,
    add_background,
    aggregate_by_abs_delta,
    background_fraction,
    class_efficiencies,
    multiplex_efficiency,
    outcome_distribution,
    sample_counts,
)
from fringelab.fock import (
    StateEnsemble,
    apply_path_rotation,
    dual_fock_mismatched,
    four_photon_schmidt,
    spdc_two_photon,
)
from fringelab.spectral import SchmidtSpectrum


def two_photon_truth(iprime, theta):
    """Closed-form |delta| class probabilities for the two-photon probe."""
    c = math.cos(2 * theta)
    return {
        0: (3 - iprime + (1 + iprime) * c) / 4,
        2: (1 + iprime) * (1 - c) / 4,
    }


class TestOutcomeDistribution:
    @pytest.mark.parametrize("indist", [0.0, 0.5, 1.0])
    def test_single_pair_coincidence_fringe(self, indist):
        # Coincidence fringe of one photon pair: the indistinguishable part
        # oscillates as cos^2(theta), the distinguishable part as the
        # classical (3 + cos 2theta)/4, combining to the |delta|=0 class law.
        for theta in np.linspace(0, 2 * math.pi, 17):
            rotated = apply_path_rotation(dual_fock_mismatched(1, indist), theta)
            dist = outcome_distribution(rotated)
            expected = two_photon_truth(indist, theta)[0]
            assert dist.probs.get((1, 1), 0.0) == pytest.approx(expected, abs=1e-12)

    def test_zero_angle_gives_input_distribution(self):
        state = dual_fock_mismatched(2, 0.3)
        dist = outcome_distribution(apply_path_rotation(state, 0.0))
        assert dist.probs == pytest.approx({(2, 2): 1.0})

    def test_double_pair_through_balanced_splitter(self):
        # Operator-algebra oracle: (a1+a2)^2(-a1+a2)^2/4 = (a2^2-a1^2)^2/4
        # gives amplitudes sqrt(3/8), -1/2, sqrt(3/8) on |4,0>, |2,2>, |0,4>.
        state = four_photon_schmidt(SchmidtSpectrum([1.0]), 1.0)
        dist = outcome_distribution(apply_path_rotation(state, math.pi / 2))
        assert dist.probs[(2, 2)] == pytest.approx(0.25, abs=1e-12)
        assert dist.probs[(4, 0)] == pytest.approx(0.375, abs=1e-12)
        assert dist.probs[(0, 4)] == pytest.approx(0.375, abs=1e-12)
        assert dist.probs.get((3, 1), 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            OutcomeDistribution(2, {(1, 1): 0.5, (2, 1): 0.5})  # key sums to 3
        with pytest.raises(ValueError):
            OutcomeDistribution(2, {(1, 1): 0.7, (2, 0): 0.2})  # not normalized
        with pytest.raises(ValueError):
            OutcomeDistribution(2, {(1, 1): 1.2, (2, 0): -0.2})
        # int() truncated 2.5 photons to 2, and the key (1.5, 0.5) to (1, 0).
        with pytest.raises(ValueError, match="total_photons must be an integer"):
            OutcomeDistribution(2.5, {(1, 1): 1.0})
        with pytest.raises(ValueError, match="not a pair of photon numbers"):
            OutcomeDistribution(2, {(1.5, 0.5): 1.0})
        # Negative photon numbers constructed.
        with pytest.raises(ValueError, match="total_photons must be an integer >= 0"):
            OutcomeDistribution(-2, {(-1, -1): 1.0})
        with pytest.raises(ValueError, match="not a pair of photon numbers"):
            OutcomeDistribution(2, {(3, -1): 1.0})
        dist = OutcomeDistribution(np.int64(2), {(1.0, np.int64(1)): 1.0})
        assert dist.total_photons == 2 and dist.probs == {(1, 1): 1.0}


class TestAggregate:
    def test_two_photon_classes(self):
        dist = OutcomeDistribution(2, {(1, 1): 0.7, (2, 0): 0.15, (0, 2): 0.15})
        assert aggregate_by_abs_delta(dist) == pytest.approx({0: 0.7, 2: 0.3})

    def test_four_photon_includes_empty_class(self):
        state = four_photon_schmidt(SchmidtSpectrum([1.0]), 1.0)
        dist = outcome_distribution(apply_path_rotation(state, math.pi / 2))
        classes = aggregate_by_abs_delta(dist)
        assert classes == pytest.approx({0: 0.25, 2: 0.0, 4: 0.75})

    def test_uniform_two_photon(self):
        third = 1.0 / 3.0
        dist = OutcomeDistribution(2, {(1, 1): third, (2, 0): third, (0, 2): third})
        classes = aggregate_by_abs_delta(dist)
        assert classes[0] == pytest.approx(1 / 3)
        assert classes[2] == pytest.approx(2 / 3)


class TestAddBackground:
    def test_two_class_measured_fraction(self):
        mixed = add_background({0: 1.0, 2: 0.0}, 0.0119)
        assert mixed[0] == pytest.approx(0.99405, abs=1e-12)
        assert mixed[2] == pytest.approx(0.00595, abs=1e-12)

    def test_zero_noise_unchanged(self):
        classes = {0: 0.25, 2: 0.75}
        assert add_background(classes, 0.0) == pytest.approx(classes)

    def test_three_class_arithmetic(self):
        mixed = add_background({0: 0.5, 2: 0.3, 4: 0.2}, 0.3)
        assert mixed == pytest.approx({0: 0.45, 2: 0.31, 4: 0.24})

    def test_normalization_preserved(self):
        rng = np.random.default_rng(13)
        for k in (2, 3, 4, 6):
            raw = rng.uniform(0, 1, size=k)
            classes = dict(enumerate(raw / raw.sum()))
            for zeta in (0.0, 0.0119, 0.3, 0.9):
                mixed = add_background(classes, zeta)
                assert sum(mixed.values()) == pytest.approx(1.0, abs=1e-12)

    def test_invalid_zeta(self):
        with pytest.raises(ValueError):
            add_background({0: 1.0}, 1.0)
        with pytest.raises(ValueError, match="empty class mapping"):
            add_background({}, 0.1)


class TestBackgroundFraction:
    def test_two_photon_rates(self):
        assert background_fraction(1315.0, 15.6) == pytest.approx(0.011863, abs=1e-6)

    def test_four_photon_rates(self):
        assert background_fraction(2.297, 0.065) == pytest.approx(0.0283, abs=1e-4)

    def test_zero_accidentals(self):
        assert background_fraction(100.0, 0.0) == 0.0

    def test_invalid(self):
        with pytest.raises(ValueError):
            background_fraction(0.0, 0.0)
        with pytest.raises(ValueError):
            background_fraction(10.0, 12.0)


class TestMultiplexEfficiency:
    @pytest.mark.parametrize("n,m,expected", [(0, 4, 1.0), (1, 7, 1.0), (2, 4, 0.75), (4, 4, 3 / 32)])
    def test_examples(self, n, m, expected):
        assert multiplex_efficiency(n, m) == pytest.approx(expected)

    def test_exhaustive_enumeration(self):
        for m in range(1, 7):
            for n in range(0, min(m, 4) + 1):
                distinct = sum(
                    1
                    for bins in itertools.product(range(m), repeat=n)
                    if len(set(bins)) == n
                )
                assert multiplex_efficiency(n, m) == pytest.approx(distinct / m**n)

    def test_undetectable_pattern(self):
        with pytest.raises(ValueError):
            multiplex_efficiency(5, 4)

    @pytest.mark.parametrize("n,m", [(2.5, 4), (2, 4.7), (-2, 4)])
    def test_fractional_arguments_rejected(self, n, m):
        # int() truncated the first two to (2, 4), an efficiency of 0.75; a
        # negative photon number gave class_efficiencies no classes at all.
        with pytest.raises(ValueError, match=r"need n >= 0 and m >= 1"):
            multiplex_efficiency(n, m)
        with pytest.raises(ValueError):
            class_efficiencies(n, m)
        assert multiplex_efficiency(np.int64(2), 4.0) == 0.75

    def test_class_efficiencies(self):
        etas = class_efficiencies(4, 4)
        assert etas == pytest.approx(
            {0: 0.75 * 0.75, 2: multiplex_efficiency(3, 4), 4: multiplex_efficiency(4, 4)}
        )


class TestSampleCounts:
    def test_certain_class_never_leaks(self):
        for seed in range(5):
            counts = sample_counts({0: 1.0, 2: 0.0}, 50.0, seed)
            assert counts[2] == 0

    def test_law_of_large_numbers(self):
        totals = np.zeros(2)
        reps = 10_000
        rng_seeds = np.random.SeedSequence(99).spawn(reps)
        for s in rng_seeds:
            counts = sample_counts({0: 0.7, 2: 0.3}, 100.0, s)
            totals += (counts[0], counts[2])
        means = totals / reps
        assert means[0] == pytest.approx(70.0, rel=0.01)
        assert means[1] == pytest.approx(30.0, rel=0.01)

    def test_deterministic_for_fixed_seed(self):
        a = sample_counts({0: 0.4, 2: 0.6}, 1000.0, 1234)
        b = sample_counts({0: 0.4, 2: 0.6}, 1000.0, 1234)
        assert a == b

    def test_total_must_be_positive(self):
        with pytest.raises(ValueError):
            sample_counts({0: 1.0}, 0.0, 1)


class TestFringeLaws:
    def test_two_photon_fringe_formula_everywhere(self):
        # Brute-force counting reproduces the closed-form class fringes.
        for iprime in np.linspace(0, 1, 11):
            state = spdc_two_photon(float(iprime))
            for theta in np.linspace(0, 2 * math.pi, 64, endpoint=False):
                rotated = apply_path_rotation(state, float(theta))
                classes = aggregate_by_abs_delta(outcome_distribution(rotated))
                truth = two_photon_truth(float(iprime), float(theta))
                assert classes[0] == pytest.approx(truth[0], abs=1e-10)
                assert classes[2] == pytest.approx(truth[2], abs=1e-10)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("indist", [0.0, 0.5, 1.0])
    def test_small_angle_quadratic_coefficients(self, n, indist):
        # Quadratic fit (with the quartic term) on theta in {+-0.01, +-0.02}.
        thetas = np.array([-0.02, -0.01, 0.01, 0.02])
        state = dual_fock_mismatched(n, indist)
        drop = []
        side = []
        for theta in thetas:
            classes = aggregate_by_abs_delta(
                outcome_distribution(apply_path_rotation(state, float(theta)))
            )
            drop.append(1.0 - classes[0])
            side.append(classes[2])
        design = np.column_stack([thetas**2, thetas**4])
        coef_drop = np.linalg.lstsq(design, np.array(drop), rcond=None)[0][0]
        coef_side = np.linalg.lstsq(design, np.array(side), rcond=None)[0][0]
        expected = (n + indist * n * n) / 2
        assert coef_drop == pytest.approx(expected, abs=1e-5)
        assert coef_side == pytest.approx(expected, abs=1e-5)

    def test_ensemble_distribution_weight_average(self):
        ens = StateEnsemble(((0.25, spdc_two_photon(1.0)), (0.75, spdc_two_photon(0.0))))
        dist = outcome_distribution(ens)
        assert dist.probs[(1, 1)] == pytest.approx(1.0)


class TestNoiseConfig:
    def test_valid(self):
        cfg = NoiseAndEfficiencyConfig(zeta=0.0119, bins_per_arm=4)
        assert cfg.zeta == 0.0119

    def test_invalid(self):
        with pytest.raises(ValueError):
            NoiseAndEfficiencyConfig(zeta=1.0)
        with pytest.raises(ValueError):
            NoiseAndEfficiencyConfig(bins_per_arm=0)
        with pytest.raises(ValueError, match="bins_per_arm must be a positive integer"):
            NoiseAndEfficiencyConfig(bins_per_arm=4.5)  # int() stored 4
        assert NoiseAndEfficiencyConfig(bins_per_arm=4.0).bins_per_arm == 4
