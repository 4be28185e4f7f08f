import json
import math

import numpy as np
import pytest

from fringelab import cli
from fringelab.detection import add_background, aggregate_by_abs_delta, outcome_distribution
from fringelab.errors import SingularFisherError
from fringelab.fock import (
    StateEnsemble,
    apply_path_rotation,
    dual_fock_mismatched,
    four_photon_schmidt,
    spdc_two_photon,
)
from fringelab.metrology import (
    _ROUNDING,
    FringeFamily,
    _basis,
    _family_coefficients,
    counting_family,
    fisher_at,
    fisher_terms,
    four_photon_pair_ensemble,
    fringe_probabilities,
    lambda4_from_p4,
    maximize_fisher,
    optimal_fisher_two_photon,
    optimal_theta,
    p4_from_lambda4,
    predict_four_photon_extremes,
    predicted_fprime_curve,
    small_angle_fisher,
    two_photon_family,
)
from fringelab.spectral import SchmidtSpectrum


def rotated_probabilities(probe, zeta, thetas):
    """Class probabilities (phases, classes) by rotating the probe at each phase."""
    components = probe.components if isinstance(probe, StateEnsemble) else ((1.0, probe),)
    rows = []
    for theta in thetas:
        rotated = StateEnsemble(
            tuple((w, apply_path_rotation(state, float(theta))) for w, state in components)
        )
        classes = add_background(aggregate_by_abs_delta(outcome_distribution(rotated)), zeta)
        rows.append([classes[c] for c in sorted(classes)])
    return np.array(rows)


# Probes and noise of the Fourier reference tests: dual-Fock n = 1-4 at two
# indistinguishabilities, a four-photon Schmidt state, and the A5 ensembles.
REFERENCE_PROBES = (
    [(dual_fock_mismatched(n, indist), 0.0) for n in (1, 2, 3, 4) for indist in (0.6, 1.0)]
    + [(four_photon_schmidt(SchmidtSpectrum([0.8, 0.6]), 0.7), 0.0)]
    + [(four_photon_pair_ensemble(0.4790, tau), zeta) for tau in (0.0, 1.0) for zeta in (0.0, 0.0282)]
)
# The default simulate phases: 32 evenly spaced on [0, 2 pi).
DEFAULT_PHASES = 2 * math.pi * np.arange(32) / 32
REFERENCE_THETAS = np.concatenate(
    [np.random.default_rng(5).uniform(0.0, 2 * math.pi, 20), DEFAULT_PHASES]
)


def analytic_two_photon_fisher(iprime, zeta, theta):
    """Exact-derivative evaluation of the class-probability information."""
    c = math.cos(2 * theta)
    p0 = (3 - iprime + (1 + iprime) * c) / 4 * (1 - zeta) + zeta / 2
    p2 = (1 + iprime) * (1 - c) / 4 * (1 - zeta) + zeta / 2
    d = (1 + iprime) / 2 * math.sin(2 * theta) * (1 - zeta)
    return d * d * (1 / p0 + 1 / p2)


class TestFisherAt:
    def test_matches_analytic_oracle_at_quarter_turn(self):
        family = two_photon_family(1.0, 0.0)
        value = fisher_at(family, math.pi / 4)
        assert value == pytest.approx(4.0, abs=1e-6)
        assert value == pytest.approx(
            analytic_two_photon_fisher(1.0, 0.0, math.pi / 4), abs=1e-6
        )

    def test_constant_family_is_zero(self):
        family = FringeFamily(
            evaluator=lambda theta: {0: 0.5, 2: 0.5}, classes=(0, 2), n_photons=2
        )
        assert fisher_at(family, 1.0) == 0.0

    @pytest.mark.parametrize("iprime", [0.0, 0.3, 0.7, 1.0])
    def test_distinguishable_maximum_is_shot_noise(self, iprime):
        # The supremum 2(1 + I') sits where a class probability vanishes, so
        # rounding there must not push the maximum above it.
        family = two_photon_family(iprime, 0.0, theta_domain=(0.0, math.pi))
        report = maximize_fisher(family)
        assert report.max_fisher == pytest.approx(2.0 * (1.0 + iprime), abs=1e-6)
        assert report.max_fisher <= 2.0 * (1.0 + iprime) + 1e-9
        assert report.per_photon == pytest.approx(1.0 + iprime, abs=1e-6)

    def test_matches_analytic_on_grid(self):
        family = two_photon_family(0.7, 0.0119)
        for theta in np.linspace(0.2, 1.4, 7):
            assert fisher_at(family, float(theta)) == pytest.approx(
                analytic_two_photon_fisher(0.7, 0.0119, float(theta)), rel=1e-7
            )

    def test_singular_probability_with_live_derivative_raises(self):
        def evaluator(theta):
            return {0: max(theta, 0.0), 1: 1.0 - max(theta, 0.0)}

        family = FringeFamily(evaluator=evaluator, classes=(0, 1), n_photons=1)
        with pytest.raises(SingularFisherError):
            fisher_at(family, 0.0)

    def test_richardson_evaluates_each_phase_once(self):
        family = counting_family(
            four_photon_schmidt(SchmidtSpectrum([0.8, 0.6]), 0.9), 0.0282
        )
        seen = []

        def counted(theta):
            seen.append(theta)
            return family.evaluator(theta)

        theta, step = 0.4, 1e-4
        value = fisher_at(FringeFamily(counted, family.classes, family.n_photons), theta, step)
        assert len(seen) == len(set(seen)) == 5
        # The fine central difference, as fisher_at computed it before.
        p0, pp, pm = (family.evaluator(t) for t in (theta, theta + step / 2, theta - step / 2))
        derivs = {c: (pp[c] - pm[c]) / step for c in family.classes}
        assert value == fisher_terms({c: p0[c] for c in family.classes}, derivs)

    def test_richardson_judges_vanishing_class_by_extrapolated_derivative(self):
        # Class 4 has p = 8.3e-16 here; its step-1e-3 quotient of 1.5e-10 is
        # O(step^2) bias, against an exact derivative 4p/theta of 1.2e-11.
        family = counting_family(four_photon_pair_ensemble(0.479, 0.0), 0.0)
        value = fisher_at(family, 2.854e-4, step=1e-3)
        assert value == pytest.approx(fisher_at(family, 2.854e-4, step=2e-4), rel=1e-6)

    def test_invalid_step(self):
        family = two_photon_family(1.0, 0.0)
        with pytest.raises(ValueError):
            fisher_at(family, 0.3, step=0.0)

    def test_non_finite_probabilities_rejected(self):
        family = FringeFamily(
            evaluator=lambda theta: {0: math.nan, 1: 1.0}, classes=(0, 1), n_photons=1
        )
        with pytest.raises(ValueError):
            fisher_at(family, 0.2)


class TestSmallAngleFisher:
    @pytest.mark.parametrize(
        "n,indist,expected", [(1, 1.0, 4.0), (3, 0.0, 6.0), (2, 1.0, 12.0)]
    )
    def test_examples(self, n, indist, expected):
        assert small_angle_fisher(n, indist) == expected

    def test_invalid(self):
        with pytest.raises(ValueError):
            small_angle_fisher(0, 0.5)
        with pytest.raises(ValueError):
            small_angle_fisher(2, 1.2)

    @pytest.mark.parametrize("indist", [0.25, 0.5, 1.0])
    def test_heisenberg_proportional_scaling(self, indist):
        # Per-photon information grows linearly in n with slope I/2 exactly,
        # and the brute-force simulator confirms each point.
        for n in (1, 2, 3):
            formula = small_angle_fisher(n, indist)
            assert formula / (2 * n) == pytest.approx(1 + indist * n, abs=1e-12)
            family = counting_family(dual_fock_mismatched(n, indist))
            numeric = fisher_at(family, 1e-3, step=1e-4)
            assert numeric == pytest.approx(formula, rel=1e-4)


class TestOptimalTheta:
    def test_full_exchange_symmetry_quarter_turn(self):
        for zeta in (0.001, 0.0119, 0.3, 0.8):
            assert optimal_theta(1.0, zeta) == pytest.approx(math.pi / 4, abs=1e-12)

    def test_against_numeric_argmax(self):
        result = optimal_fisher_two_photon(0.9, 0.0119)
        assert optimal_theta(0.9, 0.0119) == pytest.approx(result.theta, abs=1e-6)

    def test_no_noise_distinguishable_corner(self):
        # The closed form gives arctan(0) = 0 and the exact-derivative
        # information 4(1 + cos 2theta)/(3 + cos 2theta) is maximized in the
        # zero-phase limit, so both routes agree on theta* = 0.
        assert optimal_theta(0.0, 0.0) == 0.0
        values = [analytic_two_photon_fisher(0.0, 0.0, t) for t in np.linspace(1e-6, math.pi / 2, 200)]
        assert all(values[i] >= values[i + 1] - 1e-12 for i in range(len(values) - 1))

    def test_degenerate_corner_returns_quarter_turn(self):
        # At iprime = 1 with no noise the information is flat (any phase is
        # optimal); the zeta -> 0 limit of the closed form is returned.
        assert optimal_theta(1.0, 0.0) == pytest.approx(math.pi / 4)
        family = two_photon_family(1.0, 0.0)
        for theta in (0.2, 0.7853981633974483, 1.3):
            assert fisher_at(family, theta) == pytest.approx(4.0, abs=1e-6)

    def test_closed_form_matches_numeric_on_grid(self):
        for iprime in np.linspace(0.0, 1.0, 9):
            for zeta in (0.002, 0.005, 0.0119, 0.05, 0.15):
                closed = optimal_theta(float(iprime), zeta)
                numeric = optimal_fisher_two_photon(float(iprime), zeta).theta
                assert closed == pytest.approx(numeric, abs=1e-6)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            optimal_theta(1.2, 0.0)
        with pytest.raises(ValueError):
            optimal_theta(0.5, 1.0)


class TestOptimalFisher:
    def test_noiseless_full_symmetry(self):
        result = optimal_fisher_two_photon(1.0, 0.0)
        assert result.value == pytest.approx(4.0)
        assert result.matched_branch == "both"

    def test_measured_noise_drops_by_transmission_squared(self):
        zeta = 0.0119
        result = optimal_fisher_two_photon(1.0, zeta)
        assert result.value == pytest.approx(4 * (1 - zeta) ** 2, abs=1e-6)
        assert result.matched_branch == "negative"
        # The principal-root reading contradicts the direct maximization.
        assert result.closed_form_principal_branch == pytest.approx(4.0, abs=1e-12)

    def test_shot_noise_floor(self):
        assert optimal_fisher_two_photon(0.0, 0.0).value == pytest.approx(2.0)

    @pytest.mark.parametrize("iprime", np.linspace(0, 1, 11).tolist())
    def test_noiseless_maximum_is_small_angle_value(self, iprime):
        result = optimal_fisher_two_photon(iprime, 0.0)
        assert result.value == pytest.approx(2 * (1 + iprime), abs=1e-6)
        # Numeric cross-check just off the singular phase origin.
        family = two_photon_family(iprime, 0.0)
        assert fisher_at(family, 1e-3, step=1e-4) == pytest.approx(
            result.value, rel=1e-4
        )

    def test_negative_branch_matches_across_noise_grid(self):
        for iprime in (0.0, 0.4, 0.8, 1.0):
            for zeta in (0.005, 0.0119, 0.1):
                result = optimal_fisher_two_photon(iprime, zeta)
                assert result.matched_branch == "negative"
                assert result.value == pytest.approx(
                    result.closed_form_negative_branch, abs=1e-5
                )


class TestPredictedCurve:
    def test_noiseless_curve_is_one_plus_iprime(self):
        grid = np.linspace(0.0, 1.0, 11)
        curve = predicted_fprime_curve(grid, 0.0)
        assert np.allclose(curve, 1.0 + grid, atol=1e-12)

    def test_measured_noise_endpoint(self):
        curve = predicted_fprime_curve([1.0], 0.0119)
        assert curve[0] == pytest.approx(1.9527, abs=1e-4)

    def test_noise_pulls_distinguishable_below_shot_noise(self):
        curve = predicted_fprime_curve([0.0], 0.0119)
        assert curve[0] < 1.0

    def test_monotone_in_exchange_symmetry(self):
        grid = np.linspace(0.0, 1.0, 9)
        curve = predicted_fprime_curve(grid, 0.0119)
        assert np.all(np.diff(curve) > 0)


class TestLambda4Relations:
    def test_paper_values_round_trip(self):
        assert lambda4_from_p4(0.6619) == pytest.approx(0.4790, abs=5e-4)
        assert p4_from_lambda4(0.4790) == pytest.approx(0.6619, abs=5e-4)

    def test_endpoints(self):
        assert lambda4_from_p4(0.75) == pytest.approx(1.0)
        assert lambda4_from_p4(0.5) == pytest.approx(0.0)
        assert p4_from_lambda4(1.0) == pytest.approx(0.75)
        assert p4_from_lambda4(0.5) == pytest.approx(2.0 / 3.0)

    def test_identity_on_grid(self):
        for lam4 in np.linspace(0.01, 1.0, 100):
            assert lambda4_from_p4(p4_from_lambda4(float(lam4))) == pytest.approx(
                float(lam4), abs=1e-12
            )

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            lambda4_from_p4(0.49)
        with pytest.raises(ValueError):
            lambda4_from_p4(0.76)
        with pytest.raises(ValueError):
            p4_from_lambda4(0.0)

    def test_formula_matches_brute_force_counting(self):
        # Balanced-point bunching of the fully expanded four-photon state.
        from fringelab.detection import aggregate_by_abs_delta, outcome_distribution
        from fringelab.fock import apply_path_rotation, four_photon_schmidt

        for lam4 in (0.5, 0.6, 0.75, 1.0):
            if lam4 == 1.0:
                spec = SchmidtSpectrum([1.0])
            else:
                u = (1 + math.sqrt(2 * lam4 - 1)) / 2
                spec = SchmidtSpectrum([math.sqrt(u), math.sqrt(1 - u)])
            state = four_photon_schmidt(spec, 1.0)
            rotated = apply_path_rotation(state, math.pi / 2)
            p4 = aggregate_by_abs_delta(outcome_distribution(rotated))[4]
            assert p4 == pytest.approx(p4_from_lambda4(lam4), abs=1e-9)


class TestFourPhotonPredictions:
    def test_paper_case_within_five_percent(self):
        full, zero = predict_four_photon_extremes(0.4790, 0.0282)
        assert full == pytest.approx(2.246, rel=0.05)
        assert zero == pytest.approx(0.7547, rel=0.05)

    def test_pure_double_pair_limit(self):
        full, _ = predict_four_photon_extremes(1.0, 0.0)
        assert full == pytest.approx(3.0, abs=1e-3)

    def test_vanishing_purity_limit(self):
        _, zero = predict_four_photon_extremes(1e-9, 0.0)
        assert zero == pytest.approx(1.0, abs=1e-3)

    def test_ensemble_weights(self):
        ens = four_photon_pair_ensemble(0.5, 1.0)
        weights = [w for w, _ in ens.components]
        assert weights == pytest.approx([2 / 3, 1 / 3])
        pure = four_photon_pair_ensemble(1.0, 1.0)
        assert len(pure.components) == 1


class TestReports:
    def test_counting_family_matches_analytic_family(self):
        sim = counting_family(spdc_two_photon(0.6), zeta=0.0119)
        closed = two_photon_family(0.6, 0.0119)
        for theta in np.linspace(0, 2 * math.pi, 9):
            ps = sim.evaluator(float(theta))
            pc = closed.evaluator(float(theta))
            for key in (0, 2):
                assert ps[key] == pytest.approx(pc[key], abs=1e-12)

    def test_fourier_samples_reproduce_rotation(self):
        for probe, zeta in REFERENCE_PROBES:
            family = counting_family(probe, zeta)
            coeff, harmonics = _family_coefficients(family)
            fourier = coeff @ _basis(harmonics, REFERENCE_THETAS)
            direct = rotated_probabilities(probe, zeta, REFERENCE_THETAS)
            assert np.max(np.abs(fourier.T - direct)) < 1e-12
        for probe, zeta in REFERENCE_PROBES[-4:]:
            family = counting_family(probe, zeta, (0.0, math.pi))
            report = maximize_fisher(family)
            assert report.max_fisher == pytest.approx(
                fisher_at(family, report.argmax_theta), rel=1e-6
            )

    def test_fringe_probabilities_match_rotation(self, monkeypatch):
        for probe, zeta in REFERENCE_PROBES:
            probs = fringe_probabilities(counting_family(probe, zeta), REFERENCE_THETAS)
            direct = rotated_probabilities(probe, zeta, REFERENCE_THETAS)
            assert probs.shape == direct.shape
            assert np.max(np.abs(probs - direct)) < 1e-12
            assert np.all(probs >= 0.0)
            # Rounding at a vanishing class reads exactly 0, so it takes no draw.
            assert not np.any((probs > 0.0) & (probs <= _ROUNDING))

        # A class dipping 1e-15 below zero is rounding and reads 0; one
        # dipping to -1e-6 is a defect.
        def dipping(depth):
            def evaluate(theta):
                p = 0.5 + (0.5 + depth) * math.cos(theta)
                return {0: p, 1: 1.0 - p}

            return FringeFamily(evaluator=evaluate, classes=(0, 1), n_photons=1)

        assert fringe_probabilities(dipping(1e-15), [math.pi])[0, 0] == 0.0
        assert fringe_probabilities(dipping(-1e-15), [math.pi])[0, 0] == 0.0
        with pytest.raises(ValueError, match="negative"):
            fringe_probabilities(dipping(1e-6), REFERENCE_THETAS)

        # A 32-phase simulate evaluates the family 2N + 1 times in all.
        real_family = cli.metrology.counting_family
        seen = []

        def counted_family(*args, **kwargs):
            family = real_family(*args, **kwargs)

            def counted(theta):
                seen.append(theta)
                return family.evaluator(theta)

            return FringeFamily(counted, family.classes, family.n_photons, family.theta_domain)

        monkeypatch.setattr(cli.metrology, "counting_family", counted_family)
        noise = cli.detection.NoiseAndEfficiencyConfig(zeta=0.0282, bins_per_arm=4)
        for probe in (spdc_two_photon(0.6), four_photon_schmidt(SchmidtSpectrum([0.8, 0.6]), 0.7)):
            seen.clear()
            cli._simulate_points(probe, noise, DEFAULT_PHASES, 1e5, 3)
            assert len(seen) == 2 * probe.total_photons + 1

    def test_fisher_report_json(self):
        family = two_photon_family(0.5, 0.0119, theta_domain=(0.0, math.pi))
        report = maximize_fisher(family)
        data = json.loads(report.to_json())
        assert set(data) == {"theta", "fisher", "max", "argmax", "per_photon"}
        assert len(data["theta"]) == len(data["fisher"]) == 256
        assert data["per_photon"] == pytest.approx(data["max"] / 2)
