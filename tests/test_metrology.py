import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from fringelab import cli, estimation, metrology
from fringelab.detection import (
    add_background,
    aggregate_by_abs_delta,
    class_efficiencies,
    outcome_distribution,
)
from fringelab.errors import SingularFisherError
from fringelab.estimation import FringeDataset, bootstrap_errors, fit_mle
from fringelab.fock import (
    PathSectors,
    StateEnsemble,
    apply_path_rotation,
    dual_fock_mismatched,
    four_photon_schmidt,
    spdc_two_photon,
    two_distinct_pairs,
)
from fringelab.metrology import (
    _ROUNDING,
    FringeFamily,
    _basis,
    _derivative,
    _family_coefficients,
    _maximize_fourier_fisher,
    counting_family,
    fisher_at,
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
from fringelab.spectral import SchmidtSpectrum, lambda4


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
            evaluator=lambda thetas: np.full((len(thetas), 2), 0.5), classes=(0, 2), n_photons=2
        )
        assert fisher_at(family, 1.0) == 0.0

    @pytest.mark.parametrize("iprime", [0.0, 0.3, 0.7, 1.0])
    def test_distinguishable_maximum_is_shot_noise(self, iprime):
        # The supremum 2(1 + I') sits where a class probability vanishes, so
        # rounding there must not push the maximum above it.
        report = maximize_fisher(two_photon_family(iprime, 0.0))
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
        def evaluator(thetas):
            p = np.maximum(thetas, 0.0)
            return np.column_stack([p, 1.0 - p])

        family = FringeFamily(evaluator=evaluator, classes=(0, 1), n_photons=1)
        with pytest.raises(SingularFisherError):
            fisher_at(family, 0.0)

    def test_evaluates_three_phases_once(self):
        family = counting_family(
            four_photon_schmidt(SchmidtSpectrum([0.8, 0.6]), 0.9), 0.0282
        )
        seen = []

        def counted(thetas):
            seen.append(thetas)
            return family.evaluator(thetas)

        theta = 0.4
        value = fisher_at(FringeFamily(counted, family.classes, family.n_photons), theta)
        assert len(seen) == 1
        assert seen[0].tolist() == [theta, theta + 5e-5, theta - 5e-5]
        # The central-difference sum of those three rows, bit for bit.
        p0, pp, pm = family.evaluator(seen[0])
        expected = 0.0
        for p, d in zip(p0.tolist(), ((pp - pm) / 1e-4).tolist()):
            expected += d * d / p
        assert value == expected

    def test_smooth_vanishing_class_is_not_singular(self):
        # Class 4 vanishes as theta^4: p = 1.0e-14 here with derivative
        # 4p/theta = 1.1e-10, so the term it would add is p'^2/p = 1.2e-6,
        # below the 1e-4 under which a vanishing class is dropped.
        family = counting_family(four_photon_pair_ensemble(0.479, 1.0), 0.0)
        coeff, harmonics = _family_coefficients(family)
        theta = 3.5059e-4
        exact = reference_fisher(coeff, harmonics, np.array([theta]))[0]
        assert fisher_at(family, theta) == pytest.approx(exact, rel=1e-6)

    def test_class_vanishing_as_theta_squared_stays_singular(self):
        # Class 2 is 6.5e-15 here, but its term p'^2/p = 2(1 + I') = 2.6 is a
        # finite share of the information, not one to drop.
        with pytest.raises(SingularFisherError):
            fisher_at(two_photon_family(0.3, 0.0), 1e-7)

    def test_matches_exact_fourier_rows_near_class_zeros(self):
        # Measured on these families and phases: evaluated probabilities lie
        # within 2.0e-15 of the Fourier rows and difference quotients within
        # 4.8e-9 of the exact derivative; each margin below doubles that.  A
        # phase that raises has a dead class at least 161 cuts steep, and
        # one that returns has none above 0.2 cuts.
        dp, dd = 4e-15, 1e-8
        near = np.geomspace(1e-7, 1e-2)
        thetas = np.concatenate([near, math.pi / 2 + near, math.pi - near])
        families = [counting_family(probe, zeta) for probe, zeta in REFERENCE_PROBES]
        raised = dead_returned = 0
        for family in families + [two_photon_family(0.3, 0.0)]:
            coeff, harmonics = _family_coefficients(family)
            basis = _basis(harmonics, thetas)
            probs, derivs = coeff @ basis, np.abs(_derivative(coeff, harmonics) @ basis)
            for theta, p, d in zip(thetas.tolist(), probs.T, derivs.T):
                cut = np.maximum(1e-10, 1e-2 * np.sqrt(np.maximum(p, 0.0)))
                dead = p < 1e-14
                try:
                    value = fisher_at(family, theta)
                except SingularFisherError:
                    raised += 1
                    assert np.any((p < 1e-14 + dp) & (d > cut))
                    continue
                if np.any(np.abs(p - 1e-14) <= dp):
                    continue  # a class at the cut: either judgement is rounding
                assert np.all(d[dead] < cut[dead])
                dead_returned += dead.any()
                p, d = p[~dead], d[~dead]
                margin = np.sum((d * d * dp / p + 2 * d * dd + dd * dd) / p)
                assert abs(value - np.sum(d * d / p)) <= margin
        assert raised and dead_returned

    def test_non_finite_probabilities_rejected(self):
        family = FringeFamily(
            evaluator=lambda thetas: np.column_stack([np.full(len(thetas), math.nan), np.ones(len(thetas))]),
            classes=(0, 1),
            n_photons=1,
        )
        with pytest.raises(ValueError):
            fisher_at(family, 0.2)
        with pytest.raises(ValueError, match="non-finite class probability"):
            maximize_fisher(family)


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
        with pytest.raises(ValueError, match="n must be a positive integer"):
            small_angle_fisher(2.5, 1.0)  # int() gave 12.0
        assert small_angle_fisher(np.int64(2), 1.0) == small_angle_fisher(2.0, 1.0) == 12.0

    @pytest.mark.parametrize("indist", [0.25, 0.5, 1.0])
    def test_heisenberg_proportional_scaling(self, indist):
        # Per-photon information grows linearly in n with slope I/2 exactly,
        # and the brute-force simulator confirms each point.
        for n in (1, 2, 3):
            formula = small_angle_fisher(n, indist)
            assert formula / (2 * n) == pytest.approx(1 + indist * n, abs=1e-12)
            family = counting_family(dual_fock_mismatched(n, indist))
            numeric = fisher_at(family, 1e-3)
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
        assert fisher_at(family, 1e-3) == pytest.approx(
            result.value, rel=1e-4
        )

    @pytest.mark.parametrize(
        "iprime,zeta,message",
        [
            (1.5, 0.0, "iprime 1.5 outside [0, 1]"),
            (-0.1, 0.0119, "iprime -0.1 outside [0, 1]"),
            (1.5, 1.0, "iprime 1.5 outside [0, 1]"),
            (0.5, -0.01, "zeta -0.01 outside [0, 1)"),
            (0.5, 1.0, "zeta 1.0 outside [0, 1)"),
        ],
    )
    def test_out_of_range_arguments(self, iprime, zeta, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            optimal_fisher_two_photon(iprime, zeta)

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

    def test_closed_form_is_the_numeric_maximum(self):
        grid = np.linspace(0.0, 1.0, 51)
        for zeta in (0.0, 0.0119, 0.0282, 0.05, 0.2):
            curve = predicted_fprime_curve(grid, zeta)
            numeric = np.array([optimal_fisher_two_photon(float(ip), zeta).value / 2.0 for ip in grid])
            assert np.abs(curve / numeric - 1.0).max() <= 1e-12, zeta

    @pytest.mark.parametrize(
        "iprimes, zeta, message",
        [
            ([0.5, 1.5], 0.0119, "iprime 1.5 outside [0, 1]"),
            ([-0.1], 0.0119, "iprime -0.1 outside [0, 1]"),
            ([0.5, math.nan], 0.0119, "iprime nan outside [0, 1]"),
            ([0.5], 1.0, "zeta 1.0 outside [0, 1)"),
            ([0.5], -0.01, "zeta -0.01 outside [0, 1)"),
            ([0.5], math.nan, "zeta nan outside [0, 1)"),
            ([], 1.0, "zeta 1.0 outside [0, 1)"),
        ],
    )
    def test_out_of_range_arguments(self, iprimes, zeta, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            predicted_fprime_curve(iprimes, zeta)


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
        with pytest.raises(ValueError, match="lambda4"):
            four_photon_pair_ensemble(0.0, 1.0)
        with pytest.raises(ValueError, match="zeta"):
            predict_four_photon_extremes(0.479, 1.0)

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

    def test_full_purity_is_the_double_pair_alone(self):
        # At lambda4 = 1 the distinct pairs weigh exactly 0, so without
        # background the rows are the double pair's own, bit for bit.
        got = predict_four_photon_extremes(1.0, 0.0)
        for tau, value in zip((1.0, 0.0), got):
            assert value == maximize_fisher(counting_family(dual_fock_mismatched(2, tau), 0.0)).per_photon

    def test_vanishing_purity_limit(self):
        _, zero = predict_four_photon_extremes(1e-9, 0.0)
        assert zero == pytest.approx(1.0, abs=1e-3)

    def test_mixed_tables_match_the_ensembles(self, monkeypatch):
        # The same rows, up to rounding, as mixing the ensemble's class
        # probabilities before the Fourier map; and the same maxima, but for
        # the _ROUNDING crater at zeta = 0, where the maximum sits at a zero
        # of a class probability and a last-bit change in a row moves the
        # zooms' result by up to about 3e-9 (the crater's depth is 4e-7).
        rows = recording_maximiser(monkeypatch)
        for lam4 in (1e-9, 0.05, 0.3, 0.479, 0.75, 1.0):
            for zeta in (0.0, 0.0119, 0.0282, 0.2, 0.7):
                rows.clear()
                got = predict_four_photon_extremes(lam4, zeta)
                (coeff,) = rows
                for i, tau in enumerate((1.0, 0.0)):
                    family = counting_family(four_photon_pair_ensemble(lam4, tau), zeta)
                    want = _family_coefficients(family)[0]
                    assert np.abs(coeff[i] - want).max() <= 1e-15, (lam4, zeta, tau)
                    reference = maximize_fisher(family).per_photon
                    if zeta > 0:
                        assert got[i] == pytest.approx(reference, rel=1e-13, abs=0), (lam4, zeta, tau)
                    else:
                        assert got[i] == pytest.approx(reference, rel=0, abs=1e-8), (lam4, tau)

    @pytest.mark.parametrize(
        "lam4, zeta, message",
        [
            (0.5, 1.0, "zeta 1.0 outside [0, 1)"),
            (0.5, math.nan, "zeta nan outside [0, 1)"),
            (0.0, 1.0, "zeta 1.0 outside [0, 1)"),
            (math.nan, 0.1, "lambda4 nan outside (0, 1]"),
            (0.0, 0.1, "lambda4 0.0 outside (0, 1]"),
            (-0.5, 0.1, "lambda4 -0.5 outside (0, 1]"),
        ],
    )
    def test_out_of_range_arguments(self, lam4, zeta, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            predict_four_photon_extremes(lam4, zeta)

    def test_component_tables_are_read_only(self):
        table = metrology._four_photon_tables()
        before = table.copy()
        assert table.shape == (3, 2, 3, 9) and not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0, 0, 0] = 1.0
        for lam4, zeta in ((0.479, 0.0282), (1.0, 0.0), (1e-9, 0.5)):
            predict_four_photon_extremes(lam4, zeta)
        assert metrology._four_photon_tables() is table
        assert np.array_equal(table, before)

    def test_ensemble_weights(self):
        ens = four_photon_pair_ensemble(0.5, 1.0)
        weights = [w for w, _ in ens.components]
        assert weights == pytest.approx([2 / 3, 1 / 3])
        pure = four_photon_pair_ensemble(1.0, 1.0)
        assert len(pure.components) == 1

    @pytest.mark.parametrize(
        "lambdas", [[1.0], [0.8, 0.6], [0.7, 0.5, 0.4, math.sqrt(0.1)]], ids=["1", "2", "4"]
    )
    def test_ensemble_matches_schmidt_expansion(self, lambdas):
        spectrum = SchmidtSpectrum(lambdas)
        thetas = np.concatenate([np.random.default_rng(3).uniform(-7.0, 7.0, 8), np.arange(9) * 2 * math.pi / 9])
        for tau in (0.0, 0.3, 0.7, 1.0):
            ensemble = four_photon_pair_ensemble(lambda4(spectrum), tau)
            got = PathSectors(ensemble).class_probabilities(thetas)
            want = rotated_probabilities(four_photon_schmidt(spectrum, tau), 0.0, thetas)
            assert np.max(np.abs(got - want)) < 1e-14

    def test_ensemble_rejects_overlap_outside_unit_interval(self):
        for tau in (-0.5, 1.5):
            with pytest.raises(ValueError, match="cross_overlap"):
                four_photon_pair_ensemble(1.0, tau)
            # and so do the two states it mixes
            with pytest.raises(ValueError, match="cross_overlap"):
                two_distinct_pairs(tau)
            with pytest.raises(ValueError, match="cross_overlap"):
                four_photon_schmidt(SchmidtSpectrum([1.0]), tau)


class TestFourPhotonFringe:
    def test_table_rows_match_the_pair_ensemble(self, monkeypatch):
        # The rows summed by the table route against the reference route's,
        # the pair ensemble rotated at 2N + 1 phases.
        rows = []
        real = metrology._fourier_probabilities

        def recorded(coeff, *args):
            rows.append(coeff.copy())
            return real(coeff, *args)

        monkeypatch.setattr(metrology, "_fourier_probabilities", recorded)
        for lam4 in (1e-9, 0.3, 0.479, 1.0):
            for tau in (0.0, 0.25, 0.5, 0.75, 1.0):
                fringe = metrology.four_photon_fringe(lam4, tau)
                for zeta in (0.0, 0.0282, 0.5):
                    rows.clear()
                    fringe(zeta, [0.0])
                    family = counting_family(four_photon_pair_ensemble(lam4, tau), zeta)
                    want, harmonics = _family_coefficients(family)
                    assert family.classes == (0, 2, 4) and harmonics == (1, 2, 3, 4)
                    assert np.abs(rows[0] - want).max() <= 2e-15, (lam4, tau, zeta)

    def test_counts_match_the_pair_ensemble_on_the_benchmark_draws(self):
        # The benchmark's four_photon_fit ranges: lambda1 in [0.7, 0.95] and
        # tau in [0.5, 1] at zeta = 0.0282, 32 phases, 1e5 counts a point,
        # and its fixed cold op (0.8, 1.0).  A last-bit change in a mean
        # moves no Poisson draw here.
        noise = cli.detection.NoiseAndEfficiencyConfig(zeta=0.0282, bins_per_arm=4)
        rng = np.random.default_rng(2016)
        draws = [(0.8, 1.0, 20160302)] + [
            (float(0.7 + 0.25 * u), float(0.5 + 0.5 * v), int(s))
            for u, v, s in zip(rng.random(40), rng.random(40), rng.integers(0, 2**30, 40))
        ]
        for lam1, tau, seed in draws:
            lam4 = lambda4(SchmidtSpectrum([lam1, math.sqrt(1.0 - lam1 * lam1)]))
            _, etas, points, table = cli._simulate_points(
                four_photon_pair_ensemble(lam4, tau), noise, DEFAULT_PHASES, 1e5, seed
            )
            probs = metrology.four_photon_fringe(lam4, tau)(noise.zeta, DEFAULT_PHASES)
            assert np.abs(probs - table).max() <= 2e-15
            assert cli._draw_counts(4, probs, noise, DEFAULT_PHASES, 1e5, seed) == (etas, points), (lam1, tau)

    def test_bad_arguments_fail_as_the_ensemble_does(self):
        for lam4, tau in ((0.5, -0.5), (0.5, 1.5), (0.5, math.nan), (0.0, 0.5), (1.5, 2.0)):
            with pytest.raises(ValueError) as want:
                four_photon_pair_ensemble(lam4, tau)
            with pytest.raises(ValueError, match=re.escape(str(want.value))):
                metrology.four_photon_fringe(lam4, tau)
        with pytest.raises(ValueError, match=re.escape("zeta 1.0 outside [0, 1)")):
            metrology.four_photon_fringe(0.5, 0.5)(1.0, DEFAULT_PHASES)


class TestReports:
    @pytest.mark.parametrize("zeta", [math.nan, 2.0, -0.1])
    def test_counting_family_checks_zeta_when_built(self, zeta):
        # No evaluator call: the family is refused as two_photon_family's is.
        message = re.escape(f"zeta {zeta} outside [0, 1)")
        with pytest.raises(ValueError, match=message):
            two_photon_family(0.6, zeta)
        with pytest.raises(ValueError, match=message):
            counting_family(spdc_two_photon(0.6), zeta)

    def test_counting_family_matches_analytic_family(self):
        sim = counting_family(spdc_two_photon(0.6), zeta=0.0119)
        closed = two_photon_family(0.6, 0.0119)
        thetas = np.linspace(0, 2 * math.pi, 9)
        for ps, pc in zip(sim.evaluator(thetas), closed.evaluator(thetas)):
            for key in (0, 1):
                assert ps[key] == pytest.approx(pc[key], abs=1e-12)

    def test_fourier_samples_reproduce_rotation(self):
        for probe, zeta in REFERENCE_PROBES:
            family = counting_family(probe, zeta)
            coeff, harmonics = _family_coefficients(family)
            fourier = coeff @ _basis(harmonics, REFERENCE_THETAS)
            direct = rotated_probabilities(probe, zeta, REFERENCE_THETAS)
            assert np.max(np.abs(fourier.T - direct)) < 1e-12
        for probe, zeta in REFERENCE_PROBES[-4:]:
            family = counting_family(probe, zeta)
            report = maximize_fisher(family)
            assert report.max_fisher == pytest.approx(
                fisher_at(family, report.argmax_theta), rel=1e-6
            )

    def test_fringe_probabilities_reject_a_phase_past_the_float_range(self):
        # Harmonic 2 carries 1e308 to infinity, where the series is NaN.
        family = counting_family(*REFERENCE_PROBES[0])
        assert family.n_photons == 2
        with pytest.raises(ValueError, match=r"not finite at phase 1e\+308"):
            fringe_probabilities(family, [1.0, 1e308])

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
            def evaluate(thetas):
                p = 0.5 + (0.5 + depth) * np.cos(thetas)
                return np.column_stack([p, 1.0 - p])

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

            def counted(thetas):
                seen.extend(thetas)
                return family.evaluator(thetas)

            return FringeFamily(counted, family.classes, family.n_photons)

        monkeypatch.setattr(cli.metrology, "counting_family", counted_family)
        noise = cli.detection.NoiseAndEfficiencyConfig(zeta=0.0282, bins_per_arm=4)
        for probe in (spdc_two_photon(0.6), four_photon_schmidt(SchmidtSpectrum([0.8, 0.6]), 0.7)):
            seen.clear()
            cli._simulate_points(probe, noise, DEFAULT_PHASES, 1e5, 3)
            assert len(seen) == 2 * probe.total_photons + 1

    def test_fisher_report_json(self):
        report = maximize_fisher(two_photon_family(0.5, 0.0119))
        data = json.loads(json.dumps(cli._fisher_section(report)))
        assert set(data) == {"theta", "fisher", "max", "argmax", "per_photon"}
        assert len(data["theta"]) == len(data["fisher"]) == 256
        assert data["per_photon"] == pytest.approx(data["max"] / 2)


# ---------------------------------------------------------------------------
# The phase maximiser against the nested zoom it replaced.


def reference_fisher(coeff, harmonics, thetas):
    """Information sum d^2 / (p + _ROUNDING) over live classes of Fourier
    rows (..., classes, coefficients) at one grid or one grid per leading
    index, (..., phases), as the maximiser evaluated it before polishing."""
    k = np.asarray(harmonics, dtype=float)[:, None]
    kt = k * thetas[..., None, :]
    cos, sin = np.cos(kt), np.sin(kt)
    a, b = coeff[..., 1::2], coeff[..., 2::2]
    p = coeff[..., :1] + a @ cos + b @ sin
    d = b @ (k * cos) - a @ (k * sin)
    live = p > _ROUNDING
    return np.where(live, d * d / np.where(live, p + _ROUNDING, 1.0), 0.0).sum(axis=-2)


def zoom_reference(coeff, harmonics):
    """The maximiser before Newton polishing, kept as the oracle: a 256-cell
    midpoint scan of (0, pi) whose first maximal cell seeds three nested
    129-point zooms, each one spacing of the previous level on either side
    and clipped to (0, pi).  Returns each trial's argmax and maximum."""
    lo, hi = 0.0, math.pi
    h = (hi - lo) / 256
    grid = lo + (np.arange(256) + 0.5) * h
    values = reference_fisher(coeff, harmonics, grid)
    trials = np.arange(len(coeff))
    i = np.argmax(values, axis=1)
    theta_star, f_star = grid[i], values[trials, i]
    half = h
    for _ in range(3):
        start = np.maximum(lo, theta_star - half)
        zoom = start[:, None] + (np.minimum(hi, theta_star + half) - start)[:, None] * (
            np.arange(129) / 128
        )
        zoom_values = reference_fisher(coeff, harmonics, zoom)
        j = np.argmax(zoom_values, axis=1)
        better = zoom_values[trials, j] > f_star
        theta_star = np.where(better, zoom[trials, j], theta_star)
        f_star = np.where(better, zoom_values[trials, j], f_star)
        half /= 64.0
    return theta_star, f_star


def two_photon_dataset(iprime, zeta, total, seed):
    """Poisson counts of the two-photon fringe at 32 phases from theta = 0."""
    rng = np.random.default_rng(seed)
    family = two_photon_family(iprime, zeta)
    etas = class_efficiencies(2, 4)
    points = []
    for theta, row in zip(DEFAULT_PHASES, family.evaluator(DEFAULT_PHASES)):
        counts = {c: int(rng.poisson(total * p * etas[c])) for c, p in zip((0, 2), row)}
        points.append((float(theta), counts))
    return FringeDataset(tuple(points), etas)


def refit_coefficients(monkeypatch, dataset, seed):
    """Coefficients (trials, classes, coefficients) of 100 bootstrap refits."""
    seen = []
    real = estimation._maximize_fourier_fisher

    def capture(coeff, harmonics):
        seen.append(coeff)
        return real(coeff, harmonics)

    monkeypatch.setattr(estimation, "_maximize_fourier_fisher", capture)
    bootstrap_errors(fit_mle(dataset, [2]), dataset, 100, seed)
    monkeypatch.undo()
    return seen[-1]


def maximiser_corpus(monkeypatch):
    """(label, coefficients, harmonics): two-photon families, four-photon
    ensembles and dual-Fock n = 1-4 at five noise levels, and 100 bootstrap
    refits of two-photon data at 1e5 and 300 counts per point.  Every
    maximum is over the one window the maximiser has, (0, pi)."""
    corpus = []
    for zeta in (0.0, 0.005, 0.0119, 0.0282, 0.05):
        families = [(f"two I'={ip}", two_photon_family(ip, zeta)) for ip in (0.0, 0.3, 0.7, 1.0)]
        probes = [
            (f"four L={lam} tau={tau}", four_photon_pair_ensemble(lam, tau))
            for lam in (0.1, 0.479, 1.0)
            for tau in (0.0, 0.5, 1.0)
        ]
        probes += [
            (f"dual n={n} I={indist}", dual_fock_mismatched(n, indist))
            for n in (1, 2, 3, 4)
            for indist in (0.0, 0.5, 1.0)
        ]
        families += [(label, counting_family(probe, zeta)) for label, probe in probes]
        for label, family in families:
            coeff, harmonics = _family_coefficients(family)
            corpus.append((f"{label} zeta={zeta}", coeff[None], harmonics))
    for seed, (total, iprime, zeta) in enumerate(
        (t, ip, z) for t in (1e5, 300) for ip in (0.0, 0.6, 1.0) for z in (0.0, 0.0119)
    ):
        dataset = two_photon_dataset(iprime, zeta, total, seed)
        coeff = refit_coefficients(monkeypatch, dataset, seed + 100)
        corpus.append((f"refits {total} I'={iprime} zeta={zeta}", coeff, (2,)))
    return corpus


def recording_polish(monkeypatch):
    """Patch ``metrology._polish`` to append each call's list of finished
    flags to the list returned; a trial that did not finish takes the zooms."""
    calls = []
    real = metrology._polish

    def recorded(*args):
        result = real(*args)
        calls.append(result[2].tolist())
        return result

    monkeypatch.setattr(metrology, "_polish", recorded)
    return calls


def recording_maximiser(monkeypatch):
    """Patch ``metrology._maximize_fourier_fisher`` to append each call's
    coefficient rows to the list returned."""
    rows = []
    real = metrology._maximize_fourier_fisher

    def recorded(coeff, *args):
        rows.append(coeff.copy())
        return real(coeff, *args)

    monkeypatch.setattr(metrology, "_maximize_fourier_fisher", recorded)
    return rows


class TestPhaseMaximiser:
    def test_matches_or_beats_the_nested_zoom(self, monkeypatch):
        # A maximum at a zero of a class probability sits in F's rounding
        # noise, about 1e-16 / p relative, so it is held to 1e-9 there and
        # to 1e-12 elsewhere.
        trials = 0
        for label, coeff, harmonics in maximiser_corpus(monkeypatch):
            grid, values, theta, f = _maximize_fourier_fisher(coeff, harmonics)
            ref_theta, ref_f = zoom_reference(coeff, harmonics)
            assert values.shape == (len(coeff), 256), label
            assert np.all((0.0 <= theta) & (theta <= math.pi)), label
            at_theta = reference_fisher(coeff, harmonics, theta[:, None])[:, 0]
            assert np.allclose(f, at_theta, rtol=1e-9, atol=0), label
            at_ref = (coeff @ np.moveaxis(_basis(harmonics, ref_theta), 0, -1)[..., None])[..., 0]
            vanishing = at_ref.min(axis=1) < 1e-6
            low = (ref_f - f) / ref_f
            assert np.all(low[~vanishing] <= 1e-12), (label, low[~vanishing].max())
            assert np.all(low[vanishing] <= 1e-9), (label, low[vanishing].max())
            trials += len(coeff)
        assert trials > 1_000

    def test_readme_sweep_never_falls_back_to_zooms(self, monkeypatch, tmp_path):
        calls = recording_polish(monkeypatch)
        cfg = tmp_path / "fig3.json"
        cfg.write_text(
            json.dumps(
                {
                    "iprimes": [0.0, 0.2, 0.4, 0.6, 0.8, 1.0],
                    "zeta": 0.0119,
                    "phases": {"count": 32},
                    "expected_counts_per_point": 100000,
                    "seed": 7,
                    "restarts": 8,
                    "bootstrap_trials": 100,
                }
            )
        )
        assert cli.main(["reproduce-fig3", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        # Six points, each a fit and its 100 refits; the predicted column is
        # a closed form and takes no maximiser call.
        finished = sum(calls, [])
        assert len(finished) == 6 * 101 and all(finished)

    def test_vanishing_class_takes_the_zooms(self, monkeypatch):
        calls = recording_polish(monkeypatch)
        report = maximize_fisher(two_photon_family(0.6, 0.0))
        assert calls == [[False]]
        assert report.max_fisher == pytest.approx(3.2, rel=1e-6)

    def test_mirror_maxima_report_the_lower_phase(self):
        # F(theta) = F(pi - theta) here; the two scan cells agree to rounding.
        family = counting_family(four_photon_pair_ensemble(0.479, 0.0), 0.0282)
        report = maximize_fisher(family)
        assert report.argmax_theta == pytest.approx(0.27614, abs=1e-5)
        coeff, harmonics = _family_coefficients(family)
        for index in np.ndindex(coeff.shape):
            for direction in (-np.inf, np.inf):
                nudged = coeff.copy()
                nudged[index] = np.nextafter(nudged[index], direction)
                theta = _maximize_fourier_fisher(nudged[None], harmonics)[2][0]
                assert theta == pytest.approx(report.argmax_theta, abs=1e-6), index

    def test_extremes_are_one_batch_of_the_two_overlaps(self, monkeypatch):
        calls = recording_polish(monkeypatch)
        rows = recording_maximiser(monkeypatch)
        full, zero = predict_four_photon_extremes(0.479, 0.0282)
        assert calls == [[True, True]]
        monkeypatch.undo()
        (coeff,) = rows
        for i, got in enumerate((full, zero)):
            alone = _maximize_fourier_fisher(coeff[i : i + 1], (1, 2, 3, 4))[3]
            assert got == float(alone[0]) / 4.0

    def test_scan_holds_little_more_than_its_rows(self, monkeypatch):
        # A bootstrap's scan of 101 trials holds its value and derivative
        # rows, (trials, 4, 256) floats, and sums the information in them in
        # place.  Three more arrays of half their size at once took a fig3
        # op's heap past the size at which malloc hands it back to the
        # system, and every op faulted about 470 pages in again.
        coeff = refit_coefficients(monkeypatch, two_photon_dataset(0.6, 0.0119, 1e5, 0), 100)
        _maximize_fourier_fisher(coeff, (2,))
        tracemalloc.start()
        try:
            _maximize_fourier_fisher(coeff, (2,))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * coeff.shape[0] * 4 * 256 * 8

    def test_a_trial_gets_the_same_bits_in_any_batch(self, monkeypatch):
        # A trial that finishes early must not take the rest of the batch's
        # steps: each refit's maximum alone is its maximum among the 100.
        coeff = refit_coefficients(monkeypatch, two_photon_dataset(0.6, 0.0119, 1e5, 0), 100)
        _, _, theta, f = _maximize_fourier_fisher(coeff, (2,))
        for i in range(len(coeff)):
            _, _, one_theta, one_f = _maximize_fourier_fisher(coeff[i : i + 1], (2,))
            assert (one_theta[0], one_f[0]) == (theta[i], f[i]), i
