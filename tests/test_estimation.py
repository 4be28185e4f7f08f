import dataclasses
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from corpus import CORPORA, HARMONICS, certificate_failures, checked_fit, dual_fock_corpus

from fringelab import estimation
from fringelab.cli import _bootstrap_section, _draw_counts
from fringelab.detection import NoiseAndEfficiencyConfig, class_efficiencies
from fringelab.errors import IllPosedError
from fringelab.estimation import (
    FitResult,
    FourierFringeModel,
    FringeDataset,
    _FitProblem,
    _fit_batch,
    _Geometry,
    _local_minima,
    _newton,
    _solve_stack,
    bootstrap_errors,
    fisher_from_model,
    fit_mle,
    log_likelihood,
)
from fringelab.fock import dual_fock_mismatched, four_photon_schmidt, spdc_two_photon
from fringelab.metrology import (
    _basis,
    _grid,
    _maximize_fourier_fisher,
    counting_family,
    fringe_probabilities,
    optimal_fisher_two_photon,
    two_photon_family,
)
from fringelab.spectral import SchmidtSpectrum


def two_photon_model(iprime, zeta=0.0):
    """Exact-coefficient model of the two-photon class fringes."""
    amp = (1 + iprime) / 4 * (1 - zeta)
    coeff = np.array(
        [
            [(3 - iprime) / 4 * (1 - zeta) + zeta / 2, amp, 0.0],
            [(1 + iprime) / 4 * (1 - zeta) + zeta / 2, -amp, 0.0],
        ]
    )
    return FourierFringeModel((0, 2), (2,), coeff)


def synth_dataset(iprime, zeta, total, n_phases, seed, bins_per_arm=4):
    rng = np.random.default_rng(seed)
    family = two_photon_family(iprime, zeta)
    etas = class_efficiencies(2, bins_per_arm)
    points = []
    thetas = (np.arange(n_phases) + 0.5) * 2 * math.pi / n_phases
    for theta, row in zip(thetas, family.evaluator(thetas)):
        probs = dict(zip(family.classes, row))
        counts = {c: int(rng.poisson(total * probs[c] * etas[c])) for c in (0, 2)}
        points.append((float(theta), counts))
    return FringeDataset(tuple(points), etas)


def cli_dataset(probe, zeta, total, n_phases, seed):
    """The dataset ``fringelab simulate`` writes: n phases from theta = 0."""
    noise = NoiseAndEfficiencyConfig(zeta=zeta, bins_per_arm=4)
    phases = 2 * math.pi * np.arange(n_phases) / n_phases
    table = fringe_probabilities(counting_family(probe, zeta), phases)
    etas, points = _draw_counts(probe.total_photons, table, noise, phases, total, seed)
    return FringeDataset(tuple(points), etas)


def bits(value):
    """Every bit of ``value``: arrays by dtype, shape and bytes, dataclasses
    field by field, anything else (floats and tuples of them) by repr."""
    if dataclasses.is_dataclass(value):
        return tuple(bits(getattr(value, field.name)) for field in dataclasses.fields(value))
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    return repr(value)


def traced_peak(fit, dataset, trials):
    """Peak memory traced while bootstrapping ``fit`` with ``trials`` trials."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        bootstrap_errors(fit, dataset, trials=trials, seed=1)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def bootstrap_loop(fit, dataset, trials, seed):
    """Reference for ``bootstrap_errors``: the per-trial loop over the rows
    of one ``poisson(lam, size=(trials,) + lam.shape)`` draw from
    ``default_rng(seed)``, then one ``fit_mle`` and one ``fisher_from_model``
    per trial.  Returns the draws (trials, classes, phases), coefficients,
    converged flags and maximum Fisher information."""
    thetas, counts, eta = dataset.arrays()
    lam_t = (counts / eta[:, None]).sum(axis=0)
    lam = np.maximum(lam_t[None, :] * fit.model.probs_at(thetas) * eta[:, None], 0.0)
    draws, coefs, converged, max_fs = [], [], [], []
    for fake in np.random.default_rng(seed).poisson(lam, size=(trials,) + lam.shape):
        points = tuple(
            (float(th), {c: int(fake[k, j]) for k, c in enumerate(dataset.classes)})
            for j, th in enumerate(thetas)
        )
        refit = fit_mle(FringeDataset(points, dataset.efficiencies), fit.model.harmonics)
        draws.append(fake)
        coefs.append(refit.model.coefficients)
        converged.append(refit.converged)
        max_fs.append(fisher_from_model(refit.model).max_fisher)
    return (
        np.array(draws, dtype=float),
        np.array(coefs),
        np.array(converged),
        np.array(max_fs),
    )


class TestLogLikelihood:
    def test_hand_computed_two_point_case(self):
        ds = FringeDataset(
            ((0.7, {0: 3, 2: 1}), (2.0, {0: 2, 2: 2})),
            {0: 1.0, 2: 0.5},
        )
        model = two_photon_model(0.0)
        expected = 0.0
        for theta, counts in ds.points:
            lam_t = counts[0] / 1.0 + counts[2] / 0.5
            probs = model.evaluate(theta)
            for c, eta in ((0, 1.0), (2, 0.5)):
                lam = lam_t * probs[c] * eta
                x = counts[c]
                expected += x * math.log(lam) - lam - math.lgamma(x + 1)
        assert log_likelihood(model, ds) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("x", [0, 1, 170, 171, 10**6, 10**15])
    def test_matches_scipy_poisson_log_masses(self, x):
        # 170! is the largest factorial below the float range.
        from scipy.stats import poisson

        ds = FringeDataset(
            ((0.7, {0: x, 2: x // 3 + 1}), (2.0, {0: x // 2, 2: x}), (2.6, {0: 1, 2: 0})),
            {0: 1.0, 2: 0.75},
        )
        model = two_photon_model(0.5)
        expected = []
        for theta, counts in ds.points:
            lam_t = sum(counts[c] / eta for c, eta in ds.efficiencies.items())
            probs = model.evaluate(theta)
            for c, eta in ds.efficiencies.items():
                expected.append(poisson.logpmf(counts[c], lam_t * probs[c] * eta))
        assert log_likelihood(model, ds) == pytest.approx(math.fsum(expected), rel=1e-12, abs=0)

    @pytest.mark.parametrize(
        "dataset",
        [
            synth_dataset(0.8, 0.0119, 10_000, 16, seed=77),
            cli_dataset(spdc_two_photon(0.6), 0.0, 3000, 12, seed=5),
        ],
        ids=["interior", "walls"],
    )
    def test_fit_reports_log_likelihood_of_its_model(self, dataset):
        fit = fit_mle(dataset, [2])
        assert math.isfinite(fit.log_likelihood)
        assert fit.log_likelihood == pytest.approx(
            log_likelihood(fit.model, dataset), rel=1e-12, abs=0
        )

    def test_zero_dataset_is_zero(self):
        ds = FringeDataset(
            tuple((t, {0: 0, 2: 0}) for t in np.linspace(0, 2 * math.pi, 9)),
            {0: 1.0, 2: 1.0},
        )
        assert log_likelihood(two_photon_model(0.5), ds) == 0.0

    def test_impossible_count_gives_minus_infinity(self):
        # The iprime = 1 model puts zero weight on the bunched class at
        # theta = 0, so observing a count there is impossible.
        ds = FringeDataset(((0.0, {0: 5, 2: 1}),), {0: 1.0, 2: 1.0})
        assert log_likelihood(two_photon_model(1.0), ds) == -math.inf

    def test_classes_must_match_the_dataset(self):
        ds = FringeDataset(((0.0, {0: 5, 2: 1}),), {0: 1.0, 2: 1.0, 4: 1.0})
        with pytest.raises(ValueError, match="model and dataset classes differ"):
            log_likelihood(two_photon_model(0.5), ds)

    def test_mle_is_local_maximum(self):
        ds = synth_dataset(0.6, 0.0, total=50_000, n_phases=16, seed=3)
        fit = fit_mle(ds, [2])
        base = log_likelihood(fit.model, ds)
        rng = np.random.default_rng(17)
        for _ in range(20):
            bump = rng.normal(scale=2e-3, size=(1, 3))
            coeff = fit.model.coefficients.copy()
            coeff[0] += bump[0]
            coeff[1] -= bump[0]
            try:
                perturbed = FourierFringeModel((0, 2), (2,), coeff)
            except ValueError:
                continue  # perturbation left the probability simplex
            assert log_likelihood(perturbed, ds) <= base


class TestModelValidation:
    def test_columns_must_normalize(self):
        coeff = np.array([[0.6, 0.1, 0.0], [0.3, -0.1, 0.0]])
        with pytest.raises(ValueError):
            FourierFringeModel((0, 2), (2,), coeff)

    def test_probabilities_must_be_nonnegative(self):
        coeff = np.array([[0.5, 0.6, 0.0], [0.5, -0.6, 0.0]])
        with pytest.raises(ValueError):
            FourierFringeModel((0, 2), (2,), coeff)

    @pytest.mark.parametrize(
        "harmonics", [[], (), [2, 2], [0, 2], [2.5]], ids=["empty-list", "empty-tuple", "repeated", "zero", "fraction"]
    )
    def test_one_harmonics_rule_for_fit_and_model(self, harmonics):
        ds = synth_dataset(0.6, 0.0, 500, 8, seed=2)
        with pytest.raises(ValueError, match="harmonics must be"):
            fit_mle(ds, harmonics)
        with pytest.raises(ValueError, match="harmonics must be"):
            FourierFringeModel((0, 2), harmonics, two_photon_model(0.6).coefficients)

    def test_dataset_validation(self):
        with pytest.raises(ValueError):
            FringeDataset(((0.0, {0: -1}),), {0: 1.0})
        with pytest.raises(ValueError):
            FringeDataset(((0.0, {0: 1}),), {0: 0.0})
        with pytest.raises(ValueError):
            FringeDataset(((0.0, {5: 1}),), {0: 1.0})
        # A fractional class label was truncated to an integral one.
        with pytest.raises(ValueError, match="class labels must be integers"):
            FringeDataset(((0.0, {0.5: 10, 2: 3}),), {0: 0.9, 2: 0.5})
        with pytest.raises(ValueError, match="class labels must be integers"):
            FringeDataset(((0.0, {0: 10}),), {0.7: 0.9})
        with pytest.raises(ValueError, match="phases must be finite"):
            FringeDataset(((math.nan, {0: 1}),), {0: 1.0})
        with pytest.raises(ValueError, match="dataset has no points"):
            FringeDataset((), {0: 1.0})
        ds = FringeDataset(((0.0, {np.int64(0): 10, 2.0: 3}),), {0.0: 0.9, np.int64(2): 0.5})
        assert ds.points == ((0.0, {0: 10, 2: 3}),) and ds.classes == (0, 2)
        # A model takes its class labels by the same rule.
        coeff = two_photon_model(0.6).coefficients
        with pytest.raises(ValueError, match="class labels must be integers"):
            FourierFringeModel((0.5, 2), (2,), coeff)
        with pytest.raises(ValueError, match="non-empty and unique"):
            FourierFringeModel((0, 0), (2,), coeff)
        with pytest.raises(ValueError, match="coefficient array has shape"):
            FourierFringeModel((0, 2), (2,), coeff[:, :2])
        assert FourierFringeModel((np.int64(0), 2.0), (2,), coeff).classes == (0, 2)

    def test_dataset_arrays_are_built_once_and_read_only(self):
        # A class missing at a phase counts 0 there; the arrays are the same
        # objects on every call, so no caller may write into them.
        ds = FringeDataset(((0.5, {0: 7}), (-1.0, {2: 3, 0: 4})), {2: 0.5, 0: 0.9})
        thetas, counts, eta = ds.arrays()
        assert thetas.tolist() == [0.5, -1.0] and eta.tolist() == [0.9, 0.5]
        assert counts.dtype == float and counts.tolist() == [[7.0, 4.0], [0.0, 3.0]]
        assert all(a is b for a, b in zip(ds.arrays(), (thetas, counts, eta)))
        for array in (thetas, counts, eta):
            with pytest.raises(ValueError, match="read-only"):
                array[0] += 1.0
        assert ds == FringeDataset(ds.points, ds.efficiencies)

    def test_model_coefficients_are_read_only(self):
        # A write after the checks would break the normalization they
        # proved: a c0 of 5 made the class probabilities sum to 5.4.
        given = two_photon_model(0.6).coefficients.copy()
        model = FourierFringeModel((0, 2), (2,), given)
        with pytest.raises(ValueError, match="read-only"):
            model.coefficients[0, 0] = 5.0
        assert sum(model.evaluate(0.3).values()) == pytest.approx(1.0, abs=1e-15)
        given[0, 0] = 5.0  # the caller's array stays its own
        assert model.coefficients[0, 0] != 5.0

    def test_dips_are_found_at_harmonics_whose_square_passes_int64(self):
        # 3.1e9 squared is past 2^63: squared as integers it wrapped to
        # -8.8e18, and the samples' bend bound cleared this model.  Class 0
        # is 0.3 - 0.3504 + 0.05 = -4e-4 at theta = pi / k, as it is at
        # harmonics (1, 2), which were refused.
        coeff = [[0.3, 0.3504, 0, 0.05, 0], [0.7, -0.3504, 0, -0.05, 0]]
        k = 3_100_000_000
        for harmonics in [(1, 2), (k, 2 * k)]:
            with pytest.raises(ValueError, match="model probabilities are negative at some phase"):
                FourierFringeModel((0, 2), harmonics, coeff)

    @pytest.mark.parametrize("column", [0, 1])
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
    def test_coefficients_must_be_finite(self, bad, column):
        # A row of inf and the row that cancels it once raised numpy's
        # warning in the column sum before the model's own error.
        coeff = two_photon_model(0.6).coefficients.copy()
        coeff[:, column] = [bad, -bad]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match="coefficients must be finite"):
                FourierFringeModel((0, 2), (2,), coeff)


class TestFitMle:
    def test_near_deterministic_counts_recover_coefficients(self):
        family = two_photon_family(0.8, 0.0)
        etas = {0: 1.0, 2: 1.0}
        points = []
        thetas = (np.arange(24) + 0.5) * 2 * math.pi / 24
        for theta, row in zip(thetas, family.evaluator(thetas)):
            probs = dict(zip(family.classes, row))
            points.append(
                (float(theta), {c: int(round(1e6 * probs[c])) for c in (0, 2)})
            )
        ds = FringeDataset(tuple(points), etas)
        fit = fit_mle(ds, [2])
        assert fit.converged
        truth = two_photon_model(0.8).coefficients
        assert np.abs(fit.model.coefficients - truth).max() < 1e-3

    def test_synthetic_recovery_within_absolute_band(self):
        ds = synth_dataset(0.8, 0.0, total=10_000, n_phases=16, seed=11)
        fit = fit_mle(ds, [2])
        assert fit.converged
        truth = two_photon_family(0.8, 0.0)
        for theta in np.linspace(0, 2 * math.pi, 32):
            fitted = fit.model.evaluate(float(theta))[0]
            assert fitted == pytest.approx(truth.evaluator(np.array([theta]))[0, 0], abs=0.01)
        # Even with the fringe bottom at the boundary, the fitted-model
        # information stays near the noiseless value instead of diverging.
        assert 3.0 < fisher_from_model(fit.model).max_fisher < 4.3

    def test_single_phase_is_ill_posed(self):
        points = tuple((0.3, {0: 10, 2: 5}) for _ in range(10))
        ds = FringeDataset(points, {0: 1.0, 2: 1.0})
        with pytest.raises(IllPosedError):
            fit_mle(ds, [2])

    def test_narrow_span_is_ill_posed(self):
        points = tuple(
            (float(t), {0: 10, 2: 5}) for t in np.linspace(0, 1.0, 10)
        )
        ds = FringeDataset(points, {0: 1.0, 2: 1.0})
        with pytest.raises(IllPosedError):
            fit_mle(ds, [2])

    def test_aliased_harmonics_are_ill_posed(self):
        # sin(6 theta) vanishes at all 12 equally spaced phases, so no count
        # would set its coefficient.
        noise = NoiseAndEfficiencyConfig(zeta=0.0119, bins_per_arm=6)
        phases = 2 * math.pi * np.arange(12) / 12
        family = counting_family(dual_fock_mismatched(3, 0.5), noise.zeta)
        etas, points = _draw_counts(family.n_photons, fringe_probabilities(family, phases), noise, phases, 300, 5)
        with pytest.raises(IllPosedError, match="12 phases alias harmonics"):
            fit_mle(FringeDataset(tuple(points), etas), [2, 4, 6])

    def test_phase_beyond_the_float_range_is_ill_posed(self):
        # 2 * 1e308 overflows, so the harmonic-2 basis there would be NaN.
        points = tuple((float(t), {0: 50, 2: 20}) for t in [*np.linspace(0, 4, 9), 1e308])
        far = FringeDataset(points, {0: 1.0, 2: 1.0})
        fit = fit_mle(FringeDataset(points[:-1], far.efficiencies), [2])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IllPosedError, match="beyond the float range at harmonic 2"):
                fit_mle(far, [2])
            with pytest.raises(IllPosedError, match="beyond the float range at harmonic 2"):
                bootstrap_errors(fit, far, trials=10, seed=3)

    def test_one_class_is_ill_posed(self):
        # Its probability is 1 at every phase, so no coefficient is free.
        points = tuple((float(t), {0: 50}) for t in np.linspace(0, 4, 9))
        with pytest.raises(IllPosedError, match="at least 2 classes, got 1"):
            fit_mle(FringeDataset(points, {0: 1.0}), [2])

    def test_extreme_efficiencies_are_ill_posed(self):
        points = tuple((float(t), {0: 50, 2: 20}) for t in np.linspace(0, 4, 9))
        fit = fit_mle(FringeDataset(points, {0: 1.0, 2: 1.0}), [2])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # 50 / 5e-324 overflows; at 1e-200, class 2 holds 4e-201 of the total.
            for eta in (5e-324, 1e-200):
                dataset = FringeDataset(points, {0: eta, 2: 1.0})
                with pytest.raises(IllPosedError, match="total at phase 0.0 is beyond the float range, or"):
                    fit_mle(dataset, [2])
                with pytest.raises(IllPosedError, match="total at phase 0.0 is beyond the float range, or"):
                    bootstrap_errors(fit, dataset, trials=10, seed=3)

    def test_no_counts_is_ill_posed(self):
        # With every count 0 each phase's total is 0, so the likelihood is
        # flat in the model and any model fits.
        points = tuple((float(t), {0: 0, 2: 0}) for t in np.linspace(0, 4, 9))
        dataset = FringeDataset(points, {0: 0.75, 2: 0.5625})
        with pytest.raises(IllPosedError, match="no phase holds a count"):
            fit_mle(dataset, [2])
        with pytest.raises(IllPosedError, match="no phase holds a count"):
            bootstrap_errors(FitResult(two_photon_model(0.5), 0.0, True), dataset, trials=10, seed=3)

    def test_resampling_mean_above_the_poisson_limit_is_ill_posed(self):
        # Class 0's 1e8 counts at efficiency 1e-12 make a total of 1e20, and
        # a model with class 2 at 1/2 asks 5e19 of it: numpy draws no
        # Poisson count from a mean above about 9.2e18.
        points = tuple((float(t), {0: 10**8, 2: 10**6}) for t in np.linspace(0, 4, 9))
        dataset = FringeDataset(points, {0: 1e-12, 2: 1.0})
        half = FourierFringeModel((0, 2), (2,), [[0.5, 0.0, 0.0], [0.5, 0.0, 0.0]])
        with pytest.raises(IllPosedError, match="above the Poisson limit 9.223372006484771e"):
            bootstrap_errors(FitResult(half, 0.0, True), dataset, trials=10, seed=3)

    def test_low_count_corpus_fits_carry_their_certificates(self):
        # Datasets 0-59 of each corpus; ``python tests/corpus.py`` fits all
        # of them.  Most meet walls at zero-count cells (every four-photon
        # fringe has some), several of them a period of the model apart, and
        # many dual-Fock fits dip between the data cells until walls at the
        # dips close them.
        failures = {}
        for name, corpus, _, harmonics in CORPORA:
            for i, dataset in enumerate(corpus(range(60))):
                _, _, found = checked_fit(dataset, harmonics)
                if found:
                    failures[name, i] = found
        assert failures == {}

    def test_normalization_holds_identically(self):
        ds = synth_dataset(0.5, 0.0119, total=5000, n_phases=16, seed=5)
        fit = fit_mle(ds, [2])
        grid = np.linspace(0, 2 * math.pi, 360, endpoint=False)
        sums = fit.model.probs_at(grid).sum(axis=0)
        assert np.allclose(sums, 1.0, atol=1e-12)

    def test_positive_and_negative_delta_fits_aggregate_consistently(self):
        # Split the bunched counts into signed classes, fit three classes,
        # and compare the aggregated fringe to the direct two-class fit.
        rng = np.random.default_rng(23)
        family = two_photon_family(0.7, 0.0)
        total = 20_000
        signed_points, merged_points = [], []
        thetas = (np.arange(16) + 0.5) * 2 * math.pi / 16
        for theta, row in zip(thetas, family.evaluator(thetas)):
            probs = dict(zip(family.classes, row))
            n_plus = int(rng.poisson(total * probs[2] / 2))
            n_minus = int(rng.poisson(total * probs[2] / 2))
            n_zero = int(rng.poisson(total * probs[0]))
            signed_points.append((float(theta), {0: n_zero, 2: n_plus, -2: n_minus}))
            merged_points.append((float(theta), {0: n_zero, 2: n_plus + n_minus}))
        signed = FringeDataset(tuple(signed_points), {0: 1.0, 2: 1.0, -2: 1.0})
        merged = FringeDataset(tuple(merged_points), {0: 1.0, 2: 1.0})
        fit_signed = fit_mle(signed, [2])
        fit_merged = fit_mle(merged, [2])
        classes = fit_signed.model.classes
        idx_plus, idx_minus = classes.index(2), classes.index(-2)
        for theta in np.linspace(0, 2 * math.pi, 16):
            probs = fit_signed.model.probs_at(np.array([theta]))[:, 0]
            aggregated = probs[idx_plus] + probs[idx_minus]
            direct = fit_merged.model.evaluate(float(theta))[2]
            assert aggregated == pytest.approx(direct, abs=0.02)

    @pytest.mark.parametrize(
        "dataset,harmonics,doubled",
        [
            # Interior optimum: every class probability stays positive.
            (synth_dataset(0.8, 0.0119, 10_000, 16, seed=77), (2,), 0.0),
            # The fit CLI test's data: zero counts at theta = 0 and pi.
            (cli_dataset(spdc_two_photon(0.6), 0.0, 3000, 12, seed=5), (2,), 0.0),
            # Four photons without background: zero counts next to class zeros.
            (
                cli_dataset(
                    four_photon_schmidt(SchmidtSpectrum([0.8, 0.6]), 1.0), 0.0, 3000, 32, seed=11
                ),
                (2, 4),
                0.0,
            ),
            # Dual-Fock n = 3 at 100 counts: the fit dips between the data
            # cells, so its last solve holds walls at the dips as well.
            (dual_fock_corpus((20,))[0], (2, 4, 6), 0.0),
            # The same walls, each doubled 1e-6 rad on: pairs of nearly
            # parallel rows, whose block KKT systems are nearly singular.
            (dual_fock_corpus((20,))[0], (2, 4, 6), 1e-6),
        ],
        ids=["interior", "zero-counts", "four-photon", "dips", "doubled-dips"],
    )
    def test_one_optimum_from_any_start(self, monkeypatch, dataset, harmonics, doubled):
        # The walls are those of the fit's last solve; the 40 starts run as
        # one batch of the same data and walls.
        walls = []

        def recorded(geometry, counts, eta, dips):
            walls.append(dips)
            return _FitProblem(geometry, counts, eta, dips)

        monkeypatch.setattr(estimation, "_FitProblem", recorded)
        fit_mle(dataset, harmonics)
        _, cls, theta = walls[-1]
        assert (len(walls) > 1) == (cls.size > 0)
        if doubled:
            assert cls.size
            cls, theta = np.tile(cls, 2), np.concatenate([theta, theta + doubled])
        thetas, counts, eta = dataset.arrays()
        geometry = _Geometry(thetas, dataset.classes, harmonics)
        n_starts = 40
        dips = (np.repeat(np.arange(n_starts), cls.size), np.tile(cls, n_starts), np.tile(theta, n_starts))
        problem = _FitProblem(geometry, np.repeat(counts[None], n_starts, axis=0), eta, dips)
        tol = 1e-9 * (1.0 + counts.sum())
        uniform = np.tile(geometry.target / len(dataset.classes), (geometry.n_free, 1))

        def feasible(start):
            z = start.reshape(1, -1)
            levels = problem.apply(z, np.array([0]))[0] + problem.offset[0]
            finite = np.isfinite(problem.objective(z, np.array([0]))[0][0])
            return finite and np.all(levels[problem.walls[0]] >= 0.0)

        rng = np.random.default_rng(5)
        starts = [uniform]
        for _ in range(n_starts - 1):
            start = uniform.copy()
            start[:, 1:] += rng.uniform(-0.3, 0.3, size=start[:, 1:].shape)
            while not feasible(start):
                start = 0.5 * (start + uniform)
            starts.append(start)
        free, values, converged = _newton(problem, np.array([s.ravel() for s in starts]))
        assert converged.all()
        for i, z in enumerate(free):
            assert not certificate_failures(problem, i, z)
        # A point a hundredth of the way back to uniform is feasible, and short.
        assert certificate_failures(problem, 0, 0.99 * free[0] + 0.01 * uniform.ravel())
        assert values.max() - values.min() <= tol


NO_DIPS = (np.zeros(0, dtype=int), np.zeros(0, dtype=int), np.zeros(0))


def count_objective(monkeypatch):
    """Count the objective evaluations of every later solve."""
    calls = []
    real = _FitProblem.objective

    def counted(self, free, trials):
        calls.append(len(trials))
        return real(self, free, trials)

    monkeypatch.setattr(_FitProblem, "objective", counted)
    return calls


class TestStart:
    def test_noise_free_fractions_start_at_the_optimum(self, monkeypatch):
        # Counts proportional to the model give its coefficients back by
        # projection, at phases neither equally spaced nor distinct.
        coeff = np.array(
            [
                [0.4, 0.1, 0.03, 0.05, -0.02],
                [0.35, -0.05, 0.01, -0.05, 0.0],
                [0.25, -0.05, -0.04, 0.0, 0.02],
            ]
        )
        harmonics = (2, 4)
        thetas = np.sort(np.random.default_rng(4).uniform(0.0, 2 * math.pi, size=20))
        thetas[5] = thetas[4]
        eta = np.array([0.9, 0.6, 0.4])
        counts = 1e5 * (coeff @ _basis(harmonics, thetas)) * eta[:, None]
        geometry = _Geometry(thetas, (0, 2, 4), harmonics)
        start = geometry.start(counts[None], eta)
        assert np.abs(geometry.assemble(start)[0] - coeff).max() <= 1e-12
        calls = count_objective(monkeypatch)
        free, _, converged = _newton(_FitProblem(geometry, counts[None], eta, NO_DIPS), start)
        assert converged.all() and len(calls) <= 2
        assert np.abs(free - start).max() <= 1e-12

    def test_phase_without_counts_fits_without_warning(self):
        ds = synth_dataset(0.7, 0.0119, 5000, 16, seed=3)
        points = list(ds.points)
        points[6] = (points[6][0], {0: 0, 2: 0})
        ds = FringeDataset(tuple(points), ds.efficiencies)
        thetas, counts, eta = ds.arrays()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            start = _Geometry(thetas, ds.classes, (2,)).start(counts[None], eta)
            fit = fit_mle(ds, [2])
        assert np.isfinite(start).all()
        assert fit.converged
        assert fit.log_likelihood == pytest.approx(log_likelihood(fit.model, ds), rel=1e-12, abs=0)

    def test_high_count_fits_take_few_evaluations(self, monkeypatch):
        # A four-photon fit at 1e5 counts per point, started from the
        # projection of its data, needs two or three Newton steps; from the
        # uniform model it took nine.  The bootstrap's refits run in lockstep.
        ds = cli_dataset(
            four_photon_schmidt(SchmidtSpectrum([0.8, 0.6]), 1.0), 0.0282, 100_000, 32, seed=11
        )
        calls = count_objective(monkeypatch)
        fit = fit_mle(ds, [2, 4])
        assert fit.converged and len(calls) <= 4
        calls.clear()
        boot = bootstrap_errors(fit, ds, trials=20, seed=3)
        assert boot.failed_refits == 0 and len(calls) <= 4


class TestSolverSafety:
    def test_singular_system_in_a_stack_is_nan_alone(self):
        rng = np.random.default_rng(0)
        kkt, rhs = rng.normal(size=(4, 5, 5)), rng.normal(size=(4, 5))
        kkt[2, :, 1] = 0.0
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(kkt, rhs[..., None])
        out = _solve_stack(kkt, rhs)
        assert np.isnan(out[2]).all()
        for i in (0, 1, 3):
            assert np.array_equal(out[i], np.linalg.solve(kkt[i], rhs[i]))

    def test_exhausted_line_search_stops_only_its_trial(self):
        ds = synth_dataset(0.6, 0.0119, 5000, 16, seed=2)
        thetas, counts, eta = ds.arrays()
        draws = np.random.default_rng(3).poisson(counts, size=(3,) + counts.shape).astype(float)
        geometry = _Geometry(thetas, ds.classes, (2,))
        start = geometry.start(draws, eta)
        problem = _FitProblem(geometry, draws, eta, NO_DIPS)
        evaluate, stuck = problem.objective, []

        def never_rises(free, trials):
            # Trial 1 never rises above its start.
            value, grad, hess = evaluate(free, trials)
            stuck.append((trials == 1).sum())
            return np.where((trials == 1) & (len(stuck) > 1), -np.inf, value), grad, hess

        problem.objective = never_rises
        free, values, converged = _newton(problem, start)
        # Its start, then the 60 halvings of one line search.
        assert sum(stuck) == 61
        assert not converged[1] and np.array_equal(free[1], start[1])
        for j in (0, 2):
            alone = _newton(_FitProblem(geometry, draws[j : j + 1], eta, NO_DIPS), start[j : j + 1])
            assert alone[2][0] and converged[j]
            assert np.array_equal(free[j], alone[0][0]) and values[j] == alone[1][0]


# Magnitudes for the ratio test: 0, the smallest subnormal and normal,
# 1 and the largest float, inf and NaN, besides any float.
_MAGNITUDES = st.one_of(
    st.sampled_from([0.0, 5e-324, 2.2250738585072014e-308, 1.0, 1.7976931348623157e308, math.inf, math.nan]),
    st.floats(min_value=0.0, allow_nan=False),
)


@st.composite
def ratio_cells(draw):
    """(level, slope, seen, open), each (trials, cells), for the ratio test.
    A level is below zero, at zero or any magnitude, or 1 or 1/0.9 times
    -slope, or one ulp either side of it; a slope has either sign; ``open``
    marks a cell that is a candidate and not active."""
    shape = (draw(st.integers(1, 4)), draw(st.integers(1, 6)))
    cells = []
    for _ in range(shape[0] * shape[1]):
        slope = draw(_MAGNITUDES) * draw(st.sampled_from([-1.0, 1.0]))
        edge = draw(st.sampled_from([None, 1.0, 1.0 / 0.9]))
        if edge is None:
            level = draw(_MAGNITUDES) * draw(st.sampled_from([-1.0, 1.0]))
        else:
            level = math.nextafter(-slope * edge, draw(st.sampled_from([-math.inf, math.inf])))
            if draw(st.booleans()):
                level = -slope * edge
        cells.append((level, slope, draw(st.booleans()), draw(st.booleans())))
    level, slope, seen, open_ = (np.array(part).reshape(shape) for part in zip(*cells))
    return np.maximum(level, 0.0), slope, seen, open_


def one_cell(level, slope, seen):
    """``ratio_cells``' arrays for one open cell of one trial."""
    return np.array([[level]]), np.array([[slope]]), np.array([[seen]]), np.array([[True]])


class TestNewtonWork:
    @settings(max_examples=300, deadline=None)
    @given(ratio_cells(), st.sampled_from([0.0, 5e-324, 1e-300, 1e-9, math.nan]))
    @example(one_cell(math.nextafter(1 / 0.9, 0.0), -1.0, True), 0.0)  # a count's cell inside its 0.9 cut
    @example(one_cell(math.nextafter(1.0, 0.0), -1.0, False), 0.0)  # a wall just inside the step
    @example(one_cell(math.inf, -math.inf, False), 0.0)  # inf over inf, a NaN ratio
    @example(one_cell(5e-324, -5e-324, True), 0.0)  # a subnormal ratio of 1
    @example(one_cell(math.nan, -1.0, False), 0.0)
    def test_near_pick_keeps_every_trial_the_ratio_test_stops(self, cells, threshold):
        # A trial the pick leaves out goes the whole step with no blocker,
        # so its full ratio test must give a nearest ratio of 1 or more.
        level, slope, seen, open_ = cells
        crossing = open_ & (slope < -threshold)
        with np.errstate(all="ignore"):  # inf / inf is NaN
            _, nearest = estimation._nearest(level, slope, crossing, seen)
        assert not (~(nearest >= 1.0) & ~estimation._near(level, slope)).any()

    def test_each_iteration_takes_one_slack(self, monkeypatch):
        # A one-trial fit with no wall: every iteration takes its cells' slack
        # and each moving one their slopes; the last only certifies.
        ds = synth_dataset(0.4, 0.0119, 100_000, 32, seed=6)
        log, problems = [], []
        apply, objective = _FitProblem.apply, _FitProblem.objective

        def logged_apply(self, vectors, trials):
            log.append("apply")
            return apply(self, vectors, trials)

        def logged_objective(self, free, trials):
            problems.append(self)
            log.append("objective")
            return objective(self, free, trials)

        monkeypatch.setattr(_FitProblem, "apply", logged_apply)
        monkeypatch.setattr(_FitProblem, "objective", logged_objective)
        fit = fit_mle(ds, [2])
        assert fit.converged and len({id(p) for p in problems}) == 1
        assert not problems[0].walls.any() and not problems[0].dip_rows.shape[1]
        moves = log.count("objective") - 1
        assert moves >= 1 and log.count("apply") == 2 * moves + 1
        assert log[-1] == "apply"


class TestLocalMinima:
    def test_every_dip_over_one_period(self):
        # Harmonics (2, 4) repeat every pi, so the phases lie in [0, pi).
        # The reference refines each local minimum of a dense grid on a
        # finer grid.
        rng = np.random.default_rng(8)
        harmonics = (2, 4)
        grid = np.linspace(0.0, math.pi, 20_000, endpoint=False)
        basis = _basis(harmonics, grid)
        step = np.linspace(-1.0, 1.0, 20_001) * (grid[1] - grid[0])
        for _ in range(200):
            coeff = rng.normal(size=(1, 3, 5))
            trial, cls, theta, value = _local_minima(coeff, harmonics)
            assert np.all(trial == 0) and np.all((0.0 <= theta) & (theta < math.pi))
            for c, probs in enumerate(coeff[0] @ basis):
                dips = np.flatnonzero((probs < np.roll(probs, 1)) & (probs <= np.roll(probs, -1)))
                brute = [(coeff[0, c] @ _basis(harmonics, grid[i] + step)).min() for i in dips]
                found = np.sort(value[cls == c])
                assert found.shape == (len(brute),)
                assert np.abs(found - np.sort(brute)).max() < 1e-12
            lowest = coeff[0] @ _basis(harmonics, theta[np.argmin(value)])
            assert lowest.min() == pytest.approx(value.min(), abs=1e-15)


def sampled_trials(monkeypatch):
    """(trials, trials cleared) of every later ``_samples_clear`` call: the
    trials the coefficient floor leaves to the samples."""
    sent = []
    real = estimation._samples_clear

    def counted(coeff, harmonics):
        cleared = real(coeff, harmonics)
        sent.append((len(coeff), int(cleared.sum())))
        return cleared

    monkeypatch.setattr(estimation, "_samples_clear", counted)
    return sent


def scanned_trials(monkeypatch):
    """The number of trials of every later ``_local_minima`` scan."""
    sent = []
    real = estimation._local_minima

    def counted(coeff, harmonics):
        sent.append(len(coeff))
        return real(coeff, harmonics)

    monkeypatch.setattr(estimation, "_local_minima", counted)
    return sent


class TestCoefficientBound:
    def test_no_row_dips_below_its_floor(self, monkeypatch):
        # Rows of 1-4 harmonics whose floor c0 - sum_k |(a_k, b_k)| lies
        # within a few _NEG_TOL of _NEG_TOL, the line the floor draws.
        rng = np.random.default_rng(25)
        grid = np.linspace(0.0, 2 * math.pi, 20_000, endpoint=False)
        sampled = sampled_trials(monkeypatch)
        cleared = 0
        for _ in range(300):
            harmonics = tuple(sorted(rng.choice(np.arange(1, 9), size=rng.integers(1, 5), replace=False).tolist()))
            waves = rng.normal(size=2 * len(harmonics)) * rng.uniform(0.01, 0.5)
            floor = estimation._NEG_TOL * rng.uniform(-2.0, 4.0)
            row = np.concatenate([[np.hypot(waves[0::2], waves[1::2]).sum() + floor], waves])
            lowest = (row @ _basis(harmonics, grid)).min()
            assert lowest >= floor - 1e-15
            if len(harmonics) == 1:
                # One harmonic reaches its floor.
                assert lowest <= floor + 1e-5
            # The floor's own rounding is about 1e-16.
            sampled.clear()
            estimation._possible_dips(row[None, None], harmonics)
            if not sampled:
                cleared += 1
                assert floor >= estimation._NEG_TOL - 1e-15
                assert _local_minima(row[None, None], harmonics)[3].min() >= 0.0
            else:
                assert floor <= estimation._NEG_TOL + 1e-15
        assert 50 < cleared < 250

    def test_no_row_dips_below_its_samples_bound(self, monkeypatch):
        # Rows of 1-4 harmonics whose dense-grid minimum, or whose bound from
        # the 36 samples a period, lies within a few _NEG_TOL of _NEG_TOL.
        rng = np.random.default_rng(27)
        grid = np.linspace(0.0, 2 * math.pi, 20_000, endpoint=False)
        sent = scanned_trials(monkeypatch)
        cleared = {"dense": 0, "samples": 0}
        for near in ("dense", "samples") * 300:
            harmonics = tuple(sorted(rng.choice(np.arange(1, 9), size=rng.integers(1, 5), replace=False).tolist()))
            waves = rng.normal(size=2 * len(harmonics)) * rng.uniform(0.01, 0.5)
            row = np.concatenate([[0.0], waves])
            # The 36 samples a period are every 20th point of the scan grid.
            period = 2 * math.pi / math.gcd(*harmonics)
            scan = _grid(harmonics, estimation._SCAN_POINTS, -1.0, period / 720)[0]
            assert np.allclose(scan[1:-1:20], np.arange(36) * (period / 36), rtol=0, atol=1e-15)
            samples = row @ _basis(harmonics, scan[1:-1:20])
            bend = (np.hypot(waves[0::2], waves[1::2]) * np.square(harmonics)).sum() * (period / 36) ** 2 / 8
            line = estimation._NEG_TOL * rng.uniform(-2.0, 4.0)
            row[0] = line - ((row @ _basis(harmonics, grid)).min() if near == "dense" else samples.min() - bend)
            lowest = (row @ _basis(harmonics, grid)).min()
            low = (row @ _basis(harmonics, scan[1:-1:20])).min() - bend
            sent.clear()
            found = estimation._possible_dips(row[None, None], harmonics)
            if estimation._samples_clear(row[None, None], harmonics)[0]:
                cleared[near] += 1
                assert low >= estimation._NEG_TOL - 1e-15
                assert lowest >= estimation._NEG_TOL - 1e-15
                assert not sent and not found[0].size
            else:
                assert low <= estimation._NEG_TOL + 1e-15
                if sent:
                    every = _local_minima(row[None, None], harmonics)
                    assert sent == [1] and [bits(a) for a in found] == [bits(a) for a in every]
                else:
                    # The floor cleared it.
                    assert lowest >= estimation._NEG_TOL - 1e-15 and not found[0].size
        # The bound lies below the dense minimum by about the bend, far more
        # than _NEG_TOL here, so no row near the line clears; about half the
        # rows near the bound do.
        assert cleared["dense"] == 0 and 100 < cleared["samples"] < 200

    @pytest.mark.parametrize("column", [0, 1, 2])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_rows_are_scanned(self, monkeypatch, bad, column):
        sent = []

        def recorded(coeff, harmonics):
            sent.append(coeff.copy())
            empty = np.zeros(0, dtype=int)
            return empty, empty, np.zeros(0), np.zeros(0)

        monkeypatch.setattr(estimation, "_local_minima", recorded)
        # A two-photon model the floor clears, and a four-photon model only
        # the samples clear; a bad constant term makes every sample +inf or
        # NaN, or -inf.
        four_photon = fit_mle(
            cli_dataset(four_photon_schmidt(SchmidtSpectrum([0.8, 0.6]), 1.0), 0.0282, 100_000, 32, seed=11), [2, 4]
        ).model.coefficients[None]
        floor = four_photon[0, :, 0] - np.hypot(four_photon[0, :, 1::2], four_photon[0, :, 2::2]).sum(axis=-1)
        assert floor.min() < estimation._NEG_TOL and estimation._samples_clear(four_photon, (2, 4))[0]
        cases = [(two_photon_model(0.6, 0.0119).coefficients[None], (2,), column)]
        cases += [(four_photon, (2, 4), col) for col in (column, column + 2)]
        for model, harmonics, col in cases:
            sent.clear()
            coeff = np.repeat(model, 3, axis=0)
            coeff[1, 0, col] = bad
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                estimation._possible_dips(coeff, harmonics)
            assert len(sent) == 1 and np.array_equal(sent[0], coeff[1:2], equal_nan=True)

    @pytest.mark.parametrize(
        "dataset,harmonics",
        [
            (synth_dataset(0.8, 0.0119, 100_000, 32, seed=7), (2,)),
            (
                cli_dataset(four_photon_schmidt(SchmidtSpectrum([0.8, 0.6]), 1.0), 0.0282, 3000, 32, seed=11),
                (2, 4),
            ),
            # Its fit and most of its refits dip between the data cells.
            (dual_fock_corpus([2])[0], HARMONICS),
        ],
        ids=["two-photon", "four-photon", "dual-Fock-dips"],
    )
    def test_fit_and_bootstrap_bits_do_not_depend_on_the_bound(self, monkeypatch, dataset, harmonics):
        def run():
            fit = fit_mle(dataset, harmonics)
            return bits(fit), bits(bootstrap_errors(fit, dataset, trials=20, seed=3))

        bounded = run()
        # Every trial scanned, as before the bound.
        monkeypatch.setattr(estimation, "_possible_dips", _local_minima)
        assert run() == bounded

    def test_readme_points_scan_nothing_and_dips_still_scan(self, monkeypatch):
        # The README sweep's points: zeta 0.0119, 32 phases, 1e5 counts per
        # point and 100 bootstrap trials.  No class probability comes near
        # zero, so the floor clears every fit, model and refit.
        sampled = sampled_trials(monkeypatch)
        sent = scanned_trials(monkeypatch)
        for i, iprime in enumerate((0.0, 0.2, 0.4, 0.6, 0.8, 1.0)):
            ds = cli_dataset(spdc_two_photon(iprime), 0.0119, 100_000, 32, seed=i)
            fit = fit_mle(ds, [2])
            assert fit.converged and bootstrap_errors(fit, ds, trials=100, seed=i).failed_refits == 0
        assert sampled == [] and sent == []
        # A four-photon fit of the benchmark's shape, its model's check and
        # its 20 refits: the floor clears none of them, and the samples clear
        # them all.
        ds = cli_dataset(four_photon_schmidt(SchmidtSpectrum([0.8, 0.6]), 1.0), 0.0282, 100_000, 32, seed=11)
        fit = fit_mle(ds, [2, 4])
        assert fit.converged and bootstrap_errors(fit, ds, trials=20, seed=3).failed_refits == 0
        assert sampled == [(1, 1), (1, 1), (20, 20)] and sent == []
        assert fit_mle(dual_fock_corpus([2])[0], HARMONICS).converged
        assert sum(sent) > 0


class TestFisherFromModel:
    def test_exact_full_symmetry_model(self):
        report = fisher_from_model(two_photon_model(1.0))
        assert report.max_fisher == pytest.approx(4.0, abs=1e-9)
        assert report.per_photon == pytest.approx(2.0, abs=1e-9)

    def test_flat_model_carries_no_information(self):
        coeff = np.array([[0.5, 0.0, 0.0], [0.5, 0.0, 0.0]])
        report = fisher_from_model(FourierFringeModel((0, 2), (2,), coeff))
        assert report.max_fisher == 0.0

    def test_cross_module_equivalence(self):
        model = two_photon_model(0.5, 0.0119)
        report = fisher_from_model(model)
        reference = optimal_fisher_two_photon(0.5, 0.0119)
        assert report.max_fisher == pytest.approx(reference.value, abs=1e-6)
        assert report.argmax_theta == pytest.approx(reference.theta, abs=1e-5)

    def test_four_photon_model_photon_number(self):
        coeff = np.array(
            [
                [0.4, 0.1, 0.0, 0.05, 0.0],
                [0.35, -0.05, 0.0, -0.05, 0.0],
                [0.25, -0.05, 0.0, 0.0, 0.0],
            ]
        )
        model = FourierFringeModel((0, 2, 4), (2, 4), coeff)
        report = fisher_from_model(model)
        assert report.per_photon == pytest.approx(report.max_fisher / 4)


class TestBootstrap:
    def test_sigma_calibrated_against_outer_simulation(self):
        # Independent outer loop: many fresh datasets, fit each, spread of
        # max-F across them is the truth the bootstrap must approximate.
        total, phases, zeta = 10_000, 16, 0.0119
        outer = []
        for k in range(500):
            ds = synth_dataset(0.8, zeta, total, phases, seed=20_000 + k)
            fit = fit_mle(ds, [2])
            outer.append(fisher_from_model(fit.model).max_fisher)
        outer_sigma = float(np.std(outer, ddof=1))

        ds = synth_dataset(0.8, zeta, total, phases, seed=77)
        fit = fit_mle(ds, [2])
        boot = bootstrap_errors(fit, ds, trials=500, seed=99)
        assert boot.sigma_max_fisher == pytest.approx(outer_sigma, rel=0.30)

    def test_flat_model_spread_small_and_nonnegative(self):
        rng = np.random.default_rng(31)
        etas = {0: 1.0, 2: 1.0}
        points = tuple(
            (float(t), {0: int(rng.poisson(500)), 2: int(rng.poisson(500))})
            for t in np.linspace(0, 2 * math.pi, 16, endpoint=False)
        )
        ds = FringeDataset(points, etas)
        fit = fit_mle(ds, [2])
        boot = bootstrap_errors(fit, ds, trials=100, seed=5)
        assert boot.sigma_max_fisher < 0.2
        assert boot.sigma_max_fisher >= 0.0

    def test_doubling_counts_shrinks_sigma_by_root_two(self):
        sigmas = []
        for total in (10_000, 20_000):
            ds = synth_dataset(0.8, 0.0119, total, 16, seed=41)
            fit = fit_mle(ds, [2])
            boot = bootstrap_errors(fit, ds, trials=300, seed=11)
            sigmas.append(boot.sigma_max_fisher)
        ratio = sigmas[1] / sigmas[0]
        assert ratio == pytest.approx(1 / math.sqrt(2), rel=0.20)

    def test_deterministic_under_fixed_seed(self):
        ds = synth_dataset(0.6, 0.0, 5000, 16, seed=2)
        fit = fit_mle(ds, [2])
        a = bootstrap_errors(fit, ds, trials=25, seed=123)
        b = bootstrap_errors(fit, ds, trials=25, seed=123)
        assert a.sigma_max_fisher == b.sigma_max_fisher
        assert np.array_equal(a.sigma_coefficients, b.sigma_coefficients)

    def test_minimum_trials(self):
        ds = synth_dataset(0.6, 0.0, 500, 8, seed=2)
        fit = fit_mle(ds, [2])
        with pytest.raises(ValueError):
            bootstrap_errors(fit, ds, trials=1, seed=0)

    def test_trials_must_be_integral(self):
        # 2.5 trials once ran 2 refits.
        ds = synth_dataset(0.6, 0.0, 500, 8, seed=2)
        fit = fit_mle(ds, [2])
        for trials in (2.5, math.inf, math.nan):
            with pytest.raises(ValueError, match=f"trials must be an integer, got {trials!r}"):
                bootstrap_errors(fit, ds, trials=trials, seed=0)
        assert bootstrap_errors(fit, ds, trials=3.0, seed=0).trials == 3

    def test_failed_refits_counted(self, monkeypatch):
        ds = synth_dataset(0.6, 0.0119, 5000, 16, seed=2)
        fit = fit_mle(ds, [2])
        real_fit_batch = estimation._fit_batch
        batches = []

        def every_other_fails(geometry, counts, eta):
            coeff, ll, converged = real_fit_batch(geometry, counts, eta)
            batches.append(len(counts))
            return coeff, ll, converged & (np.arange(len(counts)) % 2 == 1)

        monkeypatch.setattr(estimation, "_fit_batch", every_other_fails)
        boot = bootstrap_errors(fit, ds, trials=10, seed=3)
        assert batches == [10]
        assert boot.failed_refits == 5
        monkeypatch.undo()
        assert bootstrap_errors(fit, ds, trials=10, seed=3).failed_refits == 0

    @pytest.mark.parametrize(
        "dataset,harmonics,seed,refines,walls",
        [
            # Interior optimum, no walls: one Newton solve of the whole batch.
            (synth_dataset(0.6, 0.0119, 5000, 16, seed=2), (2,), 3, False, False),
            # No background: every trial has walls, and most dip between the
            # data cells, so they are solved again with walls at the dips.
            (cli_dataset(spdc_two_photon(0.6), 0.0, 3000, 12, seed=5), (2,), 3, True, True),
            # Few four-photon refits dip between the cells; at seed 26 one of
            # the 20 does, and takes three more solves alone.
            (
                cli_dataset(
                    four_photon_schmidt(SchmidtSpectrum([0.8, 0.6]), 1.0), 0.0282, 3000, 32, seed=11
                ),
                (2, 4),
                26,
                True,
                None,
            ),
        ],
        ids=["interior", "walls", "four-photon"],
    )
    def test_batch_matches_per_trial_loop(self, monkeypatch, dataset, harmonics, seed, refines, walls):
        fit = fit_mle(dataset, harmonics)
        draws, coefs, converged, max_fs = bootstrap_loop(fit, dataset, 20, seed=seed)
        solves = []
        real_newton = estimation._newton

        def counted(problem, free0):
            solves.append(len(free0))
            return real_newton(problem, free0)

        monkeypatch.setattr(estimation, "_newton", counted)
        boot = bootstrap_errors(fit, dataset, trials=20, seed=seed)
        assert solves[0] == 20 and (len(solves) > 1) == refines
        assert boot.failed_refits == int((~converged).sum())
        assert boot.sigma_max_fisher == pytest.approx(np.std(max_fs, ddof=1), rel=1e-9, abs=0)
        assert np.allclose(boot.sigma_coefficients, np.std(coefs, axis=0, ddof=1), rtol=1e-9, atol=0)

        thetas, _, eta = dataset.arrays()
        geometry = _Geometry(thetas, dataset.classes, harmonics)
        has_walls = _FitProblem(geometry, draws, eta, NO_DIPS).walls.any(axis=1)
        if walls is not None:
            assert has_walls.all() if walls else not has_walls.any()
        batch_coefs, _, batch_converged = _fit_batch(geometry, draws, eta)
        assert np.abs(batch_coefs - coefs).max() <= 1e-10
        assert np.array_equal(batch_converged, converged)
        batch_fs = _maximize_fourier_fisher(batch_coefs, harmonics)[3]
        assert np.allclose(batch_fs, max_fs, rtol=1e-9, atol=0)
        # A trial's refit does not depend on the trials batched with it.
        part_coefs, _, part_converged = _fit_batch(geometry, draws[3:10], eta)
        assert np.array_equal(part_coefs, batch_coefs[3:10])
        assert np.array_equal(part_converged, batch_converged[3:10])

    def test_first_trials_are_the_same_bits_for_any_trial_count(self, monkeypatch):
        ds = synth_dataset(0.6, 0.0119, 5000, 16, seed=2)
        fit = fit_mle(ds, [2])
        real_fit_batch = estimation._fit_batch
        draws = []

        def captured(geometry, counts, eta):
            draws.append(counts.copy())
            return real_fit_batch(geometry, counts, eta)

        monkeypatch.setattr(estimation, "_fit_batch", captured)
        bootstrap_errors(fit, ds, trials=10, seed=3)
        bootstrap_errors(fit, ds, trials=25, seed=3)
        short, long = draws
        assert short.shape == (10, 2, 16) and long.shape == (25, 2, 16)
        assert np.array_equal(long[:10], short)

    @pytest.mark.parametrize("block_trials", [1, 7, 10])
    def test_blocks_give_the_one_block_bits(self, monkeypatch, block_trials):
        ds = cli_dataset(spdc_two_photon(0.6), 0.0, 3000, 12, seed=5)
        fit = fit_mle(ds, [2])
        whole = bootstrap_errors(fit, ds, trials=25, seed=3)
        real_fit_batch = estimation._fit_batch
        batches = []

        def counted(geometry, counts, eta):
            batches.append(len(counts))
            return real_fit_batch(geometry, counts, eta)

        monkeypatch.setattr(estimation, "_fit_batch", counted)
        # 2 classes x (12 phases + the dip scan's points): a budget of that
        # times block_trials, plus a remainder short of one more trial.
        cells = 2 * (12 + estimation._SCAN_POINTS)
        monkeypatch.setattr(estimation, "_BLOCK_CELLS", cells * block_trials + cells - 1)
        blocked = bootstrap_errors(fit, ds, trials=25, seed=3)
        assert len(batches) >= 3 and set(batches[:-1]) == {block_trials} and sum(batches) == 25
        for field in dataclasses.fields(whole):
            assert np.array_equal(getattr(blocked, field.name), getattr(whole, field.name)), field.name

    def test_peak_memory_is_bounded_by_one_block(self):
        # Two classes at 256 phases, each with the dip scan's points.
        ds = synth_dataset(0.8, 0.0119, 100_000, 256, seed=7)
        fit = fit_mle(ds, [2])
        one_block = estimation._BLOCK_CELLS // (2 * (256 + estimation._SCAN_POINTS))
        assert traced_peak(fit, ds, 2000) <= 1.25 * traced_peak(fit, ds, one_block)

    def test_peak_memory_of_short_trials_is_bounded_by_one_block(self):
        # At 8 phases the dip scan, not the data, fills most of a trial's
        # cells, so 2,000 trials take several blocks.
        ds = synth_dataset(0.8, 0.0119, 100_000, 8, seed=7)
        fit = fit_mle(ds, [2])
        one_block = estimation._BLOCK_CELLS // (2 * (8 + estimation._SCAN_POINTS))
        assert one_block < 2000
        assert traced_peak(fit, ds, 2000) <= 1.25 * traced_peak(fit, ds, one_block)

    @pytest.mark.parametrize(
        "dataset,harmonics,block_trials",
        [
            (synth_dataset(0.6, 0.0119, 5000, 16, seed=2), (2,), None),
            # No background: the maximum sits at a class's zero, where the
            # maximiser zooms; one trial a block.
            (cli_dataset(spdc_two_photon(0.6), 0.0, 3000, 12, seed=5), (2,), 1),
            (
                cli_dataset(four_photon_schmidt(SchmidtSpectrum([0.8, 0.6]), 1.0), 0.0282, 3000, 32, seed=11),
                (2, 4),
                None,
            ),
        ],
        ids=["two-photon", "zoomed", "four-photon"],
    )
    def test_fisher_is_fisher_from_model(self, monkeypatch, dataset, harmonics, block_trials):
        fit = fit_mle(dataset, harmonics)
        if block_trials is not None:
            cells = len(dataset.classes) * (len(dataset.points) + estimation._SCAN_POINTS)
            monkeypatch.setattr(estimation, "_BLOCK_CELLS", cells * block_trials)
        boot = bootstrap_errors(fit, dataset, trials=10, seed=3)
        assert bits(boot.fisher) == bits(fisher_from_model(fit.model))

    def test_model_harmonic_order_is_kept(self):
        ds = cli_dataset(four_photon_schmidt(SchmidtSpectrum([0.8, 0.6]), 1.0), 0.0282, 3000, 32, seed=11)
        fit = fit_mle(ds, [2, 4])
        # Columns [c0, cos 2, sin 2, cos 4, sin 4] as [c0, cos 4, sin 4, cos 2, sin 2].
        swap = [0, 3, 4, 1, 2]
        model = FourierFringeModel(fit.model.classes, (4, 2), fit.model.coefficients[:, swap])
        boot = bootstrap_errors(fit, ds, trials=20, seed=3)
        swapped = bootstrap_errors(dataclasses.replace(fit, model=model), ds, trials=20, seed=3)
        assert swapped.sigma_coefficients == pytest.approx(boot.sigma_coefficients[:, swap], rel=1e-9)
        assert swapped.sigma_max_fisher == pytest.approx(boot.sigma_max_fisher, rel=1e-9)

    def test_report_json(self):
        # The fit's own maximum is fit_report.json's fisher section, not a
        # bootstrap field.
        ds = synth_dataset(0.6, 0.0, 500, 8, seed=2)
        fit = fit_mle(ds, [2])
        boot = bootstrap_errors(fit, ds, trials=10, seed=3)
        # The fields in their declared order, as ``fit_report.json`` has them.
        assert json.dumps(_bootstrap_section(boot)) == json.dumps(
            {
                "sigma_max_fisher": boot.sigma_max_fisher,
                "sigma_per_photon": boot.sigma_per_photon,
                "sigma_coefficients": boot.sigma_coefficients.tolist(),
                "trials": 10,
                "failed_refits": boot.failed_refits,
            }
        )


class TestGeometryCache:
    def test_fit_and_bootstrap_bits_do_not_depend_on_the_cache(self):
        ds = cli_dataset(spdc_two_photon(0.6), 0.0, 3000, 12, seed=5)

        def run(cold):
            # Cold: each call builds its own geometry; warm: they share one.
            if cold:
                estimation._cached_geometry.cache_clear()
            fit = fit_mle(ds, [2])
            if cold:
                estimation._cached_geometry.cache_clear()
            return bits(fit), bits(bootstrap_errors(fit, ds, trials=20, seed=3))

        cold = run(cold=True)
        hits = estimation._cached_geometry.cache_info().hits
        assert run(cold=False) == cold
        assert estimation._cached_geometry.cache_info().hits == hits + 2

    def test_other_phases_get_their_own_geometry(self):
        ds = cli_dataset(spdc_two_photon(0.6), 0.0119, 3000, 12, seed=5)
        shifted = FringeDataset(tuple((t + 0.1, c) for t, c in ds.points), ds.efficiencies)

        def cold(data):
            estimation._cached_geometry.cache_clear()
            return bits(fit_mle(data, [2]))

        alone = [cold(ds), cold(shifted)]
        assert alone[0] != alone[1]
        # Each fit right after one on the other phases.
        estimation._cached_geometry.cache_clear()
        assert [bits(fit_mle(data, [2])) for data in (ds, shifted, ds)] == alone + alone[:1]
        assert estimation._cached_geometry.cache_info().misses == 3
