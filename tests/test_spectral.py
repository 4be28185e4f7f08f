import math
import warnings

import numpy as np
import pytest

from fringelab.errors import IllPosedError
from fringelab.spectral import (
    _overlap,
    HomDipFit,
    JsaGrid,
    SchmidtSpectrum,
    double_gaussian_jsa,
    exchange_symmetry,
    fit_hom_dip,
    indistinguishability_from_coincidence,
    lambda4,
    quartic_gaussian_overlap,
    schmidt_spectrum_of,
)


def overlap_oracle(x, sigma, n=1_000_001):
    """Brute-force trapezoid quadrature of the quartic-Gaussian transform."""
    from scipy.special import gamma

    y = np.linspace(-8.0, 8.0, n)
    f = np.exp(-(y**4)) * np.cos(y * x / sigma)
    return 2.0 / gamma(0.25) * np.trapezoid(f, y)


class TestQuarticGaussianOverlap:
    def test_zero_delay_is_one(self):
        assert quartic_gaussian_overlap(0.0, 1.0) == pytest.approx(1.0, abs=1e-9)

    def test_even_in_x(self):
        assert quartic_gaussian_overlap(-3.0, 1.0) == quartic_gaussian_overlap(3.0, 1.0)

    def test_against_trapezoid_oracle(self):
        assert quartic_gaussian_overlap(5.0, 1.0) == pytest.approx(
            overlap_oracle(5.0, 1.0), abs=1e-8
        )

    def test_evenness_on_grid(self):
        xs = np.linspace(0.05, 12.0, 100)
        for x in xs:
            assert quartic_gaussian_overlap(-x, 2.3) == pytest.approx(
                quartic_gaussian_overlap(x, 2.3), abs=1e-12
            )

    def test_bounded_and_envelope_decays(self):
        xs = np.linspace(0.0, 13.0, 131)
        vals = np.array([quartic_gaussian_overlap(x, 1.0) for x in xs])
        assert np.all(np.abs(vals) <= 1.0 + 1e-12)
        # The oscillation envelope decays by windows: peak over [5,7] beats
        # [7,9] beats [9,11]; the tail is small in absolute terms.
        windows = [(5.0, 7.0), (7.0, 9.0), (9.0, 11.0)]
        peaks = [
            np.abs(vals[(xs >= lo) & (xs < hi)]).max() for lo, hi in windows
        ]
        assert peaks[0] > peaks[1] > peaks[2]
        assert np.all(np.abs(vals[xs >= 9.0]) < 0.005)

    @pytest.mark.parametrize("x,sigma", [(math.inf, 1.0), (math.nan, 1.0), (1.0, 0.0), (1.0, -2.0)])
    def test_invalid_arguments(self, x, sigma):
        with pytest.raises(ValueError):
            quartic_gaussian_overlap(x, sigma)


def quad_overlap(u):
    """Adaptive-quadrature reference for q(u) and dq/du."""
    from scipy import integrate
    from scipy.special import gamma

    def transform(f, weight):
        return integrate.quad(
            f, 0.0, 8.0, weight=weight, wvar=u, epsabs=1e-14, epsrel=1e-13, limit=200
        )[0]

    norm = 4.0 / gamma(0.25)
    q = norm * transform(lambda y: math.exp(-(y**4)), "cos")
    dq = -norm * transform(lambda y: y * math.exp(-(y**4)), "sin")
    return q, dq


class TestOverlapEvaluator:
    def test_against_adaptive_quadrature(self):
        us = np.linspace(0.0, 30.0, 121)
        q, dq = _overlap(us), _overlap(us, slope=True)
        want = np.array([quad_overlap(u) for u in us])
        assert np.max(np.abs(q - want[:, 0])) < 1e-13
        assert np.max(np.abs(dq - want[:, 1])) < 1e-12

    def test_zero_beyond_thirty(self):
        us = np.array([30.0 + 1e-9, 30.5, 31.0, 40.0, 100.0])
        q, dq = _overlap(us), _overlap(us, slope=True)
        assert np.all(q == 0.0) and np.all(dq == 0.0)
        assert max(abs(quad_overlap(u)[0]) for u in us) < 1.2e-10

    def test_shapes(self):
        us = np.linspace(0.0, 40.0, 12).reshape(3, 4)
        q, dq = _overlap(us), _overlap(us, slope=True)
        assert q.shape == dq.shape == (3, 4)
        q1, dq1 = _overlap(2.5), _overlap(2.5, slope=True)
        assert isinstance(q1, float) and isinstance(dq1, float)
        xs = np.linspace(-12.0, 12.0, 7)
        curve = quartic_gaussian_overlap(xs, 1.7)
        assert curve.shape == xs.shape
        assert type(quartic_gaussian_overlap(1.0, 1.7)) is float
        singles = [quartic_gaussian_overlap(float(x), 1.7) for x in xs]
        assert np.allclose(curve, singles, rtol=0.0, atol=1e-15)


class TestIndistinguishability:
    @pytest.mark.parametrize("p,expected", [(0.0, 1.0), (0.5, 0.0), (0.25, 0.5)])
    def test_linear_formula(self, p, expected):
        assert indistinguishability_from_coincidence(p) == pytest.approx(expected)

    def test_no_clamp_beyond_half(self):
        assert indistinguishability_from_coincidence(0.75) == pytest.approx(-0.5)

    @pytest.mark.parametrize("p", [-0.1, 1.1])
    def test_out_of_range(self, p):
        with pytest.raises(ValueError):
            indistinguishability_from_coincidence(p)


def random_jsa(rng, n=24):
    axis = np.linspace(-2.0, 2.0, n)
    values = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return JsaGrid(values, axis)


def unchecked_grid(values):
    """A JsaGrid holding ``values`` as given, past the constructor's checks
    and normalization, on a unit-spaced axis."""
    grid = object.__new__(JsaGrid)
    object.__setattr__(grid, "values", np.asarray(values, dtype=complex))
    object.__setattr__(grid, "axis", np.arange(float(len(values))))
    return grid


class TestExchangeSymmetry:
    def test_separable_symmetric_product(self):
        axis = np.linspace(-3.0, 3.0, 41)
        f = np.exp(-(axis**2))
        grid = JsaGrid(np.outer(f, f), axis)
        assert exchange_symmetry(grid) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_modes_overlap_zero(self):
        axis = np.linspace(-3.0, 3.0, 41)
        f = np.exp(-(axis**2))
        g = axis * np.exp(-(axis**2))  # odd against even: discretely orthogonal
        grid = JsaGrid(np.outer(f, g), axis)
        assert exchange_symmetry(grid) == pytest.approx(0.0, abs=1e-12)

    def test_against_double_loop_oracle(self):
        rng = np.random.default_rng(5)
        grid = random_jsa(rng)
        acc = 0.0 + 0.0j
        m = grid.values.shape[0]
        for i in range(m):
            for j in range(m):
                acc += grid.values[i, j] * np.conj(grid.values[j, i])
        acc *= grid.step**2
        assert exchange_symmetry(grid) == pytest.approx(acc.real, abs=1e-10)

    def test_exchange_symmetric_real_grid_gives_one(self):
        rng = np.random.default_rng(6)
        axis = np.linspace(-1.0, 1.0, 20)
        raw = rng.normal(size=(20, 20))
        grid = JsaGrid(raw + raw.T, axis)
        assert exchange_symmetry(grid) == pytest.approx(1.0, abs=1e-9)

    def test_in_unit_interval(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            val = exchange_symmetry(random_jsa(rng))
            assert -1.0 - 1e-12 <= val <= 1.0 + 1e-12

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            JsaGrid(np.ones((3, 4)), np.linspace(0, 1, 3))
        with pytest.raises(ValueError, match="axis length"):
            JsaGrid(np.ones((3, 3)), np.linspace(0, 1, 4))
        with pytest.raises(ValueError, match="strictly increasing"):
            JsaGrid(np.ones((3, 3)), np.array([0.0, 1.0, 0.5]))
        with pytest.raises(ValueError, match="uniformly spaced"):
            JsaGrid(np.ones((3, 3)), np.array([0.0, 1.0, 3.0]))
        # Unnormalized amplitudes leave a rounding residue far above 1e-9.
        rng = np.random.default_rng(0)
        values = 1e12 * (rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))
        with pytest.raises(ValueError, match="imaginary residue"):
            exchange_symmetry(unchecked_grid(values))

    def test_all_zero_grid_rejected(self):
        with pytest.raises(ValueError):
            JsaGrid(np.zeros((5, 5)), np.linspace(0, 1, 5))

    @pytest.mark.parametrize(
        "values,axis,match",
        [
            (np.full((3, 3), np.nan), np.arange(3.0), "finite"),
            (np.where(np.eye(3) > 0, np.inf, 0.0), np.arange(3.0), "finite"),
            (np.ones((3, 3)), np.array([0.0, 1.0, np.inf]), "finite"),
            (np.ones((3, 3)), np.array([0.0, 1e200, 2e200]), "overflows"),
            (np.full((3, 3), 1e200), np.arange(3.0), "overflows"),
            (np.ones((2, 2)), np.array([-1e308, 1e308]), "overflows"),
        ],
        ids=["nan-grid", "inf-grid", "inf-axis", "wide-axis", "huge-values", "axis-span-overflows"],
    )
    def test_non_finite_grid_or_norm_rejected(self, values, axis, match):
        # Each once got past the checks: an all-NaN norm is not == 0, and an
        # infinite norm divides the grid to all zeros.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=match):
                JsaGrid(values, axis)


class TestSchmidtSpectrum:
    def test_separable_is_rank_one(self):
        axis = np.linspace(-3.0, 3.0, 41)
        f = np.exp(-(axis**2))
        spec = schmidt_spectrum_of(JsaGrid(np.outer(f, f), axis))
        assert spec.lambdas == pytest.approx((1.0,), abs=1e-12)

    def test_two_equal_orthogonal_pairs(self):
        axis = np.linspace(-3.0, 3.0, 41)
        f = np.exp(-(axis**2))
        g = axis * np.exp(-(axis**2))
        fn = f / math.sqrt(np.sum(f**2))
        gn = g / math.sqrt(np.sum(g**2))
        grid = JsaGrid(np.outer(fn, fn) + np.outer(gn, gn), axis)
        spec = schmidt_spectrum_of(grid)
        root_half = 1.0 / math.sqrt(2.0)
        assert spec.lambdas == pytest.approx((root_half, root_half), abs=1e-9)

    def test_against_gram_matrix_oracle(self):
        rng = np.random.default_rng(11)
        grid = random_jsa(rng)
        gram = (grid.values * grid.step) @ (grid.values.conj().T * grid.step)
        eigs = np.sort(np.linalg.eigvalsh(gram))[::-1]
        eigs = np.clip(eigs, 0.0, None)
        expected = np.sqrt(eigs)
        spec = schmidt_spectrum_of(grid)
        assert np.allclose(spec.lambdas, expected[: len(spec.lambdas)], atol=1e-9)

    def test_reassembly_preserves_exchange_symmetry(self):
        rng = np.random.default_rng(12)
        grid = random_jsa(rng)
        u, s, vh = np.linalg.svd(grid.values)
        rebuilt = JsaGrid((u * s) @ vh, grid.axis)
        assert exchange_symmetry(rebuilt) == pytest.approx(
            exchange_symmetry(grid), abs=1e-8
        )

    def test_double_gaussian_entanglement(self):
        axis = np.linspace(-4.0, 4.0, 64)
        grid = double_gaussian_jsa(axis, sum_width=0.4, diff_width=1.6)
        spec = schmidt_spectrum_of(grid)
        assert lambda4(spec) < 1.0  # widths differ, so more than one mode
        assert exchange_symmetry(grid) == pytest.approx(1.0, abs=1e-9)

    def test_spectrum_validation(self):
        with pytest.raises(ValueError):
            SchmidtSpectrum([0.5, 0.5])  # squares sum to 0.5
        with pytest.raises(ValueError):
            SchmidtSpectrum([])
        with pytest.raises(ValueError):
            SchmidtSpectrum([1.2, -0.66332495807108])
        with pytest.raises(ValueError, match="no resolvable Schmidt modes"):
            schmidt_spectrum_of(unchecked_grid(np.zeros((3, 3))))


class TestLambda4:
    @pytest.mark.parametrize(
        "lams,expected",
        [
            ([1.0], 1.0),
            ([2**-0.5, 2**-0.5], 0.5),
            ([0.5**0.5, 0.3**0.5, 0.2**0.5], 0.38),
        ],
    )
    def test_examples(self, lams, expected):
        assert lambda4(SchmidtSpectrum(lams)) == pytest.approx(expected, abs=1e-12)

    def test_bounds_for_k_modes(self):
        rng = np.random.default_rng(3)
        for k in (2, 3, 5, 8):
            equal = SchmidtSpectrum([1.0 / math.sqrt(k)] * k)
            assert lambda4(equal) == pytest.approx(1.0 / k, abs=1e-12)
            for _ in range(10):
                raw = rng.uniform(0.1, 1.0, size=k)
                lams = np.sqrt(raw / raw.sum())
                val = lambda4(SchmidtSpectrum(lams.tolist()))
                assert 1.0 / k - 1e-12 <= val <= 1.0 + 1e-12


def synthetic_dip(a, b, sigma, xs, rng=None, counts_per_point=None):
    points = []
    for x in xs:
        p = a + b * quartic_gaussian_overlap(x, sigma)
        if rng is not None:
            n = rng.poisson(counts_per_point * p) if p > 0 else 0
            p = n / counts_per_point
            w = counts_per_point / max(p, 1.0 / counts_per_point)  # ~1/var weight
        else:
            w = 1.0
        points.append((x, p, w))
    return points


def binomial_dip(sigma=2.0, trials=4000, seed=5):
    """81-delay dip 0.5 - 0.42 q(x/sigma) with binomial counting noise."""
    xs = np.linspace(-10.0, 10.0, 81)
    p = 0.5 - 0.42 * quartic_gaussian_overlap(xs, sigma)
    observed = np.random.default_rng(seed).binomial(trials, p) / trials
    weight = trials / np.maximum(observed * (1.0 - observed), 1.0 / trials)
    return list(zip(xs.tolist(), observed.tolist(), weight.tolist()))


def dense_profile_minimum(points, sigma0, cells=20_001):
    """Least weighted residual over a log-sigma grid of ``cells`` points over
    sigma0 x/ 4, with the closed-form weighted (a, b) at each cell."""
    x, p, w = np.asarray(points, dtype=float).T
    ax, inv = np.unique(np.abs(x), return_inverse=True)
    pc = p - (w @ p) / w.sum()
    best = math.inf
    for sigmas in np.array_split(sigma0 * 4.0 ** np.linspace(-1.0, 1.0, cells), 50):
        q = quartic_gaussian_overlap(ax[None, :] / sigmas[:, None], 1.0)[:, inv]
        qc = q - (q @ w)[:, None] / w.sum()
        b = (qc @ (w * pc)) / ((qc * qc) @ w)
        r = pc - b[:, None] * qc
        best = min(best, float(((r * r) @ w).min()))
    return best


class TestHomDipFit:
    @pytest.mark.parametrize(
        "points",
        [
            synthetic_dip(
                0.5, -0.45, 2.0, np.linspace(-9.0, 9.0, 25),
                rng=np.random.default_rng(21), counts_per_point=10_000,
            ),
            binomial_dip(),
        ],
        ids=["poisson", "binomial"],
    )
    def test_residual_is_profile_minimum(self, points):
        # A noiseless dip is left out: its minimum is 0 up to rounding.
        fit = fit_hom_dip(points)
        assert fit.converged and not fit.ill_posed
        assert fit.residual <= dense_profile_minimum(points, 2.0) * (1.0 + 1e-12)

    def test_far_starts_reach_one_sigma(self):
        points = binomial_dip()
        fit = fit_hom_dip(points)
        assert fit.converged and not fit.ill_posed
        assert fit.sigma == pytest.approx(2.0, abs=0.05)

    @pytest.mark.parametrize("weighted", [(), (2.0,), (1.0, 2.0)], ids=["none", "one", "two"])
    def test_degenerate_weights_flagged_ill_posed(self, weighted):
        dip = synthetic_dip(0.5, -0.4, 2.0, np.linspace(-8.0, 8.0, 17))
        points = [(x, p, 1.0 if x in weighted else 0.0) for x, p, _ in dip]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            fit = fit_hom_dip(points)
        assert fit.ill_posed
        assert all(math.isfinite(v) for v in (fit.a, fit.b, fit.sigma, fit.residual))

    def test_noiseless_recovery(self):
        xs = np.linspace(-8.0, 8.0, 33)
        points = synthetic_dip(0.5, -0.5, 2.0, xs)
        fit = fit_hom_dip(points)
        assert not fit.ill_posed
        assert fit.a == pytest.approx(0.5, abs=1e-6)
        assert fit.b == pytest.approx(-0.5, abs=1e-6)
        assert fit.sigma == pytest.approx(2.0, abs=1e-6)
        assert fit.residual < 1e-12

    def test_poisson_noise_sigma_within_bootstrap_error(self):
        # Monte-Carlo calibration: bootstrap standard error from refits of
        # resampled datasets brackets the true sigma at 3 standard errors.
        rng = np.random.default_rng(21)
        xs = np.linspace(-9.0, 9.0, 25)
        counts = 10_000
        points = synthetic_dip(0.5, -0.45, 2.0, xs, rng=rng, counts_per_point=counts)
        fit = fit_hom_dip(points)
        assert not fit.ill_posed
        sigmas = []
        for trial in range(60):
            trial_rng = np.random.default_rng(1000 + trial)
            resampled = synthetic_dip(
                fit.a, fit.b, fit.sigma, xs, rng=trial_rng, counts_per_point=counts
            )
            refit = fit_hom_dip(resampled)
            sigmas.append(refit.sigma)
        se = float(np.std(sigmas, ddof=1))
        assert abs(fit.sigma - 2.0) < 3.0 * se

    def test_flat_data_flagged_ill_posed(self):
        xs = np.linspace(-5.0, 5.0, 12)
        points = [(x, 0.5, 1.0) for x in xs]
        fit = fit_hom_dip(points)
        assert fit.ill_posed

    def test_identical_delays_rejected(self):
        points = [(1.0, 0.4, 1.0)] * 6
        with pytest.raises(IllPosedError):
            fit_hom_dip(points)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            fit_hom_dip([(0, 0.1, 1), (1, 0.2, 1), (2, 0.3, 1)])
        with pytest.raises(ValueError, match=r"\(x, p, weight\) triples"):
            fit_hom_dip([(0, 0.1), (1, 0.2), (2, 0.3), (3, 0.4)])
        with pytest.raises(ValueError, match="weights must be nonnegative"):
            fit_hom_dip([(0, 0.1, 1), (1, 0.2, 1), (2, 0.3, -1), (3, 0.4, 1)])

    @pytest.mark.parametrize(
        "column,value",
        [(0, math.nan), (1, math.nan), (2, math.nan), (2, math.inf)],
        ids=["nan-delay", "nan-p", "nan-weight", "inf-weight"],
    )
    def test_non_finite_points_rejected(self, column, value):
        # Each fitted silently (NaN a and b, or an ill-posed sigma) or warned.
        points = [[x, 0.5 - 0.4 * quartic_gaussian_overlap(x, 2.0), 1.0] for x in np.linspace(-6.0, 6.0, 13)]
        points[3][column] = value
        with pytest.raises(ValueError, match="points must be finite"):
            fit_hom_dip(points)

    @pytest.mark.parametrize(
        "xs",
        [[5e-324, 1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 1.7e308], [1e-101, 1.0, 2.0, 3.0]],
        ids=["subnormal", "near-max", "below-bound"],
    )
    def test_delays_at_the_float_range_edges_are_ill_posed(self, xs):
        # Half of 5e-324 is 0, and twice 1.7e308 overflows: neither bounds
        # a sigma window, and no warning is printed on the way.
        points = [(x, 0.5 - 0.4 * quartic_gaussian_overlap(x, 2.0), 1.0) for x in xs]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(IllPosedError, match=r"\[1e-100, 1e100\]"):
                fit_hom_dip(points)

    def test_delays_at_the_bounds_fit_without_warnings(self):
        xs = [1e-100, *np.linspace(0.5, 8.0, 16).tolist(), 1e100]
        points = [(x, 0.5 - 0.4 * quartic_gaussian_overlap(x, 2.0), 1.0) for x in xs]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            fit = fit_hom_dip(points)
        assert all(math.isfinite(v) for v in (fit.a, fit.b, fit.sigma, fit.residual))

    def test_delays_spanning_the_float_bounds_fit_the_dip(self):
        # A 17-cell scan over 200 decades had one cell per 12 decades and
        # settled on an ill-posed sigma of 1.3e12; seven cells a decade find 2.
        xs = [sign * x for x in (1e-100, 1.0, 2.0, 3.0, 1e100) for sign in (1, -1)]
        points = [(x, 0.5 - 0.4 * quartic_gaussian_overlap(x, 2.0), 1.0) for x in xs]
        fit = fit_hom_dip(points)
        assert fit.converged and not fit.ill_posed
        assert fit.sigma == pytest.approx(2.0, rel=1e-9)

    def test_unphysical_zero_delay_probability_rejected(self):
        with pytest.raises(ValueError):
            HomDipFit(a=0.2, b=-0.4, sigma=1.0, residual=0.0)
