"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured numbers once its gate holds.
"""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from fringelab import detection, estimation, fock, metrology, spectral
from fringelab.cli import main as cli_main


def report(line):
    print(f"\n{line}", flush=True)


def two_photon_truth(iprime, theta):
    c = math.cos(2 * theta)
    return {
        0: (3 - iprime + (1 + iprime) * c) / 4,
        2: (1 + iprime) * (1 - c) / 4,
    }


def simulate_dataset(iprime, zeta, total, n_phases, seed, bins_per_arm=4):
    family = metrology.two_photon_family(iprime, zeta)
    etas = detection.class_efficiencies(2, bins_per_arm)
    rng = np.random.default_rng(seed)
    points = []
    thetas = (np.arange(n_phases) + 0.5) * 2 * math.pi / n_phases
    for theta, row in zip(thetas, family.evaluator(thetas)):
        probs = dict(zip(family.classes, row))
        counts = {c: int(rng.poisson(total * probs[c] * etas[c])) for c in (0, 2)}
        points.append((float(theta), counts))
    return estimation.FringeDataset(tuple(points), etas)


def test_a1_small_angle_coefficients_and_fisher_limit():
    thetas = np.array([-0.02, -0.01, 0.01, 0.02])
    design = np.column_stack([thetas**2, thetas**4])
    worst_coeff = 0.0
    worst_fisher = 0.0
    for n in (1, 2, 3):
        for indist in (0.0, 0.5, 1.0):
            state = fock.dual_fock_mismatched(n, indist)
            drop, side = [], []
            for theta in thetas:
                classes = detection.aggregate_by_abs_delta(
                    detection.outcome_distribution(
                        fock.apply_path_rotation(state, float(theta))
                    )
                )
                drop.append(1.0 - classes[0])
                side.append(classes[2])
            expected = (n + indist * n * n) / 2
            for target in (drop, side):
                coeff = np.linalg.lstsq(design, np.array(target), rcond=None)[0][0]
                worst_coeff = max(worst_coeff, abs(coeff - expected))
                assert abs(coeff - expected) < 1e-5
            family = metrology.counting_family(state)
            numeric = metrology.fisher_at(family, 1e-3)
            limit = metrology.small_angle_fisher(n, indist)
            rel = abs(numeric - limit) / limit
            worst_fisher = max(worst_fisher, rel)
            assert rel < 1e-4
    report(
        f"A1 PASS: quadratic coefficients within {worst_coeff:.2e} of (n + I n^2)/2 "
        f"and small-angle Fisher within {worst_fisher:.2e} relative of 2(n + I n^2)"
    )


def test_a2_two_photon_fringe_exactness():
    worst = 0.0
    for iprime in np.linspace(0.0, 1.0, 11):
        state = fock.spdc_two_photon(float(iprime))
        for theta in np.linspace(0.0, 2 * math.pi, 64, endpoint=False):
            rotated = fock.apply_path_rotation(state, float(theta))
            classes = detection.aggregate_by_abs_delta(
                detection.outcome_distribution(rotated)
            )
            truth = two_photon_truth(float(iprime), float(theta))
            worst = max(worst, abs(classes[0] - truth[0]), abs(classes[2] - truth[2]))
    assert worst < 1e-10
    report(f"A2 PASS: simulated class fringes match the closed form within {worst:.2e}")


def test_a3_optimal_point_closed_forms():
    worst_theta = 0.0
    for iprime in np.linspace(0.0, 1.0, 9):
        for zeta in (0.002, 0.005, 0.0119, 0.05, 0.15):
            closed = metrology.optimal_theta(float(iprime), zeta)
            numeric = metrology.optimal_fisher_two_photon(float(iprime), zeta).theta
            worst_theta = max(worst_theta, abs(closed - numeric))
            assert abs(closed - numeric) < 1e-6
    zeta = 0.0119
    result = metrology.optimal_fisher_two_photon(1.0, zeta)
    target = 4.0 * (1.0 - zeta) ** 2
    assert abs(result.value - target) < 1e-6
    assert result.matched_branch == "negative"
    report(
        f"A3 PASS: optimal phase within {worst_theta:.2e} rad of the numeric argmax; "
        f"maximized information {result.value:.7f} vs 4(1-zeta)^2 = {target:.7f}; "
        f"closed form resolved to the {result.matched_branch} branch"
    )


def test_a4_four_photon_bunching_algebra():
    predicted = metrology.p4_from_lambda4(0.4790)
    assert abs(predicted - 0.6619) < 5e-4
    worst = 0.0
    for lam4 in (0.5, 0.6, 0.75, 1.0):
        if lam4 == 1.0:
            spec = spectral.SchmidtSpectrum([1.0])
        else:
            u = (1 + math.sqrt(2 * lam4 - 1)) / 2
            spec = spectral.SchmidtSpectrum([math.sqrt(u), math.sqrt(1 - u)])
        state = fock.four_photon_schmidt(spec, 1.0)
        rotated = fock.apply_path_rotation(state, math.pi / 2)
        p4 = detection.aggregate_by_abs_delta(detection.outcome_distribution(rotated))[4]
        worst = max(worst, abs(p4 - metrology.p4_from_lambda4(lam4)))
        assert worst < 1e-9
    report(
        f"A4 PASS: p4(0.4790) = {predicted:.5f} vs 0.6619; brute-force bunching "
        f"matches (2L+1)/(2L+2) within {worst:.2e}"
    )


def test_a5_four_photon_predictions():
    full, zero = metrology.predict_four_photon_extremes(0.4790, 0.0282)
    assert abs(full - 2.246) / 2.246 < 0.05
    assert abs(zero - 0.7547) / 0.7547 < 0.05
    inside_full = abs(full - 2.246) <= 0.039
    inside_zero = abs(zero - 0.7547) <= 0.017
    report(
        f"A5 PASS: predicted extremes ({full:.4f}, {zero:.4f}) within 5% of "
        f"(2.246, 0.7547); non-gating: inside the reported bands "
        f"+-0.039/+-0.017 -> {inside_full}/{inside_zero} "
        f"(uniform three-class background mixing)"
    )


def test_a6_shot_noise_beaten_for_any_indistinguishability():
    margins = []
    for k, iprime in enumerate((0.1, 0.25, 0.5, 0.75, 1.0)):
        dataset = simulate_dataset(iprime, 0.0, 1e5, 16, seed=9000 + k)
        fit = estimation.fit_mle(dataset, [2])
        assert fit.converged
        fprime = estimation.fisher_from_model(fit.model).per_photon
        boot = estimation.bootstrap_errors(fit, dataset, trials=50, seed=500 + k)
        margin = fprime - 3.0 * boot.sigma_per_photon
        margins.append((iprime, fprime, boot.sigma_per_photon))
        assert margin > 1.0
    summary = ", ".join(f"I'={ip}: {fp:.3f}+-{sg:.3f}" for ip, fp, sg in margins)
    report(f"A6 PASS: fitted F' beats 1 at 3 sigma for every probe ({summary})")


def test_a7_estimator_calibration():
    iprime, zeta, total, n_phases = 0.8, 0.0119, 1e4, 16
    truth = metrology.optimal_fisher_two_photon(iprime, zeta).value / 2.0
    seeds = np.random.SeedSequence(424242).spawn(200)
    estimates = np.empty(200)
    sigmas = np.empty(200)
    for k, seed in enumerate(seeds):
        dataset = simulate_dataset(iprime, zeta, total, n_phases, seed=seed)
        fit = estimation.fit_mle(dataset, [2])
        estimates[k] = estimation.fisher_from_model(fit.model).per_photon
        boot = estimation.bootstrap_errors(fit, dataset, trials=100, seed=k + 31337)
        sigmas[k] = boot.sigma_per_photon
    bias = estimates.mean() / truth - 1.0
    coverage = float(np.mean(np.abs(estimates - truth) <= 2.0 * sigmas))
    assert abs(bias) <= 0.02
    assert coverage >= 0.90
    report(
        f"A7 PASS: mean fitted F' = {estimates.mean():.4f} vs truth {truth:.4f} "
        f"(bias {bias:+.2%}); two-sigma coverage {coverage:.1%} over 200 datasets"
    )


def test_a8_overlap_function_and_dip_fit():
    assert spectral.quartic_gaussian_overlap(0.0, 1.0) == pytest.approx(1.0, abs=1e-9)
    for x in np.linspace(0.05, 12.0, 100):
        assert spectral.quartic_gaussian_overlap(-float(x), 1.7) == pytest.approx(
            spectral.quartic_gaussian_overlap(float(x), 1.7), abs=1e-12
        )
    xs = np.linspace(-8.0, 8.0, 33)
    points = [
        (float(x), 0.5 - 0.5 * spectral.quartic_gaussian_overlap(float(x), 2.0), 1.0)
        for x in xs
    ]
    fit = spectral.fit_hom_dip(points)
    assert not fit.ill_posed
    errs = (abs(fit.a - 0.5), abs(fit.b + 0.5), abs(fit.sigma - 2.0))
    assert max(errs) < 1e-6
    report(
        f"A8 PASS: q(0) = 1, even on 100 points, and the noiseless dip fit "
        f"recovers (a, b, sigma) within {max(errs):.2e}"
    )


def test_a9_end_to_end_determinism(tmp_path):
    config = {
        "iprimes": [0.0, 0.4, 0.8, 1.0],
        "zeta": 0.0119,
        "bins_per_arm": 4,
        "phases": {"count": 16},
        "expected_counts_per_point": 20000,
        "seed": 7,
        "restarts": 4,
        "bootstrap_trials": 40,
    }
    cfg = tmp_path / "fig3.json"
    cfg.write_text(json.dumps(config))
    out_a = tmp_path / "a"
    assert cli_main(["reproduce-fig3", "--config", str(cfg), "--out", str(out_a)]) == 0

    # Second run in-process, third in a subprocess with different hash seed
    # and BLAS thread counts.
    out_b = tmp_path / "b"
    assert cli_main(["reproduce-fig3", "--config", str(cfg), "--out", str(out_b)]) == 0
    out_c = tmp_path / "c"
    env = dict(os.environ)
    env.update(
        {"PYTHONHASHSEED": "99", "OMP_NUM_THREADS": "8", "OPENBLAS_NUM_THREADS": "8"}
    )
    code = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys; from fringelab.cli import main; "
            f"sys.exit(main(['reproduce-fig3', '--config', {str(cfg)!r}, '--out', {str(out_c)!r}]))",
        ],
        env=env,
    ).returncode
    assert code == 0
    for name in ("fig3.csv", "fig3_summary.json"):
        ref = (out_a / name).read_bytes()
        assert (out_b / name).read_bytes() == ref
        assert (out_c / name).read_bytes() == ref
    summary = json.loads((out_a / "fig3_summary.json").read_text())
    assert summary["max_abs_deviation_sigma"] < 4.0
    report(
        "A9 PASS: reproduce-fig3 output byte-identical across repeated runs and "
        f"across thread counts (max deviation "
        f"{summary['max_abs_deviation_sigma']:.2f} sigma)"
    )
