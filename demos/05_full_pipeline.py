"""End-to-end pipeline: simulate fringe counts, fit, and report information.

Mirrors what `fringelab reproduce-fig3` does per point: synthesize Poisson
counts for a two-photon probe under background noise and multiplexed
detection, fit the class fringes by Poisson maximum likelihood with walls
that keep every class probability nonnegative, evaluate the fitted model's
information, and attach a parametric-bootstrap error bar.
"""

import math

import numpy as np

from fringelab import (
    FringeDataset,
    bootstrap_errors,
    class_efficiencies,
    counting_family,
    fisher_from_model,
    fit_mle,
    fringe_probabilities,
    optimal_fisher_two_photon,
    sample_counts,
    spdc_two_photon,
)

IPRIME, ZETA, BINS = 0.75, 0.0119, 4
COUNTS_PER_POINT = 50_000
N_PHASES = 32

probe = spdc_two_photon(IPRIME)
family = counting_family(probe, ZETA)
etas = class_efficiencies(2, BINS)
phases = np.arange(N_PHASES) * 2 * math.pi / N_PHASES

# Five rotations fix the degree-2 fringes exactly; every phase is read off them.
table = fringe_probabilities(family, phases)
children = np.random.SeedSequence(2024).spawn(N_PHASES)
points = []
for child, theta, probs in zip(children, phases, table):
    means = {c: p * etas[c] for c, p in zip(family.classes, probs)}
    points.append((float(theta), sample_counts(means, COUNTS_PER_POINT, child)))
dataset = FringeDataset(tuple(points), etas)

fit = fit_mle(dataset, harmonics=[2])
report = fisher_from_model(fit.model)
boot = bootstrap_errors(fit, dataset, trials=200, seed=6)

truth = optimal_fisher_two_photon(IPRIME, ZETA)
print(f"probe: two photons with exchange symmetry {IPRIME}, zeta = {ZETA}")
print(f"fit converged: {fit.converged} (log likelihood {fit.log_likelihood:.2f})")
print("fitted coefficients per class [offset, cos 2theta, sin 2theta]:")
for cls, row in zip(fit.model.classes, fit.model.coefficients):
    print(f"  |d| = {cls}: " + "  ".join(f"{v:+.5f}" for v in row))
print(
    f"\nmeasured F' = {report.per_photon:.4f} +- {boot.sigma_per_photon:.4f} "
    f"at theta* = {report.argmax_theta:.4f}"
)
print(f"expected F' = {truth.value / 2:.4f} at theta* = {truth.theta:.4f}")
print("(theta* is defined up to the fringe symmetry theta -> pi - theta)")
pull = (report.per_photon - truth.value / 2) / boot.sigma_per_photon
print(f"pull: {pull:+.2f} sigma")
