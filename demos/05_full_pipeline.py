"""End-to-end pipeline: simulate fringe counts, fit, and report information.

Mirrors what `fringelab reproduce-fig3` does per point: draw Poisson counts
for a two-photon probe under background noise and multiplexed detection as
one draw from one stream, as `fringelab simulate` does, fit the class
fringes by Poisson maximum likelihood with walls that keep every class
probability nonnegative, and run the parametric bootstrap, which reports the
fitted model's information maximum (`boot.fisher`) with its error bar.
"""

import math

import numpy as np

from fringelab import (
    FringeDataset,
    bootstrap_errors,
    class_efficiencies,
    counting_family,
    fit_mle,
    fringe_probabilities,
    optimal_fisher_two_photon,
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
eta = np.array([etas[c] for c in family.classes])
counts = np.random.default_rng(2024).poisson(COUNTS_PER_POINT * (table * eta))
points = [(float(theta), dict(zip(family.classes, row))) for theta, row in zip(phases, counts.tolist())]
dataset = FringeDataset(tuple(points), etas)

fit = fit_mle(dataset, harmonics=[2])
boot = bootstrap_errors(fit, dataset, trials=200, seed=6)
report = boot.fisher

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
