"""Fit a two-photon coincidence dip and read off the indistinguishability.

Synthesizes normalized coincidence rates a + b*q(x) over a delay scan with
Poisson counting noise, fits (a, b, sigma) by variable projection (the
closed-form (a, b) for each sigma, then a scan over a sigma window set by
the delays and Gauss-Newton steps on sigma alone; no starting point is
needed), and prints the recovered dip alongside the implied
exchange-symmetry curve I'(x) = 1 - 2 p(x).
"""

import numpy as np

from fringelab import fit_hom_dip, indistinguishability_from_coincidence
from fringelab.spectral import quartic_gaussian_overlap

TRUE_A, TRUE_B, TRUE_SIGMA = 0.5, -0.45, 2.0
COUNTS_PER_POINT = 20_000

rng = np.random.default_rng(7)
delays = np.linspace(-9.0, 9.0, 31)

points = []
for x in delays:
    p = TRUE_A + TRUE_B * quartic_gaussian_overlap(x, TRUE_SIGMA)
    observed = rng.poisson(COUNTS_PER_POINT * p) / COUNTS_PER_POINT
    points.append((float(x), float(observed), float(COUNTS_PER_POINT)))

fit = fit_hom_dip(points)

print("true parameters:   a=%.4f  b=%.4f  sigma=%.4f" % (TRUE_A, TRUE_B, TRUE_SIGMA))
print(
    "fitted parameters: a=%.4f  b=%.4f  sigma=%.4f  (residual %.3e, ill_posed=%s)"
    % (fit.a, fit.b, fit.sigma, fit.residual, fit.ill_posed)
)

print("\n delay x   coincidence p(x)   I'(x)")
for x in np.linspace(0.0, 9.0, 10):
    p = fit.a + fit.b * quartic_gaussian_overlap(x, fit.sigma)
    print(f"  {x:6.2f}   {p:16.4f}   {indistinguishability_from_coincidence(p):6.4f}")

print(
    "\nAt zero delay the fitted dip gives I' = %.4f; far from overlap it"
    " falls to %.4f." % (1 - 2 * (fit.a + fit.b), 1 - 2 * fit.a)
)
