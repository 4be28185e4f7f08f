"""Two-path optical interferometry with partially-distinguishable photons.

Builds multimode Fock probe states, evolves them through a path rotation,
computes photon-number-counting statistics and Fisher information under
background noise and multiplexed-detector efficiency, and fits Poisson
fringe counts by maximum likelihood with bootstrap error bars.
"""

from .detection import (
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
from .errors import IllPosedError, ResourceLimitError, SingularFisherError
from .estimation import (
    BootstrapReport,
    FitResult,
    FourierFringeModel,
    FringeDataset,
    bootstrap_errors,
    fisher_from_model,
    fit_mle,
    log_likelihood,
)
from .fock import (
    MultimodeFockState,
    PathSectors,
    StateEnsemble,
    apply_path_rotation,
    dual_fock_mismatched,
    four_photon_schmidt,
    spdc_two_photon,
    two_distinct_pairs,
)
from .metrology import (
    FisherReport,
    FringeFamily,
    OptimalFisherResult,
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
from .spectral import (
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

__version__ = "0.1.0"
