"""Quantum relative entropies through pure-state unravelings.

The package builds the common basis in which two faithful density matrices
are simultaneously diagonal convex mixtures of (generally non-orthogonal)
pure states, evaluates the Belavkin-Staszewski, Umegaki, and unraveled
relative entropies on top of it, and exercises the construction against
channels, Lindblad flows, stochastic trajectories, and Sanov-type large
deviation rates.
"""

from .matcore import (
    DEFAULT_TOLS,
    SpectralDecomposition,
    Tolerances,
    herm_eig,
    herm_eig_stack,
    herm_inv,
    herm_log,
    herm_sqrt,
    hermitize,
    spectral_fn,
)
from .states import (
    DensityMatrix,
    PureState,
    RngStream,
    canonical_phase,
    fubini_study,
    haar_pure,
    sample_faithful,
    trace_distance,
    validate_density,
)
from .ensembles import (
    GENERATORS,
    DiscreteEnsemble,
    CoarseKernel,
    DivergenceGenerator,
    coarse_grain,
    coupling_bound_check,
    f_divergence,
    greedy_coupling,
    kl_divergence,
    product_coupling,
    realize,
)
from .commonbasis import (
    CommonBasis,
    basis_match,
    cb_measures,
    common_basis,
    dual_consistency,
)
from .entropy import (
    KrausMap,
    apply_cptp,
    bs_entropy,
    max_f_divergence,
    random_cptp,
    umegaki,
    unr_entropy,
)
from .dynamics import (
    LindbladModel,
    Trajectory,
    contraction_scan,
    evolve_ensemble,
    lindblad_evolve,
    lindblad_superop,
    sse_trajectory,
)
from .ldp import (
    LdpExperiment,
    ball_probability_exact,
    ball_probability_mc,
    log_multinomial,
    make_experiment,
    rate_curve,
    tolerance_budget,
)
from . import errors

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_TOLS",
    "Tolerances",
    "SpectralDecomposition",
    "hermitize",
    "herm_eig",
    "herm_eig_stack",
    "spectral_fn",
    "herm_sqrt",
    "herm_log",
    "herm_inv",
    "PureState",
    "DensityMatrix",
    "RngStream",
    "validate_density",
    "trace_distance",
    "fubini_study",
    "canonical_phase",
    "haar_pure",
    "sample_faithful",
    "DiscreteEnsemble",
    "CoarseKernel",
    "realize",
    "kl_divergence",
    "f_divergence",
    "coarse_grain",
    "product_coupling",
    "greedy_coupling",
    "coupling_bound_check",
    "CommonBasis",
    "common_basis",
    "dual_consistency",
    "cb_measures",
    "basis_match",
    "DivergenceGenerator",
    "GENERATORS",
    "KrausMap",
    "umegaki",
    "bs_entropy",
    "unr_entropy",
    "max_f_divergence",
    "apply_cptp",
    "random_cptp",
    "LindbladModel",
    "Trajectory",
    "lindblad_superop",
    "lindblad_evolve",
    "sse_trajectory",
    "evolve_ensemble",
    "contraction_scan",
    "LdpExperiment",
    "make_experiment",
    "log_multinomial",
    "ball_probability_exact",
    "ball_probability_mc",
    "rate_curve",
    "tolerance_budget",
    "errors",
]
