"""Measurements on quantum channels via process POVMs.

Build process effects from experiment descriptions, realize abstract
collections of them as concrete experiments, test informational
completeness, reconstruct channels from statistics, and decide perfect
discriminability of channel pairs.
"""

from .channels import (
    KrausChannel,
    Povm,
    apply_channel,
    channel_of_choi,
    check_density,
    check_effect,
    check_process_state,
    choi_of_channel,
    contraction_channel,
    depolarizing_channel,
    dual_channel,
    identity_channel,
    ket,
    max_entangled_ket,
    projector,
    state_to_map,
    unitary_channel,
)
from .discrimination import (
    DiscriminationPlan,
    NoHullError,
    NotPerfectlyDiscriminableError,
    PairReport,
    build_plan,
    hull_weights,
    min_copies,
    necessary_condition,
    overlap,
    pair_report,
    support_orthogonal,
    unitary_eig,
    verify_plan,
    zero_in_hull,
)
from .linalg import (
    HermitianEigen,
    herm_eig,
    hs_distance,
    hs_inner,
    kron,
    mat_sqrt_psd,
    partial_trace,
    pinv,
    rank_and_support,
    vec_reshape,
)
from .measurement import (
    ProcessPovm,
    Realization,
    TestCouple,
    build_ppovm,
    effects_multiset_equal,
    extra_effect,
    merge_couples,
    outcome_probabilities,
    process_effect,
    realize,
    validate_ppovm,
)
from .tomography import (
    ShotRecord,
    TomographyResult,
    ic_check,
    linear_inversion,
    psd_project,
    reconstruction_error,
    simulate_counts,
)

__version__ = "0.1.0"
