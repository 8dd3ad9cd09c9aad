"""Exact boundary representations of finitely generated free groups.

A computation and verification engine for Patterson-Sullivan and harmonic
measures on the tree boundary of F_k, the associated Koopman boundary
representations with exact matrix coefficients in Q(sqrt(omega)), shadow
partition and sphere weightings of annuli, and the asymptotic behavior of
normalized coefficient averages (equidistribution, orthogonality, annular
rapid decay, good-vector-bound growth).
"""

__version__ = "0.1.0"

from .scalars import QSqrt, as_float, exact_str
from .words import (
    GroupContext,
    MetricSpec,
    ReducedWord,
    enumerate_annulus,
    enumerate_sphere,
    geodesic_point,
    gromov_product,
    hat_projection,
    metric_length,
    sphere_size,
    translation_length,
)
from .boundary import (
    BoundaryPoint,
    Cylinder,
    CylinderRectangle,
    CylinderSet,
    boundary_gromov,
    retract,
    shadow_pair,
    translate_cylinder_set,
    visual_distance,
)
from .measures import (
    BoundaryMeasure,
    FirstPassage,
    MCEstimate,
    PerronData,
    WalkSpec,
    ahlfors_profile,
    critical_exponent,
    green_metric_of_walk,
    harmonic_mass_mc,
    mc_first_passage,
    ps_measure,
    rn_derivative,
    rn_integral,
    solve_first_passage,
)
from .representation import (
    StepFunction,
    apply_pi,
    harish_chandra,
    harish_chandra_length,
    inner_product,
    lipschitz_gap,
    matrix_coefficient,
    norm_sq,
    normalized_coefficient,
)
from .asymptotics import (
    BudgetError,
    CoverError,
    OrthCase,
    PairStepFunction,
    SweepReport,
    TestFunction,
    WeightFamily,
    annular_rd_ratio,
    build_partition_weights,
    check_shadow_cover,
    convolve,
    equidistribution_error,
    equidistribution_pairing,
    fiber_size_report,
    gvb_growth,
    max_rectangle_error,
    max_uniform_rectangle_error,
    orthogonality_sweep,
    orthogonality_target,
    phi_r,
    phi_r_pairs,
    rd_convolution_check,
    rd_sweep,
    sphere_sum_sq,
    sphere_weights,
)
