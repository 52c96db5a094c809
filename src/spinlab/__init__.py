"""Invariant generalised Killing spinors on metric Lie algebras.

Builds spinor modules over odd-dimensional metric Lie algebras, computes
the frame form of the Levi-Civita connection and its spin lift, solves for
the endomorphism of the generalised Killing equation, and cross-checks the
results against the closed-form family catalog.
"""

from .algebra import (
    FrameChange,
    LieAlgebra,
    MetricLieAlgebra,
    check_jacobi,
    jacobi_violation,
    metric_from_frame_change,
    orthonormalize,
)
from .catalog import (
    BianchiFamily,
    FAMILY_TAGS,
    heisenberg_metric,
    heisenberg_params,
    is_symmetric_family,
    make_bianchi,
    make_heisenberg,
    reference_A,
    reference_asymmetry,
    reference_eigenvalues,
    reference_ricci_3d,
)
from .clifford import (
    CliffordModule,
    Spinor,
    cliff_relations_check,
    get_module,
)
from .connection import (
    curvature,
    metricity_violation,
    nomizu,
    ricci_spinorial_check,
    torsion_violation,
)
from .errors import (
    FormatError,
    InvalidFrameError,
    InvalidMetricError,
    InvalidOperatorError,
    InvalidParameterError,
    InvalidSpinorError,
    SpinlabError,
    StructureError,
    UnsupportedDimensionError,
)
from .gks import (
    GKReport,
    dirac_trace_3d,
    eigen_analysis,
    explicit_A_3d,
    full_report,
    genericity_sweep,
    gk_equation_residual,
    solve_endomorphism,
    solve_symmetric_endomorphism,
    symmetry_conditions_3d,
)
