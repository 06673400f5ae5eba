"""Total-variation gradient flow for manifold-valued BV curves.

Simulates the L2 steepest descent of total variation for curves on the
built-in embedded manifolds (flat space, spheres, the circle, a cylinder),
with an event-driven exact solver for piecewise-constant data, a
regularized grid solver, invariant checkers, and closed-form spherical
geometry experiments.
"""

__version__ = "0.1.0"

from .curves import (
    PiecewiseConstantCurve,
    SampledCurve,
    TVBreakdown,
    compose_with_geodesic,
    l2_distance,
    mollify,
    tv_measure,
)
from .errors import (
    CheckNotApplicable,
    ConfigError,
    GeometryError,
    MtvfError,
    SolverError,
    VerificationError,
)
from .flows import (
    FlowConfig,
    FlowTrajectory,
    PiecewiseLinearFluxField,
    ScalarStaircaseFlow,
    face_flux,
    flow,
    flow_on_geodesic,
    pc_velocity,
    reconstruct_z_pc,
    run_exact_pc,
    run_regularized,
    run_scalar_tv,
    scalar_curve,
    scalar_trajectory,
)
from .manifolds import (
    Circle,
    Cylinder,
    Euclidean,
    Manifold,
    Sphere,
    parse_manifold,
)
from .verify import (
    CheckReport,
    CrossSolverRow,
    check_energy,
    check_monotone_variation,
    check_sphere_equivalence,
    check_variational_inequality,
    cross_solver_compare,
    detect_stopping,
)

__all__ = [name for name in dir() if not name.startswith("_")]
