"""Exception taxonomy shared across the package.

Geometry errors signal bad inputs to closed-form kernels; solver errors
signal integrator breakdown; verification errors signal failed checks and
checks that do not apply.  The CLI exits 2 (config), 3 (geometry) or 4 (verify).
"""


class MtvfError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(MtvfError):
    """Malformed or inconsistent configuration / input file."""


class GeometryError(MtvfError):
    """Base class for errors raised by geometric kernels."""


class SingularProjection(GeometryError):
    """Closest-point projection undefined (e.g. the origin for a sphere)."""


class BeyondInjectivityRadius(GeometryError):
    """No unique minimizing geodesic between the two points."""


class DegenerateJump(GeometryError):
    """Unit tangents of a jump requested for two equal points."""


class OutOfComparisonRange(GeometryError):
    """Comparison-theorem quantity evaluated outside its valid range."""


class ConvexityRadiusExceeded(GeometryError):
    """A jump reaches twice the convexity radius (flow not well posed)."""


class SolverError(MtvfError):
    """Base class for time-stepping failures."""


class CflViolation(SolverError):
    """Total variation increased during a step (unstable step size)."""


class VerificationError(MtvfError):
    """A check that failed (``mtvf verify``), or one that does not apply (subclasses)."""


class IncompatibleSnapshots(VerificationError):
    """Trajectory snapshots do not share a grid / jump set as required."""


class NotNPC(VerificationError):
    """Check requires a complete manifold of nonpositive curvature."""


class WrongManifold(VerificationError):
    """Check applied to a trajectory on an unsupported manifold."""
