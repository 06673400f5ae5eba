"""Closed-form spherical geometry experiments.

Numeric companions to the library's comparison-geometry guarantees: the
geodesic-square midpoint construction that defeats semiconvexity of
constrained variation on the sphere, Hessian lower bounds for half the
squared distance, and empirical stability constants for geodesics under
endpoint perturbation.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, GeometryError, integer
from .manifolds import Manifold, Sphere, _dot

_SPHERE3 = Sphere(3)


def midpoint_separation(a: float) -> float:
    """Distance between geodesic midpoints of opposite sides of a geodesic
    square of side ``a`` on the unit sphere.

    Equals 2*arcsin(tan(a/2)), which strictly exceeds ``a`` on (0, pi/2) —
    midpoint curves can gain length, the mechanism behind the semiconvexity
    counterexample.
    """
    if not 0.0 < a <= 0.5 * np.pi:
        raise GeometryError(f"side {a} outside (0, pi/2]")
    return float(2.0 * np.arcsin(np.tan(0.5 * a)))


def semiconvexity_gap(n: int) -> float:
    """Margin of the strict midpoint-length inequality for the n-th member
    of the shrinking-square family (side 1/(4n(n+1))).

    Positive gap = the obstruction survives the correction term; negative
    at small n, eventually positive.
    """
    n = integer("n", n)
    if n < 1:
        raise GeometryError("n must be a positive integer")
    x = 1.0 / (8.0 * n * (n + 1))
    lhs = 2.0 * np.arcsin(np.tan(x))
    rhs = 1.0 / (4.0 * n * (n + 1)) + 3.0 / (2.0 ** (n + 5) * n * (n + 1) ** 2)
    return float(lhs - rhs)


def first_positive_gap(n_max: int = 100) -> int | None:
    """Smallest n <= n_max with a positive semiconvexity gap (brute force)."""
    for n in range(1, integer("n_max", n_max) + 1):
        if semiconvexity_gap(n) > 0.0:
            return n
    return None


# ---------------------------------------------------------------------------
# Hessian comparison
# ---------------------------------------------------------------------------


_STEP = 1e-4
_OFFSETS = np.array([0.0, _STEP, -_STEP, 0.5 * _STEP, -0.5 * _STEP])
_OFFSETS.flags.writeable = False


def second_difference(manifold: Manifold, p0, p, direction):
    """Richardson-extrapolated second difference of s -> 0.5*dist(exp_p(s X), p0)^2
    along a unit tangent direction X at p, with step 1e-4; directions of shape
    (k, N) give (k,) values from one ``exp`` and one ``dist`` call."""
    x = np.asarray(direction, dtype=float)
    s = _OFFSETS.reshape((5,) + (1,) * x.ndim)
    pts = manifold.exp(np.asarray(p, dtype=float), s * x)
    base, f_h, f_mh, f_h2, f_mh2 = 0.5 * manifold.dist(pts, np.asarray(p0, dtype=float)) ** 2
    dd_h = (f_h - 2.0 * base + f_mh) / (_STEP * _STEP)
    dd_h2 = (f_h2 - 2.0 * base + f_mh2) / ((0.5 * _STEP) * (0.5 * _STEP))
    return ((4.0 * dd_h2 - dd_h) / 3.0)[()]


@dataclass(frozen=True)
class HessianComparison:
    distance: float
    min_estimate: float
    bound: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.min_estimate >= self.bound - self.tolerance


def hessian_comparison_check(
    manifold: Manifold,
    p0,
    p,
    n_dirs: int = 16,
    *,
    rng: np.random.Generator,
) -> HessianComparison:
    """Directional second derivatives of half the squared distance to p0,
    sampled over random unit tangent directions at p, against the curvature
    comparison lower bound, with tolerance 1e-4.
    """
    n_dirs = integer("n_dirs", n_dirs)
    if n_dirs < 1:
        raise ConfigError(f"need at least one direction, got n_dirs={n_dirs}")
    r = float(manifold.dist(p, p0))
    bound = manifold.hessian_comparison_bound(r)
    dirs, norms = manifold.random_directions(rng, p, n_dirs)
    best = np.min(second_difference(manifold, p0, p, dirs / norms[:, None]))
    return HessianComparison(r, float(best), float(bound), 1e-4)


# ---------------------------------------------------------------------------
# geodesic endpoint stability
# ---------------------------------------------------------------------------


def distance_to_geodesic(manifold: Manifold, x, p, q) -> np.ndarray:
    """Distance from points to the geodesic segment joining p and q.

    ``x``, ``p`` and ``q`` broadcast over leading axes: points of shape
    ``(k, N)`` against one segment give ``(k,)`` distances.  Closed form on
    ``sphere:3``, the one target it accepts; any other raises ``ConfigError``.
    """
    if not (manifold.kind == "sphere" and manifold.ambient_dim == 3):
        raise ConfigError(f"the distance to a geodesic is computed on sphere:3 only, "
                          f"not on {manifold.spec_id}")
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    # the foot on the great circle through p and q if it lies on the arc,
    # else (p == q, x at a pole of the circle, foot past an end) an end
    nvec = np.cross(p, q)
    nn = np.sqrt(_dot(nvec, nvec))
    nhat = nvec / np.where(nn > 1e-14, nn, 1.0)[..., None]
    off = _dot(x, nhat)
    foot = x - off[..., None] * nhat
    fn = np.sqrt(_dot(foot, foot))
    w = foot / np.where(fn > 1e-14, fn, 1.0)[..., None]
    # w splits the arc p -> q, not its complement: for arcs longer than
    # 2*pi/3 both distances can stay below the arc length off the arc
    reach = manifold.dist(p, q) + 2e-12
    on_arc = (nn > 1e-14) & (fn > 1e-14) & (manifold.dist(p, w) + manifold.dist(w, q) <= reach)
    to_ends = np.minimum(manifold.dist(x, p), manifold.dist(x, q))
    return np.where(on_arc, np.abs(np.arcsin(np.clip(off, -1.0, 1.0))), to_ends)


def hausdorff_one_sided(manifold: Manifold, p1, q1, p2, q2):
    """sup over the first segment, sampled at 33 points, of the distance to
    the second segment on ``sphere:3``; endpoints broadcast over leading axes."""
    p1, q1, p2, q2 = (np.asarray(a, dtype=float)[..., None, :] for a in (p1, q1, p2, q2))
    pts = manifold.geodesic_point(p1, q1, np.linspace(0.0, 1.0, 33))
    return np.max(distance_to_geodesic(manifold, pts, p2, q2), axis=-1)


def endpoint_stability_ratio(manifold: Manifold, p1, q1, p2, q2):
    """One-sided Hausdorff distance between two geodesic segments on
    ``sphere:3`` divided by the larger endpoint displacement; 0 when the
    endpoints coincide.  Endpoints broadcast: four (n, 3) arrays give (n,)
    ratios.  Other targets raise ``ConfigError``."""
    denom = np.maximum(manifold.dist(p1, p2), manifold.dist(q1, q2))
    haus = hausdorff_one_sided(manifold, p1, q1, p2, q2)
    return np.where(denom == 0.0, 0.0, haus / np.where(denom == 0.0, 1.0, denom))[()]


@dataclass(frozen=True)
class StabilityScan:
    max_ratio: float
    ratios: np.ndarray


def geodesic_endpoint_stability(
    n_samples: int,
    radius: float = 1.0,
    seed: int = 0,
) -> StabilityScan:
    """Empirical stability constant: max ratio of segment Hausdorff distance
    to endpoint displacement over random quadruples in a geodesic ball of
    the unit 2-sphere.

    The quadruples come from a counter-based generator keyed by ``seed``,
    drawn sequentially, so a scan is reproducible and its stream can be
    replayed.  The loop makes only the generator calls, per point a Gaussian
    draw and then its radius; the tangents, their norms, the steps and the
    ratios of all quadruples are then evaluated in one batch, with the bits
    of ``random_direction`` and one point at a time.  A draw ``random_direction``
    would redraw shifts the stream after it, so then the points are drawn again
    one at a time from the generator's state before the loop.
    """
    n_samples = integer("n_samples", n_samples)
    if n_samples < 1 or not radius > 0.0:
        raise ConfigError(f"need n_samples >= 1 and radius > 0, got {n_samples} and {radius}")
    manifold = _SPHERE3
    if radius >= manifold.convexity_radius:
        raise GeometryError(f"ball radius {radius} reaches the convexity radius")
    rng = np.random.Generator(np.random.Philox(seed))
    start = rng.bit_generator.state
    center = np.eye(manifold.ambient_dim)[0]
    # random() is the draw uniform() returns (0.0 + 1.0 * U) without its argument handling
    n_points = 4 * n_samples
    raw, scales = np.empty((n_points, manifold.ambient_dim)), np.empty(n_points)
    normal, uniform = rng.standard_normal, rng.random
    for k in range(n_points):
        normal(out=raw[k])
        scales[k] = radius * uniform() ** 0.5
    dirs, norms, kept = manifold._measured_tangents(center, raw)
    if not kept.all():  # about 5e-17 per draw
        rng.bit_generator.state = start
        for k in range(n_points):
            dirs[k], norms[k] = manifold.random_direction(rng, center)
            scales[k] = radius * rng.random() ** 0.5
    steps = (dirs / norms[:, None]) * scales[:, None]
    quads = manifold.exp(center, steps).reshape(n_samples, 4, -1)
    ratios = endpoint_stability_ratio(manifold, *quads.transpose(1, 0, 2))
    ratios.flags.writeable = False
    return StabilityScan(float(np.max(ratios)), ratios)
