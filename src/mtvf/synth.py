"""Deterministic synthetic curve generators.

All randomness flows through a counter-based generator keyed by an explicit
seed, so outputs are reproducible across platforms and safe to regenerate
concurrently.
"""
from __future__ import annotations

import numpy as np

from .curves import PiecewiseConstantCurve, SampledCurve, plateau_lengths
from .errors import ConfigError, GeometryError, integer
from .flows import scalar_curve
from .manifolds import Manifold, Sphere, parse_manifold

SUITE_MANIFOLDS = ("euclidean:2", "sphere:3", "circle", "cylinder")


def _rng(seed, stream: int = 0) -> np.random.Generator:
    # a Philox key is a non-negative integer
    seed = integer("seed", seed)
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")
    return np.random.Generator(np.random.Philox([seed, stream]))


def staircase(values, breakpoints=None) -> PiecewiseConstantCurve:
    """``flows.scalar_curve`` with its plateaus evenly spaced by default."""
    m = np.size(values)
    return scalar_curve(np.arange(1, m) / m if breakpoints is None else breakpoints, values)


def square_vertices(a: float) -> np.ndarray:
    """Vertices (p0, p1, q0, q1) of a geodesic square of side ``a`` on the
    unit sphere centered at (1,0,0).

    p0/q0 and p1/q1 are mirror pairs across the xz-plane; p0/p1 and q0/q1
    across the xy-plane.  The circumradius rho satisfies cos a = cos^2 rho.
    """
    if not 0.0 < a < 0.5 * np.pi:
        raise GeometryError(f"side {a} outside (0, pi/2)")
    rho = np.arccos(np.sqrt(np.cos(a)))
    s = np.sin(rho) / np.sqrt(2.0)
    cr = np.cos(rho)
    return np.array(
        [
            [cr, s, s],    # p0
            [cr, s, -s],   # p1
            [cr, -s, s],   # q0
            [cr, -s, -s],  # q1
        ]
    )


def two_jump_square(
    side: float = 0.5, eps: float = 0.1, variant: str = "veps"
) -> PiecewiseConstantCurve:
    """Piecewise-constant data built on the vertices of a geodesic square on
    the unit 2-sphere centered at (1,0,0).

    ``variant="u"``: one jump at 1/2 between adjacent vertices (p0 -> q0).
    ``variant="veps"``: the four-plateau comparison datum
    p0, p1, q1, q0 with jumps at 1/2-eps, 1/2, 1/2+eps.
    ``variant="midpoint"``: pointwise geodesic midpoints of the two, whose
    middle jump is the midpoint separation (> side) — the semiconvexity
    counterexample mechanism.
    """
    if not 0.0 < eps < 0.5:
        raise ConfigError("eps must lie in (0, 1/2)")
    sphere = Sphere(3)
    p0, p1, q0, q1 = square_vertices(side)
    if variant == "u":
        return PiecewiseConstantCurve(sphere, np.array([0.5]), np.stack([p0, q0]))
    if variant == "veps":
        return PiecewiseConstantCurve(
            sphere,
            np.array([0.5 - eps, 0.5, 0.5 + eps]),
            np.stack([p0, p1, q1, q0]),
        )
    if variant == "midpoint":
        m_p = sphere.geodesic_point(p0, p1, 0.5)
        m_q = sphere.geodesic_point(q0, q1, 0.5)
        return PiecewiseConstantCurve(
            sphere,
            np.array([0.5 - eps, 0.5, 0.5 + eps]),
            np.stack([p0, m_p, m_q, q0]),
        )
    raise ConfigError(f"unknown variant {variant!r}")


def two_jump_sphere_example() -> PiecewiseConstantCurve:
    """Fixed three-plateau datum on sphere(3) with two comparably sized,
    non-coplanar jumps — the standard cross-solver comparison case."""
    sphere = Sphere(3)
    vals = sphere.project_point(
        np.array(
            [
                [1.0, -0.35, 0.10],
                [1.0, 0.25, 0.30],
                [1.0, 0.55, -0.25],
            ]
        )
    )
    return PiecewiseConstantCurve(sphere, np.array([0.35, 0.65]), vals)


def noisy_field(
    manifold: Manifold | str,
    grid_n: int = 257,
    noise: float = 0.15,
    seed: int = 0,
) -> SampledCurve:
    """Smooth geodesic sweep, of length min(1, 0.9 * convexity radius),
    perturbed by tangent-space Gaussian noise pushed back to the manifold
    with exp — data stay on-manifold exactly.  ``grid_n`` is an integer of at least 2."""
    man = parse_manifold(manifold) if isinstance(manifold, str) else manifold
    grid_n = integer("grid_n", grid_n)
    if grid_n < 2:
        raise ConfigError("grid_n must be at least 2")
    rng = _rng(seed, 1)
    p = man.random_point(rng)
    direction, nd = man.random_direction(rng, p)
    reach = min(1.0, 0.9 * man.convexity_radius)
    q = man.exp(p, reach * (direction / nd))
    base = man.geodesic_point(p, q, np.linspace(0.0, 1.0, grid_n))
    xi = man.random_tangent(rng, base)
    return SampledCurve(man, man.exp(base, noise * xi))


def random_rad_curve(
    manifold: Manifold | str,
    rng: np.random.Generator,
    n_jumps: int | None = None,
    min_gap: float = 0.06,
) -> PiecewiseConstantCurve:
    """Random piecewise-constant datum with every jump well inside the
    admissible range: at most 0.8 * min(convexity radius, 1), strictly below
    twice the convexity radius."""
    man = parse_manifold(manifold) if isinstance(manifold, str) else manifold
    if n_jumps is None:
        n_jumps = int(rng.integers(1, 5))
    max_jump = 0.8 * min(man.convexity_radius, 1.0)
    while True:
        b = np.sort(rng.uniform(0.08, 0.92, n_jumps))
        if np.all(plateau_lengths(b) >= min_gap):
            break
    vals = [man.random_point(rng)]
    for _ in range(n_jumps):
        v, nv = man.random_direction(rng, vals[-1])
        step = max_jump * rng.uniform(0.3, 1.0)
        vals.append(man.exp(vals[-1], (step / nv) * v))
    return PiecewiseConstantCurve(man, b, np.stack(vals))


def suite(seed: int = 7, per_manifold: int = 20) -> dict[str, list[PiecewiseConstantCurve]]:
    """Seeded random admissible data for the standard verification sweep:
    ``per_manifold`` curves on each built-in geometry."""
    out: dict[str, list[PiecewiseConstantCurve]] = {}
    for idx, name in enumerate(SUITE_MANIFOLDS):
        man = parse_manifold(name)
        rng = _rng(seed, 100 + idx)
        out[name] = [random_rad_curve(man, rng) for _ in range(per_manifold)]
    return out
