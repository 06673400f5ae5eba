"""Curves of bounded variation on [0, 1] with values in a manifold.

Two concrete representations are used throughout the package:

* :class:`PiecewiseConstantCurve` — finitely many plateaus, jumps carry all
  of the variation;
* :class:`SampledCurve` — values on a uniform grid, variation measured by
  chord sums.

Total variation of a manifold-valued curve is the sum of its geodesic jump
sizes, or of its chord sizes on a grid.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, GeometryError, integer
from .manifolds import CONSTRAINT_TOL, Manifold, Sphere, _CUT_ANGLE

# Plateaus closer than this are treated as equal and merged away.
_SPURIOUS_TOL = 1e-14


def _on_manifold(manifold: Manifold, vals: np.ndarray, what: str) -> np.ndarray:
    # finite values within 1e-9 of the manifold, projected back; else ConfigError
    if not np.isfinite(vals).all():
        raise ConfigError(f"{what} values must be finite")
    try:
        residual = manifold.constraint_residual(vals)
    except GeometryError as exc:
        raise ConfigError(f"{what} values are off the manifold: {exc}") from exc
    if residual > 1e-9:
        raise ConfigError(f"{what} values are off the manifold by {residual:.3g}")
    return manifold.project_point(vals) if residual > CONSTRAINT_TOL else vals


def plateau_lengths(breakpoints) -> np.ndarray:
    """Lengths of the plateaus that increasing ``breakpoints`` cut [0, 1] into."""
    return np.diff(np.concatenate([[0.0], breakpoints, [1.0]]))


@dataclass(frozen=True)
class PiecewiseConstantCurve:
    """Right-continuous step curve: value ``values[i]`` on ``[x_{i-1}, x_i)``.

    ``breakpoints`` are strictly increasing interior points of (0, 1);
    ``values`` has one more row than there are breakpoints.  Constructed
    curves are normalized: equal neighbouring plateaus are merged so every
    breakpoint is an actual jump.
    """

    manifold: Manifold
    breakpoints: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        bp = np.array(self.breakpoints, dtype=float, ndmin=1)  # copies: the caller's
        vals = np.array(self.values, dtype=float)  # arrays stay writable
        if bp.ndim != 1:
            raise ConfigError(f"breakpoints must be one-dimensional, got shape {bp.shape}")
        if vals.ndim != 2 or vals.shape[1] != self.manifold.ambient_dim:
            raise ConfigError(
                f"plateau values must have shape (m+1, {self.manifold.ambient_dim})"
            )
        if bp.size + 1 != vals.shape[0]:
            raise ConfigError("need exactly one more plateau than breakpoints")
        if bp.size and not ((bp > 0.0).all() and (bp < 1.0).all() and (np.diff(bp) > 0).all()):
            raise ConfigError("breakpoints must be strictly increasing inside (0, 1)")
        vals = _on_manifold(self.manifold, vals, "plateau")
        # drop spurious breakpoints (equal neighbouring plateaus)
        if bp.size:
            keep = self.manifold.dist(vals[:-1], vals[1:]) > _SPURIOUS_TOL
            if not keep.all():
                bp = bp[keep]
                vals = vals[np.concatenate([[True], keep])]
        bp.setflags(write=False)
        vals.setflags(write=False)
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", vals)

    # -- basic queries ------------------------------------------------------

    @property
    def num_jumps(self) -> int:
        return int(self.breakpoints.size)

    def plateau_lengths(self) -> np.ndarray:
        return plateau_lengths(self.breakpoints)

    def eval_grid(self, xs: np.ndarray) -> np.ndarray:
        idx = np.searchsorted(self.breakpoints, np.asarray(xs, float), side="right")
        return self.values[idx]


@dataclass(frozen=True)
class SampledCurve:
    """Curve sampled on the uniform grid ``x_i = i / (n - 1)``."""

    manifold: Manifold
    values: np.ndarray

    def __post_init__(self):
        vals = np.array(self.values, dtype=float)  # a copy: the caller's array stays writable
        if vals.ndim != 2 or vals.shape[1] != self.manifold.ambient_dim:
            raise ConfigError(
                f"sampled values must have shape (n, {self.manifold.ambient_dim})"
            )
        if vals.shape[0] < 2:
            raise ConfigError("a sampled curve needs at least two nodes")
        vals = _on_manifold(self.manifold, vals, "sampled")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def grid_n(self) -> int:
        return int(self.values.shape[0])

    @property
    def h(self) -> float:
        return 1.0 / (self.grid_n - 1)


@dataclass(frozen=True)
class TVBreakdown:
    """Total variation of a curve, as ``tv_measure`` measures it."""

    total: float


def chord_sizes(curve) -> np.ndarray:
    """Geodesic distances between consecutive values: the jump sizes of a
    step curve, the chords of a sampled one."""
    vals = curve.values
    if vals.shape[0] < 2:
        return np.zeros(0)
    return np.atleast_1d(curve.manifold.dist(vals[:-1], vals[1:]))


def _refuse_wide(manifold, sizes, place, noun):
    """Raise ``GeometryError`` if the largest of ``sizes`` (of a
    chord, a jump) reaches twice the convexity radius, naming its size and
    ``place(i)``, the x of the i-th one.  On a sphere or the circle that is
    the half turn pi, reached from ``_CUT_ANGLE`` on, the turn at which the
    angle chart refuses too: ``dist`` reads an exact antipode up to 4.4e-16
    short of pi, and ``log`` refuses a pair from ``_CUT_ANGLE`` on."""
    bound = _CUT_ANGLE if isinstance(manifold, Sphere) else 2.0 * manifold.convexity_radius
    if sizes.size and sizes.max() >= bound:
        i = int(np.argmax(sizes))
        raise GeometryError(
            f"{noun} of size {sizes[i]:.6g} at x={place(i):.6g} reaches twice the "
            f"convexity radius {manifold.convexity_radius:.6g}"
        )


def tv_measure(curve) -> TVBreakdown:
    """Total variation of a curve: the sum of its ``chord_sizes``.

    Those are the geodesic jump sizes of a piecewise-constant curve and the
    chords of a sampled one, whose sum converges to the geodesic length from
    below under grid refinement.  A jump or chord of twice the convexity
    radius or more is refused, as the solvers refuse it.
    """
    if isinstance(curve, PiecewiseConstantCurve):
        noun, place = "jump", lambda i: curve.breakpoints[i]
    elif isinstance(curve, SampledCurve):
        noun, place = "chord", lambda i: i * curve.h
    else:
        raise ConfigError(f"cannot measure variation of {type(curve).__name__}")
    sizes = chord_sizes(curve)
    _refuse_wide(curve.manifold, sizes, place, noun)
    return TVBreakdown(float(np.sum(sizes)))


def mollify(curve: PiecewiseConstantCurve, grid_n: int) -> SampledCurve:
    """Sample a step curve with each jump replaced by a geodesic ramp.

    The ramp at breakpoint ``x_j`` spans ``[x_j - w/2, x_j + w/2]`` and
    interpolates the two plateau values along their geodesic; elsewhere the
    plateau value is used.  The width ``w`` is eight grid cells, capped at
    0.45 of the narrowest plateau so that neighbouring ramps never meet.
    Total variation is preserved up to the chord-sum discretization error.
    ``grid_n`` is an integer of at least 2, else ``ConfigError``.
    """
    grid_n = integer("grid_n", grid_n)
    if grid_n < 2:
        raise ConfigError("grid_n must be at least 2")
    w = min(8 / (grid_n - 1), 0.45 * float(curve.plateau_lengths().min()))
    xs = np.linspace(0.0, 1.0, grid_n)
    vals = curve.eval_grid(xs)
    for j, bp in enumerate(curve.breakpoints):
        inside = np.abs(xs - bp) <= 0.5 * w
        if not np.any(inside):
            continue
        s = (xs[inside] - (bp - 0.5 * w)) / w
        vals[inside] = curve.manifold.geodesic_point(
            curve.values[j], curve.values[j + 1], np.clip(s, 0.0, 1.0)
        )
    return SampledCurve(curve.manifold, vals)


def compose_with_geodesic(
    manifold: Manifold, p: np.ndarray, q: np.ndarray, sigma: PiecewiseConstantCurve
) -> PiecewiseConstantCurve:
    """Map a scalar step curve through the geodesic from p to q.

    ``sigma`` must be a step curve on euclidean:1 with values in [0, 1]
    (within 1e-12, then clipped); plateau value ``s`` becomes
    ``manifold.geodesic_point(p, q, s)``, which is p and q exactly at s = 0
    and s = 1.  The composed curve has total variation
    ``dist(p, q) * TV(sigma)`` as long as sigma is monotone.
    """
    if not isinstance(sigma, PiecewiseConstantCurve) or sigma.manifold.spec_id != "euclidean:1":
        raise ConfigError("geodesic parameters must be a step curve on euclidean:1, "
                          f"not a {type(sigma).__name__} on {sigma.manifold.spec_id}")
    svals = sigma.values[:, 0]
    if np.any(svals < -1e-12) or np.any(svals > 1.0 + 1e-12):
        raise ConfigError("geodesic parameters must lie in [0, 1]")
    new_vals = manifold.geodesic_point(p, q, np.clip(svals, 0.0, 1.0))
    return PiecewiseConstantCurve(manifold, sigma.breakpoints, new_vals)


def l2_distance(a, b) -> float:
    """L2(0,1) distance between two curves using geodesic pointwise distance.

    Piecewise-constant pairs are integrated exactly on their merged
    breakpoint partition; any pair involving a sampled curve is integrated
    with the trapezoid rule on 2049 nodes (or the sampled grid if finer).
    """
    if a.manifold != b.manifold:
        raise ConfigError("curves live on different manifolds")
    man = a.manifold
    if isinstance(a, PiecewiseConstantCurve) and isinstance(b, PiecewiseConstantCurve):
        edges = np.unique(np.concatenate([[0.0], a.breakpoints, b.breakpoints, [1.0]]))
        mids = 0.5 * (edges[:-1] + edges[1:])
        d = man.dist(a.eval_grid(mids), b.eval_grid(mids))
        return float(np.sqrt(np.sum(d * d * np.diff(edges))))
    grid_n = max([2049] + [c.grid_n for c in (a, b) if isinstance(c, SampledCurve)])
    xs = np.linspace(0.0, 1.0, grid_n)
    va = a.eval_grid(xs) if isinstance(a, PiecewiseConstantCurve) else _resample(a, xs)
    vb = b.eval_grid(xs) if isinstance(b, PiecewiseConstantCurve) else _resample(b, xs)
    d2 = man.dist(va, vb) ** 2
    return float(np.sqrt(np.trapezoid(d2, xs)))


def _resample(curve: SampledCurve, xs: np.ndarray) -> np.ndarray:
    """Evaluate a sampled curve at arbitrary abscissae via geodesic interpolation."""
    n = curve.grid_n
    pos = np.clip(np.asarray(xs, float), 0.0, 1.0) * (n - 1)
    i0 = np.clip(np.floor(pos).astype(int), 0, n - 2)
    frac = pos - i0
    # a node itself (to 1e-12) is read exactly: geodesic_point is p at s = 0
    return curve.manifold.geodesic_point(curve.values[i0], curve.values[i0 + 1],
                                         np.where(frac <= 1e-12, 0.0, frac))
