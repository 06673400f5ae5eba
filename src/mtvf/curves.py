"""Curves of bounded variation on [0, 1] with values in a manifold.

Two concrete representations are used throughout the package:

* :class:`PiecewiseConstantCurve` — finitely many plateaus, jumps carry all
  of the variation;
* :class:`SampledCurve` — values on a uniform grid, variation measured by
  chord sums.

Total variation of a manifold-valued curve is the diffuse part plus the sum
of geodesic jump sizes.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, GeometryError
from .manifolds import CONSTRAINT_TOL, Manifold

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
        edges = np.concatenate([[0.0], self.breakpoints, [1.0]])
        return np.diff(edges)

    def jump_sizes(self) -> np.ndarray:
        return chord_sizes(self)

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
    """Total variation split into diffuse part and individual jumps."""

    diffuse: float
    jump_sizes: np.ndarray = field(default_factory=lambda: np.zeros(0))

    @property
    def total(self) -> float:
        return float(self.diffuse + np.sum(self.jump_sizes))

    @property
    def max_jump(self) -> float:
        return float(np.max(self.jump_sizes, initial=0.0))


def chord_sizes(curve) -> np.ndarray:
    """Geodesic distances between consecutive values: the jump sizes of a
    step curve, the chords of a sampled one."""
    vals = curve.values
    if vals.shape[0] < 2:
        return np.zeros(0)
    return np.atleast_1d(curve.manifold.dist(vals[:-1], vals[1:]))


def tv_measure(curve) -> TVBreakdown:
    """Total variation of a curve, split into diffuse and jump parts.

    Piecewise-constant curves carry only jumps (geodesic sizes); sampled
    curves carry only a diffuse chord-sum part, which converges to the
    geodesic length from below under grid refinement.
    """
    if isinstance(curve, PiecewiseConstantCurve):
        if curve.num_jumps:
            # a jump across the cut locus has no unique geodesic: reject it
            curve.manifold.log(curve.values[:-1], curve.values[1:])
        return TVBreakdown(0.0, jump_sizes=chord_sizes(curve))
    if isinstance(curve, SampledCurve):
        return TVBreakdown(float(np.sum(chord_sizes(curve))))
    raise ConfigError(f"cannot measure variation of {type(curve).__name__}")


def mollify(curve: PiecewiseConstantCurve, grid_n: int) -> SampledCurve:
    """Sample a step curve with each jump replaced by a geodesic ramp.

    The ramp at breakpoint ``x_j`` spans ``[x_j - w/2, x_j + w/2]`` and
    interpolates the two plateau values along their geodesic; elsewhere the
    plateau value is used.  The width ``w`` is eight grid cells, capped at
    0.45 of the narrowest plateau so that neighbouring ramps never meet.
    Total variation is preserved up to the chord-sum discretization error.
    """
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
