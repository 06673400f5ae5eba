"""Closed-form geometry kernels for the built-in constraint manifolds.

Points are ambient-coordinate arrays of shape ``(..., ambient_dim)``; every
operation broadcasts over leading axes.  Composite operations renormalize
their results so the constraint residual stays at the 1e-12 level.

Built-in geometries: ``euclidean:<N>``, ``sphere:<N>`` (unit sphere in R^N,
N >= 2), ``circle`` (unit circle in R^2) and ``cylinder`` (S^1 x R in R^3).

The cylinder's ``dist`` is ``sqrt(a^2 + dz^2)`` and its ``project_point``
divides by ``_norm`` of the circle coordinates: on 1e4 rows ``np.hypot``
takes about six times as long, and the sqrt form stays within 2 ulp of it.
The squares overflow only for sizes above 1e154, which the convexity-radius
check refuses as chords and curve inputs refuse as off the target, and
underflow only below 1e-154, far under ``COINCIDENT_TOL`` and the 1e-14
axis distance that ``project_point`` refuses.  ``_tangent_pair`` keeps
``np.hypot``: at the exact solver's batches of a few rows one ufunc call is
the cheaper form, and the tests pin its bits to the plain formulas.

A grid run takes its chords from the node differences its next step reads:
``_secant_chords`` turns the secant of length s between two nodes on the
target into their ``dist``, 2 asin(s / 2) on a sphere, s itself on Euclidean
space.  Its step ends at ``_retract``'s (u + xi) / |u + xi|, with |u + xi|
measured: sqrt(1 + |xi|^2) assumes |u| = 1 and lets the constraint residual
grow.  Circle and cylinder runs step in their flat angle chart from the datum
on, so only the Euclidean kernels serve them.  ``tv_measure`` and the
verifier keep ``dist``.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError, GeometryError

CONSTRAINT_TOL = 1e-12

# Two points are considered coincident (no jump direction) below this.
COINCIDENT_TOL = 1e-15
# points this far apart around a great circle have no unique geodesic
_CUT_ANGLE = math.pi * (1.0 - 1e-12)

# Sphere.exp's sin(y)/y takes y = _EPS at t = 0, where it rounds to 1
_EPS = float(np.finfo(float).eps)

# a random tangent this short or shorter has no reliable direction and is drawn again
SHORT_DRAW = 1e-8

# rows from which _dot sums columns (measured crossover ~70 at N = 2, ~200 at N = 7)
_COLUMN_SUM_ROWS = 128


def _dot(a: np.ndarray, b: np.ndarray, out=None) -> np.ndarray:
    # bit for bit np.add.reduce(a * b, axis=-1): it adds rows of <= 7 entries in
    # order onto +0.0; the column sum adds one column's products at a time.
    # _dot(a, a) skips the +0.0, which only turns -0.0 into +0.0: no square is -0.0
    n = a.shape[-1] if a.size >= _COLUMN_SUM_ROWS else 0  # 0: reduce, no shape lookup
    if not 0 < n < 8 or a.size < _COLUMN_SUM_ROWS * n or a.shape != b.shape:
        return np.add.reduce(a * b, axis=-1, out=out)
    s = np.multiply(a[..., 0], b[..., 0], out=out)
    if a is not b:
        s += 0.0
    if n > 1:
        column = np.empty_like(s)
        for j in range(1, n):
            s += np.multiply(a[..., j], b[..., j], out=column)
    return s


def _norm(v: np.ndarray) -> np.ndarray:
    return np.sqrt(_dot(v, v))


def _circle_retract(u: np.ndarray, v: np.ndarray, out: np.ndarray) -> np.ndarray:
    # out = (u + xi) / |u + xi| for xi = v - (v.u) u, left in v; returns atan |xi|
    np.multiply(_dot(v, u)[..., None], u, out=out)
    v -= out
    np.add(u, v, out=out)
    out /= _norm(out)[..., None]
    return np.arctan(_norm(v))


def _turn(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    # signed angle from p to q around the circle of their first two coordinates, in (-pi, pi]
    s = p[..., 0] * q[..., 1]
    s -= p[..., 1] * q[..., 0]
    c = p[..., 0] * q[..., 0]
    c += p[..., 1] * q[..., 1]
    return np.arctan2(s, c)


def _unit_norm(v: np.ndarray):
    # (v / |v|, |v|); a zero vector stays zero instead of turning into 0/0
    n = _norm(v)
    return v / np.maximum(n, 1e-300)[..., None], n


class Manifold:
    """Geometry of an isometrically embedded manifold with closed-form maps.

    Subclasses provide ``project_point``, ``tangent_projection``, ``dist``,
    ``exp`` and ``log``; derived helpers
    (geodesic interpolation, unit tangents of a jump, comparison bounds)
    live here.
    """

    kind: str
    ambient_dim: int
    curvature_bound: float       # sup of sectional curvatures
    injectivity_radius: float

    # -- identity ---------------------------------------------------------

    @property
    def spec_id(self) -> str:
        if self.kind in ("circle", "cylinder"):
            return self.kind
        return f"{self.kind}:{self.ambient_dim}"

    def __repr__(self) -> str:
        return f"<manifold {self.spec_id}>"

    def __eq__(self, other) -> bool:
        return isinstance(other, Manifold) and self.spec_id == other.spec_id

    def __hash__(self) -> int:
        return hash(self.spec_id)

    # -- curvature-dependent constants -------------------------------------

    @property
    def convexity_radius(self) -> float:
        """Radius bound under which jump endpoints admit stable geodesics.

        Half the injectivity radius, additionally capped by the curvature
        scale pi/sqrt(K) when the curvature bound K is positive.
        """
        if self.curvature_bound > 0:
            return 0.5 * min(
                self.injectivity_radius, math.pi / math.sqrt(self.curvature_bound)
            )
        return 0.5 * self.injectivity_radius

    def hessian_comparison_bound(self, sigma: float) -> float:
        """Lower bound for eigenvalues of Hess(dist^2/2) at distance sigma.

        Equals 1 for nonpositively curved geometries and
        sqrt(K)*sigma*cot(sqrt(K)*sigma) when the curvature bound K is
        positive.  Valid for 0 <= sigma < 2 * convexity_radius.
        """
        if not 0.0 <= sigma < 2.0 * self.convexity_radius:  # NaN fails too
            raise GeometryError(
                f"distance {sigma} out of comparison range [0, {2 * self.convexity_radius})"
            )
        if self.curvature_bound <= 0:
            return 1.0
        x = math.sqrt(self.curvature_bound) * sigma
        return 1.0 - x * x / 3.0 if x < 1e-6 else float(x / np.tan(x))

    # -- abstract kernels ---------------------------------------------------

    def project_point(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def tangent_projection(self, p: np.ndarray, v: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def dist(self, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def exp(self, p: np.ndarray, v: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def log(self, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _tangent_pair(self, p: np.ndarray, q: np.ndarray):
        """``(t_minus, t_plus, jump size)`` of ``unit_tangent_pair``, no checks."""
        raise NotImplementedError

    def _secant_chords(self, d: np.ndarray, sq: np.ndarray, out: np.ndarray):
        """``dist`` of neighbouring nodes on the target, into ``out``, from their
        differences ``d`` and its squared norms ``sq``."""
        raise NotImplementedError

    def _retract(self, u: np.ndarray, v: np.ndarray, out: np.ndarray) -> float:
        """Write the closest point to u + xi on the target, xi the tangent part of
        v - u, into ``out``, overwriting ``v``; return the sum of the squared
        geodesic step lengths, atan |xi| on a sphere (the cylinder has none)."""
        raise NotImplementedError

    def _random_points(self, rng: np.random.Generator, shape: tuple) -> np.ndarray:
        """``random_point`` draws with leading axes ``shape``."""
        raise NotImplementedError

    # -- derived helpers ----------------------------------------------------

    def constraint_residual(self, p: np.ndarray) -> float:
        """Largest deviation of the given points from the manifold."""
        return float(_norm(np.asarray(p, float) - self.project_point(p)).max(initial=0.0))

    def geodesic_point(self, p: np.ndarray, q: np.ndarray, s) -> np.ndarray:
        """Point at parameter ``s`` of the constant-speed geodesic p -> q."""
        s = np.asarray(s, dtype=float)[..., None]
        out = self.exp(p, s * self.log(p, q))
        # pin the endpoints exactly
        return np.where(s == 0.0, p, np.where(s == 1.0, q, out))

    def unit_tangent_pair(self, p: np.ndarray, q: np.ndarray):
        """Unit tangents of the jump p -> q at each endpoint.

        Returns ``(t_minus, t_plus)``: ``t_minus`` sits in T_p and points
        toward q, ``t_plus`` sits in T_q and points away from p; both have
        unit length.  Both come from the target's one closed-form kernel,
        ``_tangent_pair``, which ``flows._jump_tangents`` calls as well.
        Raises ``GeometryError`` if p and q coincide.
        """
        p, q = np.asarray(p, float), np.asarray(q, float)
        if p.shape != q.shape:  # the kernels stack both ends
            p, q = np.broadcast_arrays(p, q)
        t_minus, t_plus, d = self._tangent_pair(p, q)
        if np.any(d < COINCIDENT_TOL):
            raise GeometryError("unit tangents undefined for coincident points")
        # flat targets share one array for both ends; hand out two
        return t_minus, (t_plus.copy() if t_plus is t_minus else t_plus)

    # -- sampling helpers (used by tests and synthetic data) ----------------

    def random_point(self, rng: np.random.Generator, size=()) -> np.ndarray:
        return self._random_points(rng, tuple(np.atleast_1d(size)))  # size () is one point

    def random_tangent(self, rng: np.random.Generator, p: np.ndarray) -> np.ndarray:
        v = rng.standard_normal(np.shape(p))
        return self.tangent_projection(p, v)

    def random_direction(self, rng: np.random.Generator, p: np.ndarray):
        """``(v, |v|)`` for a ``random_tangent`` v at p, redrawn while |v| <= ``SHORT_DRAW``;
        |v| is ``float(np.linalg.norm(v))``, computed as that function does for one point.
        This defines a direction draw; ``random_directions`` makes many of them at once."""
        while True:
            v = self.random_tangent(rng, p)
            n = math.sqrt(v.dot(v))
            if n > SHORT_DRAW:
                return v, n

    def _measured_tangents(self, p: np.ndarray, raw: np.ndarray):
        """``(v, |v|, kept)`` for the Gaussian rows ``raw`` at p: each row's tangent
        projection and its norm, with the bits ``random_direction`` gives one draw, and
        whether that norm is above ``SHORT_DRAW``, so that ``random_direction`` keeps it."""
        v = self.tangent_projection(p, raw)
        # vecdot takes each row's dot with the routine ndarray.dot calls for one vector
        n = np.sqrt(np.vecdot(v, v))
        return v, n, n > SHORT_DRAW

    def random_directions(self, rng: np.random.Generator, p: np.ndarray, count: int):
        """``count`` draws of ``random_direction`` at p as ``(k, N)`` tangents and ``(k,)``
        norms: the same stream and bits from one ``standard_normal`` call.  A short draw
        is skipped and one more drawn, as one draw at a time would draw it."""
        v, n, kept = self._measured_tangents(p, rng.standard_normal((count,) + np.shape(p)))
        if kept.all():
            return v, n
        more_v, more_n = self.random_directions(rng, p, count - np.count_nonzero(kept))
        return np.concatenate((v[kept], more_v)), np.concatenate((n[kept], more_n))


class Euclidean(Manifold):
    """Flat ambient space R^N; every map is linear."""

    kind = "euclidean"
    curvature_bound = 0.0
    injectivity_radius = math.inf

    def __init__(self, ambient_dim: int):
        if ambient_dim < 1:
            raise ConfigError("euclidean manifold needs ambient dimension >= 1")
        self.ambient_dim = int(ambient_dim)

    def project_point(self, x):
        return np.asarray(x, dtype=float)

    def tangent_projection(self, p, v):
        return np.asarray(v, dtype=float)

    def dist(self, p, q):
        return _norm(np.subtract(q, p, dtype=float))

    def exp(self, p, v):
        return np.asarray(p, float) + np.asarray(v, float)

    def log(self, p, q):
        return np.asarray(q, float) - np.asarray(p, float)

    def _secant_chords(self, d, sq, out):
        return np.sqrt(sq, out=out)

    def _retract(self, u, v, out):
        np.copyto(out, v)
        v -= u
        return float(np.sum(np.square(v, out=v)))

    def _tangent_pair(self, p, q):
        # the chord direction is tangent everywhere and the same at both ends
        t, d = _unit_norm(q - p)
        return t, t, d

    def _random_points(self, rng, shape):
        return rng.standard_normal(shape + (self.ambient_dim,))


class Sphere(Manifold):
    """Unit sphere S^{N-1} embedded in R^N (N >= 2)."""

    kind = "sphere"
    curvature_bound = 1.0
    injectivity_radius = math.pi

    def __init__(self, ambient_dim: int):
        if ambient_dim < 2:
            raise ConfigError("sphere needs ambient dimension >= 2")
        self.ambient_dim = int(ambient_dim)

    def project_point(self, x):
        x = np.asarray(x, dtype=float)
        r = _norm(x)
        if (r < 1e-14).any():
            raise GeometryError("cannot project the origin onto the sphere")
        return x / r[..., None]

    def tangent_projection(self, p, v):
        p = np.asarray(p, float)
        v = np.asarray(v, float)
        return v - _dot(v, p)[..., None] * p

    def dist(self, p, q):
        p = np.asarray(p, float)
        q = np.asarray(q, float)
        c = _dot(p, q)
        w = np.multiply(c[..., None], p)
        w = np.subtract(q, w, out=w)  # q - c p
        return np.arctan2(_norm(w), c)

    def exp(self, p, v):
        p = np.asarray(p, float)
        v = np.asarray(v, float)
        t = _norm(v)
        # sin(t)/t by the steps of np.sinc(t / pi), same bits, less overhead
        x = math.pi * (t / math.pi)
        y = np.where(x, x, _EPS)
        out = np.cos(t)[..., None] * p + (np.sin(y) / y)[..., None] * v
        return self.project_point(out)

    def log(self, p, q):
        p = np.asarray(p, float)
        q = np.asarray(q, float)
        c = _dot(p, q)
        w = q - c[..., None] * p
        s = _norm(w)
        theta = np.arctan2(s, c)
        if (theta >= _CUT_ANGLE).any():
            raise GeometryError("antipodal points have no unique geodesic")
        scale = np.where(s < 1e-300, 1.0, theta / np.where(s < 1e-300, 1.0, s))
        return scale[..., None] * w

    def _secant_chords(self, d, sq, out):
        # the arc 2 asin(s / 2) that a secant of length s = sqrt(sq) spans; s / 2 is
        # clipped at 1, past which rounding takes it at an antipode, where asin
        # would warn and give a NaN chord that no size check refuses
        np.sqrt(sq, out=out)
        out *= 0.5
        np.minimum(out, 1.0, out=out)
        np.arcsin(out, out=out)
        out *= 2.0
        return out

    def _retract(self, u, v, out):
        return float(np.sum(np.square(_circle_retract(u, v, out))))

    def _tangent_pair(self, p, q):
        # w = q - c p points from p toward q, v = c q - p away from p at q.
        # Each is projected once more: scaled to unit length, the O(eps)
        # radial rounding of w would grow to O(eps/d).  Both ends are one
        # stacked array, since _dot rounds each row alone.
        c = _dot(p, q)[..., None]
        ends, wv = np.array((p, q)), np.array((q - c * p, c * q - p))
        wv -= _dot(wv, ends)[..., None] * ends
        (t_minus, t_plus), (s, _) = _unit_norm(wv)
        d = np.arctan2(s, c[..., 0])
        if d.max() >= _CUT_ANGLE:
            raise GeometryError("antipodal points have no unique geodesic")
        return t_minus, t_plus, d

    def _random_points(self, rng, shape):
        return self.project_point(rng.standard_normal(shape + (self.ambient_dim,)))


class Circle(Sphere):
    """Unit circle: the 2-dimensional-ambient specialization of the sphere."""

    kind = "circle"

    def __init__(self):
        super().__init__(2)


class Cylinder(Manifold):
    """Unit cylinder S^1 x R embedded in R^3: (cos a, sin a, z)."""

    kind = "cylinder"
    ambient_dim = 3
    curvature_bound = 0.0
    injectivity_radius = math.pi
    _axis = np.array([0.0, 0.0, 1.0])

    def project_point(self, x):
        x = np.array(x, dtype=float)
        r = _norm(x[..., :2])
        if (r < 1e-14).any():
            raise GeometryError("cannot project the axis onto the cylinder")
        x[..., 0] /= r
        x[..., 1] /= r
        return x

    def _circ_tangent(self, p):
        return np.stack([-p[..., 1], p[..., 0], np.zeros_like(p[..., 2])], axis=-1)

    def tangent_projection(self, p, v):
        v = np.asarray(v, float)
        n = np.array(p, dtype=float)  # the radial direction
        n[..., 2] = 0.0
        return v - _dot(v, n)[..., None] * n

    def dist(self, p, q):
        p = np.asarray(p, float)
        q = np.asarray(q, float)
        a = _turn(p, q)
        dz = q[..., 2] - p[..., 2]
        a *= a
        dz *= dz
        a += dz
        return np.sqrt(a)

    def exp(self, p, v):
        p = np.asarray(p, float)
        v = np.asarray(v, float)
        tau = self._circ_tangent(p)
        a = _dot(v, tau)
        ca, sa = np.cos(a), np.sin(a)
        x = ca * p[..., 0] - sa * p[..., 1]
        y = sa * p[..., 0] + ca * p[..., 1]
        z = p[..., 2] + v[..., 2]
        return self.project_point(np.stack([x, y, z], axis=-1))

    def log(self, p, q):
        p = np.asarray(p, float)
        q = np.asarray(q, float)
        a = _turn(p, q)
        if np.any(np.abs(a) >= _CUT_ANGLE):
            raise GeometryError("opposite cylinder rulings have no unique geodesic")
        dz = (q[..., 2] - p[..., 2])[..., None]
        return a[..., None] * self._circ_tangent(p) + dz * self._axis

    def _tangent_pair(self, p, q):
        # a * (circle tangent) + dz * axis at each end, normalised there: off
        # the cylinder the circle tangent is not unit
        a = _turn(p, q)
        if np.abs(a).max() >= _CUT_ANGLE:
            raise GeometryError("opposite cylinder rulings have no unique geodesic")
        dz = q[..., 2] - p[..., 2]
        ends = np.array((p, q))
        pair = np.empty(ends.shape)
        pair[..., 0], pair[..., 1], pair[..., 2] = -a * ends[..., 1], a * ends[..., 0], dz
        t_minus, t_plus = _unit_norm(pair)[0]
        return t_minus, t_plus, np.hypot(a, dz)

    def _random_points(self, rng, shape):
        a = rng.uniform(-math.pi, math.pi, shape)
        z = rng.standard_normal(shape)
        return np.stack([np.cos(a), np.sin(a), z], axis=-1)


def parse_manifold(text: str) -> Manifold:
    """Build a manifold from its config identifier, e.g. ``sphere:3``."""
    token = text.strip().lower()
    if token == "circle":
        return Circle()
    if token == "cylinder":
        return Cylinder()
    if ":" in token:
        kind, _, dim_text = token.partition(":")
        try:
            dim = int(dim_text)
        except ValueError as exc:
            raise ConfigError(f"bad manifold dimension in {text!r}") from exc
        if kind == "euclidean":
            return Euclidean(dim)
        if kind == "sphere":
            return Sphere(dim)
    raise ConfigError(f"unknown manifold identifier {text!r}")
