"""Geometry lab: the geodesic square, comparison estimates, sweeps."""
import numpy as np
import pytest

from mtvf import (
    Circle,
    ConfigError,
    Cylinder,
    Euclidean,
    GeometryError,
    Sphere,
)
from mtvf.lab import (
    distance_to_geodesic,
    endpoint_stability_ratio,
    first_positive_gap,
    geodesic_endpoint_stability,
    hausdorff_one_sided,
    hessian_comparison_check,
    midpoint_separation,
    second_difference,
    semiconvexity_gap,
)
from mtvf.synth import square_vertices

SPH = Sphere(3)
EU3 = Euclidean(3)


# ---------------------------------------------------------------------------
# midpoint gain of the geodesic square
# ---------------------------------------------------------------------------


def test_midpoint_separation_closed_form_endpoints():
    # arcsin is square-root steep at 1, so the endpoint only resolves to
    # sqrt(machine eps) even though tan(pi/4) is exact to one ulp
    assert midpoint_separation(np.pi / 2) == pytest.approx(np.pi, abs=1e-7)
    with pytest.raises(GeometryError, match=r"side 0\.0 outside \(0, pi/2\]"):
        midpoint_separation(0.0)
    with pytest.raises(GeometryError, match=r"outside \(0, pi/2\]"):
        midpoint_separation(np.pi / 2 + 0.1)


def test_midpoint_separation_matches_direct_construction():
    for a in (0.3, 0.8, 1.2):
        p0, p1, q0, q1 = square_vertices(a)
        m1 = SPH.geodesic_point(p0, p1, 0.5)
        m2 = SPH.geodesic_point(q0, q1, 0.5)
        assert float(SPH.dist(m1, m2)) == pytest.approx(midpoint_separation(a), abs=1e-10)


def test_midpoint_separation_strictly_gains():
    # leading excess is a^3/8 (measured 0.125000 at a = 1e-3); a^3/12 follows
    # from arcsin(tan x) > x + x^3/3 at x = a/2 and holds with clear margin
    for a in np.linspace(0.01, np.pi / 2 - 0.01, 50):
        excess = midpoint_separation(a) - a
        assert excess > a**3 / 12
    for a in (0.01, 0.1, 0.5):
        assert (midpoint_separation(a) - a) / a**3 == pytest.approx(0.125, rel=0.05)


def test_square_vertices_geometry():
    a = 0.7
    verts = square_vertices(a)
    assert np.allclose(np.linalg.norm(verts, axis=1), 1.0, atol=1e-12)
    p0, p1, q0, q1 = verts
    for x, y in ((p0, p1), (q0, q1), (p0, q0), (p1, q1)):
        assert float(SPH.dist(x, y)) == pytest.approx(a, abs=1e-12)
    # diagonals are longer than sides
    assert float(SPH.dist(p0, q1)) > a
    # mirror symmetries across the two coordinate planes
    assert np.allclose(p0 * [1, 1, -1], p1)
    assert np.allclose(p0 * [1, -1, 1], q0)


# ---------------------------------------------------------------------------
# semiconvexity gap of the shrinking-square family
# ---------------------------------------------------------------------------


def test_semiconvexity_gap_sign_pattern():
    assert semiconvexity_gap(1) < 0
    assert first_positive_gap() == 19
    for n in range(19, 101):
        assert semiconvexity_gap(n) > 0
    with pytest.raises(GeometryError, match="n must be a positive integer"):
        semiconvexity_gap(0)


def test_first_positive_gap_is_none_when_the_scan_stops_before_19():
    assert first_positive_gap(18) is None


def test_semiconvexity_asymptotic_inequality():
    # the sign for large n rests on arcsin(tan x) exceeding x + x^3/3
    for x in np.geomspace(1e-4, 0.5, 40):
        assert np.arcsin(np.tan(x)) > x + x**3 / 3


# ---------------------------------------------------------------------------
# Hessian comparison
# ---------------------------------------------------------------------------


def test_second_difference_euclidean_is_one():
    rng = np.random.Generator(np.random.Philox([43, 0]))
    p0 = rng.normal(size=3)
    p = rng.normal(size=3)
    x = rng.normal(size=3)
    x /= np.linalg.norm(x)
    assert second_difference(EU3, p0, p, x) == pytest.approx(1.0, abs=1e-6)


def test_second_difference_sphere_radial_and_tangential():
    p0 = np.array([1.0, 0, 0])
    r = 0.9
    p = SPH.exp(p0, r * np.array([0, 1.0, 0]))
    radial = SPH.log(p, p0)
    radial /= np.linalg.norm(radial)
    assert second_difference(SPH, p0, p, radial) == pytest.approx(1.0, abs=1e-6)
    tang = np.array([0.0, 0, 1.0])
    tang -= np.dot(tang, p) * p
    tang /= np.linalg.norm(tang)
    assert second_difference(SPH, p0, p, tang) == pytest.approx(r / np.tan(r), abs=1e-6)


def test_hessian_comparison_check_random_configs():
    rng = np.random.Generator(np.random.Philox([44, 0]))
    for _ in range(20):
        p0 = SPH.random_point(rng)
        v = SPH.random_tangent(rng, p0)
        v /= np.linalg.norm(v)
        r = rng.uniform(0.05, np.pi / 2 - 0.05)
        p = SPH.exp(p0, r * v)
        rep = hessian_comparison_check(SPH, p0, p, n_dirs=4, rng=rng)
        assert rep.passed, rep
        assert rep.bound == pytest.approx(r / np.tan(r), abs=1e-12)


# ---------------------------------------------------------------------------
# geodesic endpoint stability
# ---------------------------------------------------------------------------


def test_stability_identical_segments_is_zero():
    p = np.array([1.0, 0, 0])
    q = np.array([0, 1.0, 0.0])
    assert endpoint_stability_ratio(SPH, p, q, p, q) == 0.0


def test_stability_scan_guard_and_determinism():
    with pytest.raises(GeometryError, match="reaches the convexity radius"):
        geodesic_endpoint_stability(10, radius=np.pi / 2)
    a = geodesic_endpoint_stability(50, radius=0.8, seed=3)
    b = geodesic_endpoint_stability(50, radius=0.8, seed=3)
    assert a.max_ratio == b.max_ratio
    assert np.array_equal(a.ratios, b.ratios)
    assert np.isfinite(a.max_ratio)
    with pytest.raises(ValueError):
        a.ratios[0] = 0.0


# Plain-numpy reference for the 2-sphere: the scan's documented random stream
# and great-circle arcs, sharing no code with mtvf.lab or mtvf.manifolds.


def _arc(x, y):
    return np.arctan2(np.linalg.norm(np.cross(x, y), axis=-1), np.sum(x * y, axis=-1))


def _slerp(p, q, s):
    omega = _arc(p, q)
    a, b = np.sin((1.0 - s) * omega), np.sin(s * omega)
    return (a[..., None] * p + b[..., None] * q) / np.sin(omega)


def _replay_quadruples(n, radius, seed):
    """Philox(seed); per point a Gaussian tangent at (1,0,0), redrawn below
    norm 1e-8, then geodesic radius radius*sqrt(U)."""
    rng = np.random.Generator(np.random.Philox(seed))
    out = np.empty((n, 4, 3))
    for k in range(n):
        for j in range(4):
            while True:
                v = rng.standard_normal(3)
                v[0] = 0.0
                nv = np.linalg.norm(v)
                if nv > 1e-8:
                    break
            r = radius * np.sqrt(rng.uniform())
            out[k, j] = [np.cos(r), 0.0, 0.0] + np.sin(r) * v / nv
    return out


def _dist_to_arc_reference(xs, p, q, dense=2001):
    """Dense sampling of the arc, then golden-section search on the bracket
    around the best sample."""
    s = np.linspace(0.0, 1.0, dense)
    d = _arc(_slerp(p, q, s)[None], xs[:, None])
    k = np.argmin(d, axis=1)
    lo, hi = s[np.maximum(k - 1, 0)], s[np.minimum(k + 1, dense - 1)]
    g = 0.5 * (np.sqrt(5.0) - 1.0)

    def f(t):
        return _arc(_slerp(p, q, t), xs)

    a, b = hi - g * (hi - lo), lo + g * (hi - lo)
    fa, fb = f(a), f(b)
    for _ in range(60):
        left = fa < fb
        lo, hi = np.where(left, lo, a), np.where(left, b, hi)
        a, b = np.where(left, hi - g * (hi - lo), b), np.where(left, a, lo + g * (hi - lo))
        fa, fb = np.where(left, f(a), fb), np.where(left, fa, f(b))
    return np.minimum(d[np.arange(len(xs)), k], np.minimum(fa, fb))


def _ratio_reference(quad, samples=33):
    p1, q1, p2, q2 = quad
    xs = _slerp(p1, q1, np.linspace(0.0, 1.0, samples))
    return np.max(_dist_to_arc_reference(xs, p2, q2)) / max(_arc(p1, p2), _arc(q1, q2))


@pytest.mark.parametrize("seed,radius", [(0, 1.0), (3, 0.8), (11, 0.3), (12, 1.45)])
def test_stability_scan_matches_reference(seed, radius):
    n = 30
    scan = geodesic_endpoint_stability(n, radius=radius, seed=seed)
    quads = _replay_quadruples(n, radius, seed)
    ref = np.array([_ratio_reference(quad) for quad in quads])
    assert np.max(np.abs(scan.ratios - ref)) <= 1e-9
    assert scan.max_ratio == np.max(scan.ratios)


def test_stability_batch_equals_batch_of_one():
    quads = _replay_quadruples(25, 1.0, 5)
    batch = hausdorff_one_sided(SPH, *quads.transpose(1, 0, 2))
    single = [hausdorff_one_sided(SPH, *quad) for quad in quads]
    # same arithmetic in both shapes; the tolerance only absorbs vectorized
    # transcendental functions that round differently on some CPUs
    ulps = 4 * np.finfo(float).eps
    np.testing.assert_allclose(batch, single, rtol=0, atol=ulps)
    pts = quads.reshape(-1, 3)
    p, q = quads[0, 0], quads[0, 1]
    np.testing.assert_allclose(distance_to_geodesic(SPH, pts, p, q),
                               [distance_to_geodesic(SPH, x, p, q) for x in pts],
                               rtol=0, atol=ulps)


def _on_sphere(lon, lat):
    return np.array([np.cos(lat) * np.cos(lon), np.cos(lat) * np.sin(lon), np.sin(lat)])


EQ0, EQ90 = _on_sphere(0.0, 0.0), _on_sphere(0.5 * np.pi, 0.0)


@pytest.mark.parametrize("x,expected", [
    (_on_sphere(0.4, 0.25), 0.25),                        # foot on the arc
    (_on_sphere(-0.3, 0.2), float(SPH.dist(_on_sphere(-0.3, 0.2), EQ0))),  # foot past p
    (_on_sphere(1.9, -0.1), float(SPH.dist(_on_sphere(1.9, -0.1), EQ90))),  # foot past q
    (np.array([0.0, 0.0, 1.0]), 0.5 * np.pi),             # pole of the great circle
    (np.array([0.0, 0.0, -1.0]), 0.5 * np.pi),
])
def test_distance_to_geodesic_sphere_branches(x, expected):
    assert float(distance_to_geodesic(SPH, x, EQ0, EQ90)) == pytest.approx(expected, abs=1e-14)


def test_distance_to_geodesic_long_arc_complement():
    # on an arc longer than 2*pi/3 the foot can sit on the complementary arc
    # while both of its distances to the ends stay below the arc length
    q = _on_sphere(2.6, 0.0)
    x = _on_sphere(-1.8, 0.1)
    expected = min(float(SPH.dist(x, EQ0)), float(SPH.dist(x, q)))
    assert expected > 1.7
    assert float(distance_to_geodesic(SPH, x, EQ0, q)) == pytest.approx(expected, abs=1e-14)


@pytest.mark.parametrize("quad,expected", [
    ((EQ0, EQ90, EQ0, EQ90), 0.0),                        # identical segments
    ((EQ0, EQ90, EQ0, EQ0), 1.0),                         # p2 == q2
    ((np.array([0.0, 0.0, 1.0]), EQ0, EQ0, EQ90), 1.0),   # arc 1 reaches the pole of arc 2
    ((_on_sphere(-0.3, 0.0),) * 2 + (EQ0, _on_sphere(0.5, 0.0)), 0.3 / 0.8),  # foot past p2
])
def test_stability_ratio_degenerate_quadruples(quad, expected):
    assert endpoint_stability_ratio(SPH, *quad) == pytest.approx(expected, abs=1e-14)


def test_stability_scan_rejects_empty_scan():
    with pytest.raises(ConfigError):
        geodesic_endpoint_stability(0)
    with pytest.raises(ConfigError):
        geodesic_endpoint_stability(5, radius=0.0)
    with pytest.raises(ConfigError):
        hessian_comparison_check(SPH, EQ0, EQ90, n_dirs=0, rng=np.random.default_rng(0))


@pytest.mark.parametrize("manifold", [Circle(), Cylinder(), Euclidean(2), Euclidean(3), Sphere(4)],
                         ids=lambda m: m.spec_id)
def test_distance_to_geodesic_refuses_other_targets(manifold):
    # the closed form reads its points as on the unit 2-sphere: on cylinder
    # points, which are in R^3 too, it would return a wrong distance
    p, q = (manifold.project_point(v) for v in np.eye(manifold.ambient_dim)[:2] + 0.5)
    with pytest.raises(ConfigError, match=f"sphere:3 only, not on {manifold.spec_id}$"):
        distance_to_geodesic(manifold, p, p, q)
    with pytest.raises(ConfigError, match="sphere:3 only"):
        endpoint_stability_ratio(manifold, p, q, q, p)
