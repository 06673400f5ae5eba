"""Geometry kernel tests: exp/log consistency, tangency, curvature data.

The exp/log pair is the foundation everything else (flows, verifier, lab)
builds on, so the roundtrip identities are exercised in bulk and with
hypothesis-generated edge cases.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtvf import (
    Circle,
    ConfigError,
    Cylinder,
    Euclidean,
    GeometryError,
    Sphere,
    parse_manifold,
)
from mtvf.manifolds import _COLUMN_SUM_ROWS, COINCIDENT_TOL, _dot, _norm

ALL_MANIFOLDS = [Euclidean(1), Euclidean(2), Sphere(2), Sphere(3), Circle(), Cylinder()]


def _rng(stream=0):
    return np.random.Generator(np.random.Philox([1234, stream]))


# ---------------------------------------------------------------------------
# exp/log roundtrips
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("man", ALL_MANIFOLDS, ids=lambda m: m.spec_id)
def test_exp_log_roundtrip_bulk(man):
    # 10^4 random pairs; dist(exp_p(log_p q), q) <= 1e-9 everywhere
    rng = _rng(1)
    p = man.random_point(rng, size=(10_000,))
    q = man.random_point(rng, size=(10_000,))
    if np.isfinite(man.injectivity_radius):
        # stay strictly inside the injectivity radius: replace far pairs
        far = man.dist(p, q) > 0.95 * man.injectivity_radius
        q[far] = man.geodesic_point(p[far], q[far], 0.5)
    back = man.exp(p, man.log(p, q))
    assert float(np.max(man.dist(back, q))) <= 1e-9


@pytest.mark.parametrize("man", ALL_MANIFOLDS, ids=lambda m: m.spec_id)
def test_log_exp_norm_matches_dist(man):
    rng = _rng(2)
    p = man.random_point(rng, size=(200,))
    q = man.random_point(rng, size=(200,))
    if np.isfinite(man.injectivity_radius):
        far = man.dist(p, q) > 0.95 * man.injectivity_radius
        q[far] = man.geodesic_point(p[far], q[far], 0.5)
    v = man.log(p, q)
    assert np.allclose(np.linalg.norm(v, axis=-1), man.dist(p, q), atol=1e-10)


@pytest.mark.parametrize("man", ALL_MANIFOLDS, ids=lambda m: m.spec_id)
def test_exp_of_zero_is_identity(man):
    rng = _rng(3)
    p = man.random_point(rng, size=(16,))
    assert np.allclose(man.exp(p, np.zeros_like(p)), p, atol=1e-14)


@given(theta=st.floats(-3.0, 3.0), scale=st.floats(0.01, 1.5))
@settings(max_examples=50, deadline=None)
def test_circle_roundtrip_hypothesis(theta, scale):
    man = Circle()
    p = np.array([np.cos(theta), np.sin(theta)])
    v = scale * man.tangent_projection(p, np.array([-np.sin(theta), np.cos(theta)]))
    q = man.exp(p, v)
    assert man.constraint_residual(q) < 1e-12
    assert abs(man.dist(p, q) - abs(scale)) < 1e-10 or abs(scale) > np.pi


# ---------------------------------------------------------------------------
# tangent structure
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("man", ALL_MANIFOLDS, ids=lambda m: m.spec_id)
def test_tangent_projection_idempotent(man):
    rng = _rng(4)
    p = man.random_point(rng, size=(64,))
    v = rng.standard_normal(p.shape)
    once = man.tangent_projection(p, v)
    twice = man.tangent_projection(p, once)
    assert np.allclose(once, twice, atol=1e-13)


def test_sphere_tangent_projection_kills_radial():
    man = Sphere(3)
    rng = _rng(5)
    p = man.random_point(rng, size=(64,))
    v = rng.standard_normal(p.shape)
    w = man.tangent_projection(p, v)
    assert np.max(np.abs(np.sum(w * p, axis=-1))) < 1e-13


def test_cylinder_tangent_projection_kills_radial():
    man = Cylinder()
    rng = _rng(6)
    p = man.random_point(rng, size=(64,))
    v = rng.standard_normal(p.shape)
    w = man.tangent_projection(p, v)
    radial = p.copy()
    radial[..., 2] = 0.0
    assert np.max(np.abs(np.sum(w * radial, axis=-1))) < 1e-13


@pytest.mark.parametrize("man", [Sphere(3), Circle(), Cylinder()], ids=lambda m: m.spec_id)
def test_unit_tangent_pair_unit_and_tangent(man):
    rng = _rng(7)
    p = man.random_point(rng, size=(64,))
    q = man.random_point(rng, size=(64,))
    far = man.dist(p, q) > 0.95 * man.injectivity_radius
    q[far] = man.geodesic_point(p[far], q[far], 0.5)
    t_minus, t_plus = man.unit_tangent_pair(p, q)
    assert np.allclose(np.linalg.norm(t_minus, axis=-1), 1.0, atol=1e-12)
    assert np.allclose(np.linalg.norm(t_plus, axis=-1), 1.0, atol=1e-12)
    # tangency is exact by construction (projection then renormalization)
    assert np.allclose(man.tangent_projection(p, t_minus), t_minus, atol=1e-12)
    assert np.allclose(man.tangent_projection(q, t_plus), t_plus, atol=1e-12)


def test_unit_tangent_pair_rejects_coincident_points():
    man = Sphere(3)
    p = np.array([1.0, 0.0, 0.0])
    with pytest.raises(GeometryError, match="unit tangents undefined for coincident points"):
        man.unit_tangent_pair(p, p)


# the four targets of the exact solver, each with its own closed-form kernel
KERNEL_MANIFOLDS = [Euclidean(2), Sphere(3), Circle(), Cylinder()]
EPS = np.finfo(float).eps


def _jump_sizes(man):
    top = 2.0 * man.convexity_radius if np.isfinite(man.convexity_radius) else 10.0
    return [1e-8, 1e-6, 1e-4, 1e-2, 0.3, 1.0, 2.0, 0.999 * top]


def _pairs_at_distance(man, rng, d, k):
    p = man.random_point(rng, size=(k,))
    v = man.random_tangent(rng, p)
    v /= np.linalg.norm(v, axis=-1, keepdims=True)
    return p, man.exp(p, d * v)


def log_reference_pair(man, p, q):
    """Unit tangents of p -> q the plain way: log, project, normalize."""
    a = man.tangent_projection(p, man.log(p, q))
    b = man.tangent_projection(q, -man.log(q, p))
    return (a / np.linalg.norm(a, axis=-1, keepdims=True),
            b / np.linalg.norm(b, axis=-1, keepdims=True))


@pytest.mark.parametrize("man", KERNEL_MANIFOLDS, ids=lambda m: m.spec_id)
def test_unit_tangent_pair_matches_log_reference(man):
    # both are accurate to O(eps/d), so allow a few ulp scaled by 1/d
    rng = _rng(20)
    for d in _jump_sizes(man):
        p, q = _pairs_at_distance(man, rng, d, 64)
        t_minus, t_plus = man.unit_tangent_pair(p, q)
        r_minus, r_plus = log_reference_pair(man, p, q)
        tol = 4 * EPS * max(1.0, 1.0 / d)
        assert np.max(np.abs(t_minus - r_minus)) <= tol, d
        assert np.max(np.abs(t_plus - r_plus)) <= tol, d


@pytest.mark.parametrize("man", [Sphere(3), Circle()], ids=lambda m: m.spec_id)
def test_unit_tangent_pair_tangent_at_tiny_jump(man):
    # without the re-projection the residual would be O(eps/d) ~ 1e-8 here
    p, q = _pairs_at_distance(man, _rng(21), 1e-8, 256)
    t_minus, t_plus = man.unit_tangent_pair(p, q)
    assert np.max(np.abs(np.sum(t_minus * p, axis=-1))) <= 4 * EPS
    assert np.max(np.abs(np.sum(t_plus * q, axis=-1))) <= 4 * EPS
    assert np.allclose(np.linalg.norm(t_minus, axis=-1), 1.0, atol=4 * EPS)


@pytest.mark.parametrize("man", KERNEL_MANIFOLDS, ids=lambda m: m.spec_id)
def test_unit_tangent_pair_coincident_rows_raise(man):
    rng = _rng(22)
    p, q = _pairs_at_distance(man, rng, 0.5, 4)
    with pytest.raises(GeometryError, match="unit tangents undefined for coincident points"):
        man.unit_tangent_pair(p[0], p[0])
    q[2] = p[2]
    with pytest.raises(GeometryError, match="unit tangents undefined for coincident points"):
        man.unit_tangent_pair(p, q)


@pytest.mark.parametrize("man", KERNEL_MANIFOLDS, ids=lambda m: m.spec_id)
def test_unit_tangent_pair_batch_matches_single(man):
    # one-at-a-time and batched calls share the arithmetic; allow 4 ulp for
    # CPUs whose vectorized transcendental functions round differently
    p, q = _pairs_at_distance(man, _rng(23), 0.7, 32)
    t_minus, t_plus = man.unit_tangent_pair(p, q)
    for i in range(len(p)):
        s_minus, s_plus = man.unit_tangent_pair(p[i], q[i])
        assert s_minus.shape == p[i].shape
        assert np.max(np.abs(s_minus - t_minus[i])) <= 4 * EPS
        assert np.max(np.abs(s_plus - t_plus[i])) <= 4 * EPS
    # one point against the batch broadcasts as the pairs do one by one
    near = man.exp(p[0], 0.5 * man.log(p[0], q))
    b_minus, b_plus = man.unit_tangent_pair(p[0], near)
    for i in range(len(p)):
        s_minus, s_plus = man.unit_tangent_pair(p[0], near[i])
        assert np.max(np.abs(s_minus - b_minus[i])) <= 4 * EPS
        assert np.max(np.abs(s_plus - b_plus[i])) <= 4 * EPS


@pytest.mark.parametrize("man", KERNEL_MANIFOLDS, ids=lambda m: m.spec_id)
def test_unit_tangent_pair_unit_length_off_manifold(man):
    # RK4 stage points p + c*dt*k are not projected back onto the target
    rng = _rng(24)
    p, q = _pairs_at_distance(man, rng, 0.7, 64)
    p_off = p + 0.2 * man.random_tangent(rng, p)
    q_off = q + 0.2 * man.random_tangent(rng, q)
    assert man.constraint_residual(p_off) > 1e-3 or man.kind == "euclidean"
    t_minus, t_plus = man.unit_tangent_pair(p_off, q_off)
    r_minus, r_plus = log_reference_pair(man, p_off, q_off)
    for t, r in ((t_minus, r_minus), (t_plus, r_plus)):
        assert np.max(np.abs(np.linalg.norm(t, axis=-1) - 1.0)) <= 4 * EPS
        assert np.max(np.abs(t - r)) <= 8 * EPS


@pytest.mark.parametrize("man", KERNEL_MANIFOLDS, ids=lambda m: m.spec_id)
def test_unit_tangent_pair_returns_separate_arrays(man):
    p, q = _pairs_at_distance(man, _rng(25), 0.5, 3)
    t_minus, t_plus = man.unit_tangent_pair(p, q)
    assert not np.shares_memory(t_minus, t_plus)


@pytest.mark.parametrize("man", [Sphere(3), Circle(), Cylinder()], ids=lambda m: m.spec_id)
def test_unit_tangent_pair_rejects_cut_locus(man):
    p = np.zeros(man.ambient_dim)
    p[0] = 1.0
    q = -p
    with pytest.raises(GeometryError, match="no unique geodesic"):
        man.unit_tangent_pair(p, q)


def _plain_tangent_pair(man, p, q):
    """Each target's ``_tangent_pair`` formulas one end at a time, with dot
    products by ``np.add.reduce``, as ``_dot`` rounds them."""
    def dot(a, b):
        return np.add.reduce(a * b, axis=-1)

    def unit(v):
        n = np.sqrt(dot(v, v))
        return v / np.maximum(n, 1e-300)[..., None], n

    if man.kind == "euclidean":
        t, d = unit(q - p)
        return t, t, d
    if man.kind == "cylinder":
        a = np.arctan2(p[..., 0] * q[..., 1] - p[..., 1] * q[..., 0],
                       p[..., 0] * q[..., 0] + p[..., 1] * q[..., 1])
        dz = q[..., 2] - p[..., 2]
        t_minus = unit(np.stack([-a * p[..., 1], a * p[..., 0], dz], axis=-1))[0]
        t_plus = unit(np.stack([-a * q[..., 1], a * q[..., 0], dz], axis=-1))[0]
        return t_minus, t_plus, np.hypot(a, dz)
    c = dot(p, q)[..., None]
    w = q - c * p
    w = w - dot(w, p)[..., None] * p
    v = c * q - p
    v = v - dot(v, q)[..., None] * q
    (t_minus, s), (t_plus, _) = unit(w), unit(v)
    return t_minus, t_plus, np.arctan2(s, c[..., 0])


@pytest.mark.parametrize("rows", [1, 6, 200])  # 200 rows reach _dot's column sums
@pytest.mark.parametrize("man", KERNEL_MANIFOLDS, ids=lambda m: m.spec_id)
def test_tangent_pair_keeps_the_bits_of_the_plain_formulas(man, rows):
    # off the target, as RK4 stage points are; the first row is one point
    # 1.1 times off the unit sphere twice, whose jump the sphere kernel does
    # not see as coincident: it gets the radial tangents p/|p| and -p/|p| and
    # a size ~(1 - 1.1^2)^2, far above COINCIDENT_TOL
    rng = _rng(26)
    p, q = _pairs_at_distance(man, rng, 0.7, rows)
    p = p + 0.2 * man.random_tangent(rng, p)
    q = q + 0.2 * man.random_tangent(rng, q)
    q[0] = p[0] = 1.1 * man.project_point(p[0])
    got, want = man._tangent_pair(p, q), _plain_tangent_pair(man, p, q)
    for g, w in zip(got, want):
        assert g.shape == w.shape and np.array_equal(g, w)
    if man.kind in ("sphere", "circle"):
        assert got[2][0] > 1e3 * COINCIDENT_TOL
        radial = p[0] / np.linalg.norm(p[0])
        assert np.allclose(got[0][0], radial, atol=1e-12)
        assert np.allclose(got[1][0], -radial, atol=1e-12)


def test_geodesic_point_pins_endpoints():
    man = Sphere(3)
    rng = _rng(8)
    p = man.random_point(rng)
    q = man.random_point(rng)
    assert np.array_equal(man.geodesic_point(p, q, 0.0), p)
    assert np.array_equal(man.geodesic_point(p, q, 1.0), q)
    mid = man.geodesic_point(p, q, 0.5)
    assert abs(man.dist(p, mid) - man.dist(mid, q)) < 1e-10


# ---------------------------------------------------------------------------
# curvature data: convexity radius, comparison bound, geodesic acceleration
# ---------------------------------------------------------------------------


def test_convexity_radius_values():
    assert np.isinf(Euclidean(2).convexity_radius)
    assert Sphere(3).convexity_radius == pytest.approx(np.pi / 2)
    assert Circle().convexity_radius == pytest.approx(np.pi / 2)
    assert Cylinder().convexity_radius == pytest.approx(np.pi / 2)


def test_hessian_comparison_bound_euclidean_is_one():
    man = Euclidean(2)
    for r in (0.0, 0.5, 3.0, 100.0):
        assert man.hessian_comparison_bound(r) == pytest.approx(1.0)


def test_hessian_comparison_bound_sphere():
    man = Sphere(3)
    assert man.hessian_comparison_bound(0.0) == pytest.approx(1.0)
    r = 1.0
    assert man.hessian_comparison_bound(r) == pytest.approx(r / np.tan(r))
    with pytest.raises(GeometryError, match=r"distance 3\.14159\d* out of comparison range"):
        man.hessian_comparison_bound(np.pi)  # = 2*convexity radius


@pytest.mark.parametrize("man", [Euclidean(2), Sphere(3), Circle(), Cylinder()], ids=lambda m: m.spec_id)
def test_hessian_comparison_bound_refuses_a_nan_distance(man):
    with pytest.raises(GeometryError, match="distance nan out of comparison range"):
        man.hessian_comparison_bound(float("nan"))


@pytest.mark.parametrize("man", [Euclidean(2), Sphere(3), Circle(), Cylinder()], ids=lambda m: m.spec_id)
def test_exp_second_difference_is_normal(man):
    # independent oracle: a unit-speed geodesic's acceleration is normal to
    # the manifold, estimated by a central second difference of exp
    rng = _rng(13)
    p = man.random_point(rng)
    v = man.random_tangent(rng, p)
    v /= np.linalg.norm(v)
    s = 1e-4
    accel = (man.exp(p, s * v) - 2.0 * p + man.exp(p, -s * v)) / (s * s)
    assert np.linalg.norm(man.tangent_projection(p, accel)) < 1e-6


def test_geodesics_stay_on_manifold():
    for man in ALL_MANIFOLDS:
        rng = _rng(11)
        p = man.random_point(rng, size=(32,))
        v = man.random_tangent(rng, p)
        q = man.exp(p, 0.3 * v)
        assert man.constraint_residual(q) < 1e-10


# ---------------------------------------------------------------------------
# cylinder specifics: product metric, angle wrapping
# ---------------------------------------------------------------------------


def test_cylinder_distance_is_product_metric():
    man = Cylinder()
    p = np.array([1.0, 0.0, 0.0])
    q = np.array([np.cos(1.2), np.sin(1.2), 2.0])
    assert man.dist(p, q) == pytest.approx(np.hypot(1.2, 2.0), abs=1e-12)


def test_cylinder_angle_wraps_short_way():
    man = Cylinder()
    p = np.array([np.cos(0.1), np.sin(0.1), 0.0])
    q = np.array([np.cos(-0.1), np.sin(-0.1), 0.0])
    assert man.dist(p, q) == pytest.approx(0.2, abs=1e-12)


def test_circle_injectivity_radius_guard():
    man = Circle()
    p = np.array([1.0, 0.0])
    q = np.array([-1.0, 0.0])  # antipodal: log has no unique value
    with pytest.raises(GeometryError, match="antipodal points have no unique geodesic"):
        man.log(p, q)


def test_cylinder_log_refuses_opposite_rulings():
    # rulings half a turn apart are joined by two geodesics of equal length,
    # whatever the height between the points
    man = Cylinder()
    with pytest.raises(GeometryError, match="opposite cylinder rulings"):
        man.log(np.array([1.0, 0.0, 0.0]), np.array([-1.0, 0.0, 0.7]))


# ---------------------------------------------------------------------------
# parsing / identity
# ---------------------------------------------------------------------------


def test_parse_manifold_roundtrip():
    for man in ALL_MANIFOLDS:
        assert parse_manifold(man.spec_id) == man


def test_parse_manifold_rejects_unknown():
    with pytest.raises(ConfigError):
        parse_manifold("torus:2")
    with pytest.raises(ConfigError):
        parse_manifold("sphere:1")


def test_manifold_equality_and_hash():
    assert Sphere(3) == Sphere(3)
    assert Sphere(3) != Sphere(2)
    assert len({Sphere(3), Sphere(3), Euclidean(2)}) == 2


def test_random_point_lands_on_manifold():
    for man in ALL_MANIFOLDS:
        pts = man.random_point(_rng(12), size=(100,))
        assert man.constraint_residual(pts) < 1e-12


# ---------------------------------------------------------------------------
# row kernels: _dot and _norm round as one np.add.reduce call, bit for bit
# ---------------------------------------------------------------------------


def _extreme_rows(shape, stream):
    """Entries of random sign and magnitude 1e-300..1e300, a fifth of them
    +-0; the first row is all -0 and the second (if any) mixes +0 and -0."""
    rng = _rng(stream)
    mag = np.where(rng.random(shape) < 0.2, 0.0, 10.0 ** rng.uniform(-300, 300, shape))
    a = mag * rng.choice([-1.0, 1.0], shape)
    flat = a.reshape(-1, shape[-1])
    flat[:2] = -0.0
    flat[1:2, 1::2] = 0.0
    return a


def _assert_same_bits(got, want):
    assert got.shape == want.shape
    assert np.array_equal(np.signbit(got), np.signbit(want))
    assert np.array_equal(np.ascontiguousarray(got).view(np.int64),
                          np.ascontiguousarray(want).view(np.int64))


@pytest.mark.parametrize("n", range(1, 10))
@pytest.mark.parametrize(
    "shape",
    [(1,), (13,), (_COLUMN_SUM_ROWS - 1,), (_COLUMN_SUM_ROWS,), (_COLUMN_SUM_ROWS + 1,),
     (10_000,), (80, 33)],
    ids=lambda s: "x".join(map(str, s)),
)
def test_row_kernels_round_as_add_reduce(shape, n):
    a = _extreme_rows(shape + (n,), 2 * n)
    # b: unit-scale factors (no overflow) with rows 0 and 1 positive, so the
    # all -0 row of a * b stays all -0; c: extreme magnitudes, so products
    # underflow to +-0 and subnormals or overflow to +-inf and NaN
    b = _rng(2 * n + 1).standard_normal(shape + (n,))
    b.reshape(-1, n)[:2] = 1.0
    c = _extreme_rows(shape + (n,), 2 * n + 1)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        for x, y in ((a, b), (a, c), (b, b)):
            _assert_same_bits(_dot(x, y), np.add.reduce(x * y, axis=-1))
        for v in (a, b):
            _assert_same_bits(_norm(v), np.sqrt(np.add.reduce(v * v, axis=-1)))
    # the signed-zero rows sum to +0, as reduce does
    zero = _dot(a, b).reshape(-1)[:2]
    assert not zero.any() and not np.signbit(zero).any()
