"""Curve representations, total variation, mollification, L2 distance."""
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtvf import (
    ConfigError,
    Cylinder,
    Euclidean,
    GeometryError,
    PiecewiseConstantCurve,
    SampledCurve,
    Sphere,
    compose_with_geodesic,
    flow_on_geodesic,
    l2_distance,
    mollify,
    run_exact_pc,
    tv_measure,
)
from mtvf.curves import chord_sizes

EU1 = Euclidean(1)
EU2 = Euclidean(2)
SPH = Sphere(3)


def _pc1(breakpoints, levels):
    return PiecewiseConstantCurve(EU1, breakpoints, np.asarray(levels, float)[:, None])


# ---------------------------------------------------------------------------
# construction and normalization
# ---------------------------------------------------------------------------


def test_constructors_leave_the_callers_arrays_writable():
    v = np.zeros((3, 1))
    sampled = SampledCurve(EU1, v)
    v[0] = 1.0
    assert sampled.values[0, 0] == 0.0 and not sampled.values.flags.writeable
    bp, vals = np.array([0.5]), np.array([[0.0], [1.0]])
    curve = PiecewiseConstantCurve(EU1, bp, vals)
    bp[0], vals[0] = 0.25, 2.0
    assert curve.breakpoints[0] == 0.5 and curve.values[0, 0] == 0.0
    assert not (curve.breakpoints.flags.writeable or curve.values.flags.writeable)


def test_pc_basic_queries():
    c = _pc1([0.25, 0.75], [0.0, 1.0, 0.5])
    assert c.num_jumps == 2
    assert np.allclose(c.plateau_lengths(), [0.25, 0.5, 0.25])
    assert np.allclose(chord_sizes(c), [1.0, 0.5])
    # right-continuity at the breakpoint
    assert c.eval_grid(0.25) == pytest.approx(1.0)
    assert c.eval_grid(0.25 - 1e-12) == pytest.approx(0.0)


def test_pc_merges_spurious_plateaus():
    c = _pc1([0.3, 0.6], [0.2, 0.2, 0.9])
    assert c.num_jumps == 1
    assert c.breakpoints[0] == pytest.approx(0.6)


def test_pc_rejects_bad_breakpoints():
    with pytest.raises(ConfigError):
        _pc1([0.5, 0.5], [0.0, 1.0, 2.0])
    with pytest.raises(ConfigError):
        _pc1([0.0], [0.0, 1.0])
    with pytest.raises(ConfigError):
        _pc1([0.5], [0.0, 1.0, 2.0])  # plateau count mismatch


def test_pc_rejects_off_manifold_values():
    with pytest.raises(ConfigError):
        PiecewiseConstantCurve(SPH, [0.5], np.array([[1.0, 0, 0], [0, 2.0, 0]]))


def test_sampled_requires_two_nodes():
    with pytest.raises(ConfigError):
        SampledCurve(EU1, np.zeros((1, 1)))


def test_curves_refuse_values_of_the_wrong_width():
    with pytest.raises(ConfigError, match=r"shape \(m\+1, 2\)"):
        PiecewiseConstantCurve(EU2, [0.5], np.zeros((2, 3)))
    with pytest.raises(ConfigError, match=r"shape \(n, 3\)"):
        SampledCurve(SPH, np.tile([1.0, 0.0], (4, 1)))


@pytest.mark.parametrize("man", [EU1, EU2], ids=lambda m: m.spec_id)
def test_step_curves_refuse_breakpoints_that_are_not_one_dimensional(man):
    # a column of breakpoints constructed, and the solvers and mollify then
    # raised numpy's "same number of dimensions" ValueError
    with pytest.raises(ConfigError, match=r"breakpoints must be one-dimensional, got shape \(2, 1\)"):
        PiecewiseConstantCurve(man, [[0.3], [0.6]], np.eye(3, man.ambient_dim))


def test_tv_measure_refuses_a_non_curve():
    with pytest.raises(ConfigError, match="cannot measure variation of ndarray"):
        tv_measure(np.zeros((4, 1)))


def test_curves_are_frozen():
    c = _pc1([0.5], [0.0, 1.0])
    with pytest.raises(ValueError):
        c.values[0, 0] = 5.0


# ---------------------------------------------------------------------------
# total variation
# ---------------------------------------------------------------------------


def test_tv_pc_is_sum_of_jumps():
    c = _pc1([0.2, 0.5, 0.8], [0.0, 1.0, 0.25, 0.75])
    tv = tv_measure(c)
    assert tv.total == pytest.approx(1.0 + 0.75 + 0.5)
    assert chord_sizes(c).max() == pytest.approx(1.0)


def test_tv_sampled_is_chord_sum():
    xs = np.linspace(0, 1, 11)
    vals = np.sin(2 * np.pi * xs)[:, None]
    c = SampledCurve(EU1, vals)
    manual = float(np.sum(np.abs(np.diff(vals[:, 0]))))
    assert tv_measure(c).total == pytest.approx(manual, abs=1e-14)


def test_tv_sphere_uses_geodesic_sizes():
    p = np.array([1.0, 0, 0])
    q = np.array([0.0, 1.0, 0])
    c = PiecewiseConstantCurve(SPH, [0.5], np.stack([p, q]))
    assert tv_measure(c).total == pytest.approx(np.pi / 2, abs=1e-12)


@given(
    levels=st.lists(st.floats(-2, 2), min_size=2, max_size=6),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=60, deadline=None)
def test_tv_pc_random_matches_manual(levels, seed):
    rng = np.random.Generator(np.random.Philox([seed]))
    bp = np.sort(rng.uniform(0.05, 0.95, size=len(levels) - 1))
    if np.any(np.diff(bp) < 1e-3):
        return
    c = _pc1(bp, levels)
    assert tv_measure(c).total == pytest.approx(
        float(np.sum(np.abs(np.diff(np.asarray(levels))))), abs=1e-12
    )


def test_jump_admissibility_flags_antipodal_jump():
    p = np.array([1.0, 0, 0])
    q = np.array([-1.0, 0, 0.0])
    # exactly antipodal: size pi equals twice the convexity radius, not below
    # it, and the refusal names the jump's size and place
    u0 = PiecewiseConstantCurve(SPH, [0.5], np.stack([p, q]))
    with pytest.raises(GeometryError, match=r"jump of size 3\.14159 at x=0\.5 "):
        run_exact_pc(u0, t_max=0.1)


def test_tv_measure_refuses_twice_the_convexity_radius_as_the_solvers_do():
    # on the cylinder 2 * convexity radius is pi, reached by a purely axial
    # jump of height pi, which has a unique geodesic: the refusal is the
    # admissibility rule, not the cut locus, and names size and place
    cyl = Cylinder()
    low, high = [1.0, 0.0, 0.0], [1.0, 0.0, np.pi]
    step = PiecewiseConstantCurve(cyl, [0.75], [low, high])
    with pytest.raises(GeometryError, match=r"^jump of size 3\.14159 at x=0\.75 reaches twice "
                                            r"the convexity radius 1\.5708$"):
        tv_measure(step)
    sampled = SampledCurve(cyl, [low, low, high])
    with pytest.raises(GeometryError, match=r"^chord of size 3\.14159 at x=0\.5 reaches twice "
                                            r"the convexity radius 1\.5708$"):
        tv_measure(sampled)
    # just below it both are measured
    below = [1.0, 0.0, np.nextafter(np.pi, 0.0)]
    assert tv_measure(PiecewiseConstantCurve(cyl, [0.5], [low, below])).total < np.pi
    assert tv_measure(SampledCurve(cyl, [low, below])).total < np.pi


def test_jump_admissibility_accepts_near_antipodal():
    p = np.array([1.0, 0, 0])
    q = SPH.project_point(np.array([-1.0, 1e-6, 0.0]))
    u0 = PiecewiseConstantCurve(SPH, [0.5], np.stack([p, q]))
    traj = run_exact_pc(u0, t_max=1e-3)
    assert traj.times[-1] == 1e-3


# ---------------------------------------------------------------------------
# mollification
# ---------------------------------------------------------------------------


def test_mollify_preserves_tv_single_jump():
    c = _pc1([0.5], [0.0, 1.0])
    m = mollify(c, 401)
    # the ramp is a geodesic reparametrization: chord sum equals jump size
    assert tv_measure(m).total == pytest.approx(1.0, abs=1e-12)
    assert m.grid_n == 401


def test_mollify_sphere_ramp_stays_on_manifold():
    p = np.array([1.0, 0, 0])
    q = np.array([0.0, 1.0, 0])
    c = PiecewiseConstantCurve(SPH, [0.5], np.stack([p, q]))
    m = mollify(c, 201)
    assert SPH.constraint_residual(m.values) < 1e-12
    assert tv_measure(m).total == pytest.approx(np.pi / 2, abs=1e-10)


def test_mollify_leaves_a_jump_sharp_when_its_ramp_holds_no_node():
    # nodes 0, 0.25, ..., 1: the ramp [0.51, 0.69] around 0.6 holds none
    m = mollify(_pc1([0.6], [0.0, 1.0]), 5)
    assert np.array_equal(m.values[:, 0], [0.0, 0.0, 0.0, 1.0, 1.0])


def test_auto_ramp_default_is_eight_cells():
    # mollify's own ramp is eight cells of 1/400: the nodes strictly inside
    # it are the seven between its two ends
    ramp = mollify(_pc1([0.5], [0.0, 1.0]), 401).values[:, 0]
    assert np.count_nonzero((ramp > 0.0) & (ramp < 1.0)) == 7


def test_auto_ramp_respects_gaps():
    # eight cells of 1/100 would span seven nodes of each ramp around the
    # 0.1-long middle plateau; the cap, 0.045 = 4.5 cells, leaves five, and
    # the nodes between the two ramps keep the plateau value
    vals = mollify(_pc1([0.1, 0.2], [0.0, 1.0, 0.0]), 101).values[:, 0]
    interior = (vals > 0.0) & (vals < 1.0)
    assert np.count_nonzero(interior[:15]) == np.count_nonzero(interior[15:]) == 5
    assert np.all(vals[13:18] == 1.0)
    assert tv_measure(SampledCurve(EU1, vals[:, None])).total == pytest.approx(2.0, abs=1e-12)


# ---------------------------------------------------------------------------
# L2 distance
# ---------------------------------------------------------------------------


def test_l2_distance_pc_exact():
    a = _pc1([0.5], [0.0, 1.0])
    b = _pc1([0.25], [0.0, 1.0])
    # curves differ by 1 exactly on [0.25, 0.5)
    assert l2_distance(a, b) == pytest.approx(np.sqrt(0.25), abs=1e-14)


def test_l2_distance_self_is_zero():
    a = _pc1([0.3, 0.6], [0.0, 0.5, 1.0])
    assert l2_distance(a, a) == 0.0


def test_l2_distance_symmetry():
    a = _pc1([0.5], [0.0, 1.0])
    xs = np.linspace(0, 1, 301)
    b = SampledCurve(EU1, np.sin(xs)[:, None])
    assert l2_distance(a, b) == pytest.approx(l2_distance(b, a), abs=1e-14)


def test_l2_distance_sampled_matches_closed_form():
    xs = np.linspace(0, 1, 2049)
    a = SampledCurve(EU1, xs[:, None])
    b = SampledCurve(EU1, np.zeros((2049, 1)))
    # integral of x^2 on [0,1] is 1/3
    assert l2_distance(a, b) == pytest.approx(np.sqrt(1 / 3), abs=1e-6)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_l2_distance_triangle_inequality(seed):
    rng = np.random.Generator(np.random.Philox([seed]))
    curves = []
    for _ in range(3):
        m = int(rng.integers(0, 3))
        bp = np.sort(rng.uniform(0.1, 0.9, size=m))
        if m and np.any(np.diff(bp) < 1e-3):
            return
        curves.append(_pc1(bp, rng.uniform(-1, 1, size=m + 1)))
    a, b, c = curves
    assert l2_distance(a, c) <= l2_distance(a, b) + l2_distance(b, c) + 1e-10


def test_l2_distance_of_step_curves_integrates_on_the_np_unique_partition():
    # shared, nested and disjoint breakpoint sets: the same bits as the sum
    # over np.unique's merged edges
    rng = np.random.Generator(np.random.Philox(11))
    for _ in range(300):
        a_bp = np.sort(rng.choice(np.arange(1, 16) / 16, int(rng.integers(0, 6)), replace=False))
        b_bp = np.unique(np.concatenate([rng.choice(a_bp, a_bp.size // 2, replace=False),
                                         rng.uniform(0.01, 0.99, int(rng.integers(0, 4)))]))
        a = PiecewiseConstantCurve(EU2, a_bp, rng.uniform(-1, 1, (a_bp.size + 1, 2)))
        b = PiecewiseConstantCurve(EU2, b_bp, rng.uniform(-1, 1, (b_bp.size + 1, 2)))
        edges = np.unique(np.concatenate([[0.0], a.breakpoints, b.breakpoints, [1.0]]))
        mids = 0.5 * (edges[:-1] + edges[1:])
        d = EU2.dist(a.eval_grid(mids), b.eval_grid(mids))
        assert l2_distance(a, b) == float(np.sqrt(np.sum(d * d * np.diff(edges))))


def test_an_exact_run_its_audits_and_l2_distance_import_neither_numpy_ma_nor_scipy():
    # numpy.ma costs about 20 ms to import, once per process; np.unique
    # imported it inside the first audit of a run against a competitor
    code = f"""if True:
        import sys
        sys.path.insert(0, {str(pathlib.Path(__file__).resolve().parent.parent / "src")!r})
        import numpy as np
        from mtvf import (Euclidean, check_energy, check_monotone_variation,
                          check_variational_inequality, detect_stopping, l2_distance,
                          run_exact_pc, tv_measure)
        from mtvf.synth import random_rad_curve
        rng = np.random.Generator(np.random.Philox([3, 0]))
        u0, competitor = (random_rad_curve(Euclidean(2), rng) for _ in range(2))
        traj = run_exact_pc(u0, t_max=4.0 * tv_measure(u0).total)
        check_energy(traj), check_monotone_variation(traj), detect_stopping(traj)
        check_variational_inequality(traj, competitor)
        l2_distance(traj.final_curve, u0)
        print(sorted(name for name in ("numpy.ma", "scipy") if name in sys.modules))
    """
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# composition with a geodesic
# ---------------------------------------------------------------------------


def test_compose_with_geodesic_hits_endpoint_values():
    p = np.array([1.0, 0, 0])
    q = np.array([0.0, 1.0, 0])
    sigma = _pc1([0.5], [0.0, 1.0])
    c = compose_with_geodesic(SPH, p, q, sigma)
    assert np.allclose(c.values[0], p)
    assert np.allclose(c.values[1], q)
    assert c.breakpoints[0] == pytest.approx(0.5)


@pytest.mark.parametrize(
    "sigma",
    [PiecewiseConstantCurve(SPH, [0.5], [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
     PiecewiseConstantCurve(EU2, [0.5], [[0.2, 5.0], [0.8, -3.0]])],
    ids=["sphere3", "euclidean2"],
)
def test_geodesic_parameters_off_the_line_are_refused(sigma):
    # such a sigma used to run as its first coordinate alone
    p = np.array([1.0, 0, 0])
    q = np.array([0.0, 1.0, 0])
    with pytest.raises(ConfigError, match="euclidean:1"):
        compose_with_geodesic(SPH, p, q, sigma)
    with pytest.raises(ConfigError, match="euclidean:1"):
        flow_on_geodesic(SPH, p, q, sigma, 1.0)


def test_compose_with_geodesic_interior_parameter():
    p = np.array([1.0, 0, 0])
    q = np.array([0.0, 1.0, 0])
    sigma = _pc1([0.5], [0.25, 0.75])
    c = compose_with_geodesic(SPH, p, q, sigma)
    assert SPH.dist(c.values[0], p) == pytest.approx(0.25 * np.pi / 2, abs=1e-12)
    assert SPH.dist(c.values[1], q) == pytest.approx(0.25 * np.pi / 2, abs=1e-12)


def test_mollify_refuses_a_one_node_grid():
    with pytest.raises(ConfigError, match="grid_n"):
        mollify(_pc1([0.5], [0.0, 1.0]), 1)


@pytest.mark.parametrize("level", [-0.1, 1.5])
def test_compose_with_geodesic_refuses_parameters_outside_the_unit_interval(level):
    with pytest.raises(ConfigError, match=r"\[0, 1\]"):
        compose_with_geodesic(SPH, np.array([1.0, 0, 0]), np.array([0.0, 1.0, 0]),
                              _pc1([0.5], [0.5, level]))


def test_l2_distance_refuses_curves_on_different_manifolds():
    on_plane = PiecewiseConstantCurve(EU2, [0.5], [[0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(ConfigError, match="different manifolds"):
        l2_distance(_pc1([0.5], [0.0, 1.0]), on_plane)


def test_flow_on_geodesic_refuses_coincident_endpoints():
    p = np.array([1.0, 0, 0])
    with pytest.raises(GeometryError, match="geodesic endpoints coincide"):
        flow_on_geodesic(SPH, p, p.copy(), _pc1([0.5], [0.0, 1.0]), 1.0)
