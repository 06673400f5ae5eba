"""Piecewise-constant manifold flow: immobile jumps, merges, closed forms.

The solver integrates plateau values only; breakpoints are fixed until two
plateau values collide.  Every merge puts the pair at its length-weighted
centre and books its closed-form dissipation: a small isolated jump at the
end of the pair step that reaches its collision, any other once a guarded
step has closed it to _MERGE_TOL.  The last jump, between two plateaus,
closes in closed form on its geodesic.
"""
import warnings

import numpy as np
import pytest

import mtvf.flows
from mtvf import (
    CheckNotApplicable,
    Circle,
    ConfigError,
    Cylinder,
    Euclidean,
    FlowConfig,
    GeometryError,
    PiecewiseConstantCurve,
    SampledCurve,
    Sphere,
    check_energy,
    check_monotone_variation,
    check_sphere_equivalence,
    detect_stopping,
    flow,
    flow_on_geodesic,
    l2_distance,
    mollify,
    pc_velocity,
    reconstruct_z_pc,
    run_exact_pc,
    run_regularized,
    run_scalar_tv,
    scalar_curve,
    scalar_trajectory,
    tv_measure,
)
from mtvf.curves import chord_sizes
from mtvf.synth import noisy_field, random_rad_curve, staircase

SPH = Sphere(3)
EU1 = Euclidean(1)
EU2 = Euclidean(2)


def _sphere_pair():
    return np.array([1.0, 0, 0]), np.array([0.0, 1.0, 0])


# ---------------------------------------------------------------------------
# single jump
# ---------------------------------------------------------------------------


def test_single_jump_breakpoint_immobile(cadence):
    cadence(1)
    p, q = _sphere_pair()
    u0 = PiecewiseConstantCurve(SPH, [0.3], np.stack([p, q]))
    traj = run_exact_pc(u0, t_max=0.2)
    for snap in traj.snapshots:
        if snap.num_jumps:
            assert snap.breakpoints[0] == 0.3  # exact, not approximate


def test_single_jump_extinction_euclidean_line(x_axis):
    x0, s0 = 0.25, 1.0
    u0 = x_axis(scalar_curve([x0], [-s0, s0]))
    traj = run_exact_pc(u0, t_max=1.0)
    stop = detect_stopping(traj)
    assert stop is not None
    assert stop[0] == pytest.approx(2 * s0 * x0 * (1 - x0), abs=1e-8)
    assert stop[1][0] == pytest.approx(-s0 * x0 + s0 * (1 - x0), abs=1e-8)


def test_single_jump_sphere_matches_geodesic_flow(cadence):
    # the full solver restricted to a single jump must agree with the scalar
    # flow transported along the connecting geodesic, snapshot by snapshot
    cadence(1)
    p, q = _sphere_pair()
    u0 = PiecewiseConstantCurve(SPH, [0.3], np.stack([p, q]))
    t_end = 1.2 * 2 * (np.pi / 2) * 0.3 * 0.7
    traj = run_exact_pc(u0, t_max=t_end)
    sigma0 = scalar_curve([0.3], [0.0, 1.0])
    ref = flow_on_geodesic(SPH, p, q, sigma0, t_end, sample_times=traj.times)
    xs = np.linspace(0, 1, 1025)
    for s, g in zip(traj.snapshots, ref.snapshots):
        sup = float(np.max(SPH.dist(s.eval_grid(xs), g.eval_grid(xs))))
        assert sup <= 1e-8


def test_plateau_values_move_toward_each_other(cadence):
    cadence(5)
    p, q = _sphere_pair()
    u0 = PiecewiseConstantCurve(SPH, [0.5], np.stack([p, q]))
    traj = run_exact_pc(u0, t_max=0.1)
    sizes = [chord_sizes(s)[0] for s in traj.snapshots if s.num_jumps]
    assert all(b < a for a, b in zip(sizes, sizes[1:]))


# ---------------------------------------------------------------------------
# two jumps: ODE structure
# ---------------------------------------------------------------------------


def test_two_jump_velocity_formula():
    # plateau velocity = sum of unit tangents toward the neighbours, divided
    # by the plateau length; boundary plateaus see only one neighbour
    vals = np.stack(
        [
            np.array([1.0, 0.0, 0.0]),
            SPH.project_point(np.array([1.0, 0.6, 0.1])),
            SPH.project_point(np.array([1.0, 0.2, -0.5])),
        ]
    )
    u0 = PiecewiseConstantCurve(SPH, [0.25, 0.6], vals)
    lengths = u0.plateau_lengths()
    vel = pc_velocity(SPH, lengths, u0.values)
    tm01, tp01 = SPH.unit_tangent_pair(u0.values[0], u0.values[1])
    tm12, tp12 = SPH.unit_tangent_pair(u0.values[1], u0.values[2])
    assert np.allclose(vel[0], tm01 / lengths[0], atol=1e-12)
    assert np.allclose(vel[1], (tm12 - tp01) / lengths[1], atol=1e-12)
    assert np.allclose(vel[2], -tp12 / lengths[2], atol=1e-12)


KERNEL_MANIFOLDS = [EU2, SPH, Circle(), Cylinder()]
EPS = np.finfo(float).eps


def _reference_velocity(man, lengths, values):
    # plain log-then-project unit tangents, summed jump by jump
    rhs = np.zeros_like(values)
    for i in range(values.shape[0] - 1):
        p, q = values[i], values[i + 1]
        if man.dist(p, q) <= 1e-15:
            continue
        a = man.tangent_projection(p, man.log(p, q))
        b = man.tangent_projection(q, man.log(q, p))
        rhs[i] += a / np.linalg.norm(a)
        rhs[i + 1] += b / np.linalg.norm(b)
    return rhs / lengths[:, None]


def _chain(man, rng, sizes):
    # plateau values whose consecutive jumps have the given geodesic sizes
    vals = [man.random_point(rng)]
    for d in sizes:
        v = man.random_tangent(rng, vals[-1])
        vals.append(man.exp(vals[-1], d * v / np.linalg.norm(v)))
    return np.stack(vals)


@pytest.mark.parametrize("man", KERNEL_MANIFOLDS, ids=lambda m: m.spec_id)
def test_pc_velocity_matches_log_reference(man):
    rng = np.random.Generator(np.random.Philox([84, 0]))
    top = 2.0 * man.convexity_radius if np.isfinite(man.convexity_radius) else 10.0
    lengths = np.array([0.2, 0.3, 0.1, 0.4])
    for d in (1e-8, 1e-6, 1e-4, 1e-2, 0.3, 1.0, 2.0, 0.999 * top):
        vals = _chain(man, rng, [d, 0.5 * d, d])
        vel = pc_velocity(man, lengths, vals)
        ref = _reference_velocity(man, lengths, vals)
        tol = 4 * EPS * max(1.0, 1.0 / (0.5 * d)) / lengths.min()
        assert np.max(np.abs(vel - ref)) <= tol, d


@pytest.mark.parametrize("man", KERNEL_MANIFOLDS, ids=lambda m: m.spec_id)
def test_pc_velocity_coincident_neighbours_exert_no_pull(man):
    rng = np.random.Generator(np.random.Philox([85, 0]))
    vals = _chain(man, rng, [0.4, 0.0, 0.6])
    vals[2] = vals[1]
    lengths = np.array([0.25, 0.25, 0.25, 0.25])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vel = pc_velocity(man, lengths, vals)
    tm01, tp01 = man.unit_tangent_pair(vals[0], vals[1])
    tm23, tp23 = man.unit_tangent_pair(vals[2], vals[3])
    # jump 1 is coincident: plateau 1 feels only jump 0, plateau 2 only jump 2
    expected = np.stack([tm01, -tp01, tm23, -tp23]) / 0.25
    assert np.max(np.abs(vel - expected)) <= 4 * EPS / 0.25
    all_same = np.stack([vals[0]] * 3)
    assert np.array_equal(pc_velocity(man, lengths[:3], all_same), np.zeros_like(all_same))


def _counted_run(monkeypatch):
    # one fixed datum flowed to rest; each pc_velocity call is logged with
    # the smallest jump of the state it was given
    u0 = random_rad_curve(SPH, np.random.Generator(np.random.Philox([91, 0])), n_jumps=4)
    calls = []
    real = mtvf.flows.pc_velocity

    def counted(man, lengths, values):
        calls.append(float(np.min(man.dist(values[:-1], values[1:]), initial=np.inf)))
        return real(man, lengths, values)

    monkeypatch.setattr(mtvf.flows, "pc_velocity", counted)
    traj = run_exact_pc(u0, t_max=4 * tv_measure(u0).total)
    return u0, traj, np.array(calls)


def test_pc_velocity_call_count_pinned(monkeypatch):
    # the step sequence of the solver (step guards, RK4 stages, pair steps)
    # on one fixed datum; any change to it changes this count.
    # 3,436 before merge ahead, 1,768 with it, 1,040 before the last jump
    # closed in closed form; lower it with the solver, never raise it
    _, traj, calls = _counted_run(monkeypatch)
    assert len(calls) == 752
    assert traj.final_curve.num_jumps == 0


def test_few_velocity_calls_per_merge_below_a_small_jump(monkeypatch):
    # a closing jump no longer creeps under its own step guard: at most 15
    # pc_velocity calls per merge see a jump below 1e-3 (27 of 752 calls for
    # 4 merges here, the last in closed form with no call; 36 of 1,040 when
    # the last one was stepped; 748 of 1,768 with merge ahead below 1e-5)
    u0, traj, calls = _counted_run(monkeypatch)
    merges = u0.num_jumps - traj.final_curve.num_jumps
    assert merges == 4
    assert np.sum(calls < 1e-3) <= 15 * merges


def test_first_jump_vanishes_before_coupling_bound(cadence):
    # solving d/dt dist^2 <= -(2/l_outer) dist shows the first merge happens
    # before 2*min(l_left*d01, l_right*d12)
    cadence(1)
    rng = np.random.Generator(np.random.Philox([77, 0]))
    for _ in range(5):
        u0 = random_rad_curve(SPH, rng, n_jumps=2)
        d = chord_sizes(u0)
        lengths = u0.plateau_lengths()
        bound = 2 * min(lengths[0] * d[0], lengths[-1] * d[-1])
        traj = run_exact_pc(u0, t_max=1.5 * bound)
        njumps = np.array([s.num_jumps for s in traj.snapshots])
        first_merge = traj.times[np.argmax(njumps < njumps[0])]
        assert first_merge < bound + 1e-9


def test_jump_sizes_nonincreasing_between_merges(cadence):
    cadence(1)
    rng = np.random.Generator(np.random.Philox([78, 0]))
    u0 = random_rad_curve(SPH, rng, n_jumps=3)
    traj = run_exact_pc(u0, t_max=4 * tv_measure(u0).total)
    rep = check_monotone_variation(traj)
    assert rep.tolerance == 1e-6
    assert rep.passed, rep


def test_jump_distance_decay_rate(cadence):
    # finite differences of the recorded outer-jump distances against the
    # closed-form decay bound d/dt dist^2 <= -(2/l_outer) * dist
    cadence(1)
    u0 = random_rad_curve(EU2, np.random.Generator(np.random.Philox([22, 0])))
    traj = run_exact_pc(u0, t_max=4 * tv_measure(u0).total)
    tol = 1e-4 + 10 * traj.dt_nominal
    for k in range(len(traj) - 1):
        a, b = traj.snapshots[k], traj.snapshots[k + 1]
        dt = traj.times[k + 1] - traj.times[k]
        if a.num_jumps != b.num_jumps or a.num_jumps == 0 or dt < 1e-9:
            continue
        da, db = chord_sizes(a), chord_sizes(b)
        lb = b.plateau_lengths()
        for idx, ell in ((0, lb[0]), (b.num_jumps - 1, lb[-1])):
            fd = (db[idx] ** 2 - da[idx] ** 2) / dt
            assert fd <= -(2.0 / ell) * db[idx] + tol


# ---------------------------------------------------------------------------
# merging
# ---------------------------------------------------------------------------


def test_symmetric_collision_merges_at_midpoint():
    # two plateaus closing symmetrically on the equator meet at the midpoint
    a = SPH.project_point(np.array([1.0, -0.4, 0.0]))
    b = SPH.project_point(np.array([1.0, 0.4, 0.0]))
    u0 = PiecewiseConstantCurve(SPH, [0.5], np.stack([a, b]))
    traj = run_exact_pc(u0, t_max=2.0)
    stop = detect_stopping(traj)
    assert stop is not None
    mid = SPH.geodesic_point(a, b, 0.5)
    assert float(SPH.dist(stop[1], mid)) < 1e-8


@pytest.mark.parametrize("man", [EU2, SPH], ids=lambda m: m.spec_id)
def test_two_plateaus_merge_ahead_in_closed_form(monkeypatch, cadence, x_axis, man):
    # one jump: no outer pull, so each plateau moves along the geodesic toward
    # the other at speed 1/l_i and the pair closes at the constant rate
    # c = 1/l0 + 1/l1; it collides after d/c at the point l1/(l0 + l1) of the
    # way from the left and dissipates exactly d, with no step taken.  On
    # euclidean:2 the unit jump lies on the x-axis
    cadence(1)
    _budget_pc_velocity(monkeypatch, 0)
    if man is EU2:
        u0 = x_axis(scalar_curve([0.3], [0.0, 1.0]))
    else:
        u0 = PiecewiseConstantCurve(man, [0.3], np.stack(_sphere_pair()))
    traj = run_exact_pc(u0, t_max=1.0)
    d = chord_sizes(u0)[0]
    c = 1 / 0.3 + 1 / 0.7
    assert len(traj) == 2 and traj.final_curve.num_jumps == 0
    assert abs(traj.times[-1] - d / c) <= 4 * EPS * traj.times[-1]
    assert abs(traj.dissipation[-1] - d) <= 4 * EPS * d
    meet = man.geodesic_point(u0.values[0], u0.values[1], 0.7)
    assert np.max(np.abs(traj.final_curve.values[0] - meet)) <= 4 * EPS
    if man is EU2:
        assert traj.times[-1] == pytest.approx(0.3 * 0.7, abs=1e-14)


def test_an_isolated_small_jump_merges_ahead_in_closed_form(monkeypatch, cadence, x_axis):
    # three plateaus on the line, the left jump 5e-4 high and isolated: the
    # middle plateau stays put, the left one closes on it at speed 1/0.3, and
    # pair steps carry the jump to its collision at t = 0.3 * 5e-4, where the
    # pair merges at 5e-4.  The last pair step ends at the pursuit collision
    # time tau of its start, which on the line is 0.3 times its gap
    cadence(1)
    pair_steps, real = [], mtvf.flows._pair_rk4
    monkeypatch.setattr(mtvf.flows, "_pair_rk4", lambda *a: pair_steps.append(1) or real(*a))
    traj = run_exact_pc(x_axis(scalar_curve([0.3, 0.6], [0.0, 5e-4, 1.0])), t_max=1e-3)
    k = [s.num_jumps for s in traj.snapshots].index(1)
    before, after = traj.snapshots[k - 1], traj.snapshots[k]
    d = chord_sizes(before)
    lengths = before.plateau_lengths()
    tau = mtvf.flows._pair_collision(EU2, lengths, 1 / lengths[:-1] + 1 / lengths[1:],
                                     before.values, d, 0)[0]
    assert pair_steps and before.num_jumps == 2 and 0 < d[0] < mtvf.flows._PAIR_JUMP
    step = traj.times[k] - traj.times[k - 1]
    assert abs(step - tau) <= 4 * EPS * traj.times[k]
    assert abs(step - 0.3 * d[0]) <= 4 * EPS * traj.times[k]
    assert abs(traj.times[k] - 1.5e-4) <= 4 * EPS * traj.times[k]
    assert abs(after.values[0, 0] - 5e-4) <= 4 * EPS * 5e-4 and after.values[0, 1] == 0.0


@pytest.mark.parametrize("man", [EU2, SPH], ids=lambda m: m.spec_id)
def test_two_plateaus_follow_the_scalar_flow_on_their_geodesic(man):
    # the oracle: run_scalar_tv carried along the geodesic by flow_on_geodesic,
    # which shares only geodesic_point with the solver, on random single jumps
    # of size 0.05-1.2 at a breakpoint in 0.1-0.9, read at 12 times to 1.2 T*
    rng = np.random.Generator(np.random.Philox([46, 2]))
    for _ in range(20):
        p = man.random_point(rng)
        v, nv = man.random_direction(rng, p)
        q = man.exp(p, (rng.uniform(0.05, 1.2) / nv) * v)
        x0 = rng.uniform(0.1, 0.9)
        dist_pq = float(man.dist(p, q))
        stop = dist_pq * x0 * (1.0 - x0)
        wanted = np.linspace(0.0, 1.2 * stop, 13)[1:]
        traj = run_exact_pc(PiecewiseConstantCurve(man, [x0], [p, q]), t_max=wanted[-1],
                            snapshot_times=wanted)
        ref = flow_on_geodesic(man, p, q, scalar_curve([x0], [0.0, 1.0]), wanted[-1], wanted)
        for t in wanted:
            k, r = traj.index_at(t), ref.index_at(t)
            assert l2_distance(traj.snapshots[k], ref.snapshots[r]) <= 1e-14, t
            assert abs(traj.dissipation[k] - ref.dissipation[r]) <= 1e-14, t
        assert traj.final_curve.num_jumps == 0
        extinction = run_scalar_tv(scalar_curve([x0], [0.0, dist_pq]), wanted[-1]).extinction_time
        assert abs(traj.times[-1] - extinction) <= 4 * EPS * extinction


def _guarded_run(monkeypatch, u0, **kw):
    # the same run with pair steps switched off: every jump closes under the
    # step guard and merges at _MERGE_TOL
    with monkeypatch.context() as m:
        m.setattr(mtvf.flows, "_PAIR_JUMP", 0.0)
        return run_exact_pc(u0, **kw)


def _assert_same_trajectory(a, b, tol=1e-9):
    assert len(a) == len(b)
    assert np.max(np.abs(a.times - b.times)) <= tol
    assert np.max(np.abs(a.dissipation - b.dissipation)) <= tol
    assert max(l2_distance(s, r) for s, r in zip(a.snapshots, b.snapshots)) <= tol


# a unit jump at x0 = 0.3 on the line collides at x0 (1 - x0) = 0.21; pair
# steps start from a gap below 1e-3, more than 1e-4 before that.  The line
# data below lie on the x-axis of euclidean:2, which the solver steps
_LINE_COLLISION = 0.21


def test_merge_ahead_falls_back_for_a_snapshot_inside_the_collision_time(monkeypatch, x_axis):
    u0 = x_axis(scalar_curve([0.3], [0.0, 1.0]))
    wanted = [_LINE_COLLISION - 1e-7]
    traj = run_exact_pc(u0, t_max=0.5, snapshot_times=wanted)
    assert wanted[0] in traj.times
    _assert_same_trajectory(traj, _guarded_run(monkeypatch, u0, t_max=0.5, snapshot_times=wanted))


def test_merge_ahead_falls_back_for_t_max_inside_the_collision_time(monkeypatch, cadence,
                                                                    x_axis):
    cadence(1)
    u0 = x_axis(scalar_curve([0.3], [0.0, 1.0]))
    t_max = _LINE_COLLISION - 1e-7
    traj = run_exact_pc(u0, t_max=t_max)
    assert traj.times[-1] == t_max and traj.final_curve.num_jumps == 1
    _assert_same_trajectory(traj, _guarded_run(monkeypatch, u0, t_max=t_max))


def test_merge_ahead_falls_back_when_outer_pulls_cancel_the_closing_rate(monkeypatch, cadence,
                                                                        x_axis):
    # a backward step inside a rising staircase: both outer pulls point along
    # the rise, so |w| = c exactly and the closed form is 0/0; the pair still
    # closes (at 2c), under the step guard
    cadence(1)
    u0 = x_axis(scalar_curve([0.25, 0.5, 0.75], [0.0, 1.0, 1.0 - 1e-6, 2.0]))
    traj = run_exact_pc(u0, t_max=1e-3)
    assert traj.final_curve.num_jumps == 2
    _assert_same_trajectory(traj, _guarded_run(monkeypatch, u0, t_max=1e-3))


def test_merge_ahead_falls_back_when_another_jump_closes_first(x_axis):
    # the small jump 0 would collide after 3.9e-6, but jump 2 (137x larger,
    # between two short plateaus) closes at rate 300 and collides after 3.7e-6:
    # one step of length tau* would carry it through its collision.  Jump 0
    # merges ahead later; on the line the scalar staircase flow is exact
    u0 = scalar_curve([0.49, 0.98, 0.99], [0.0, 8e-6, 1.0, 1.0 - 1.1e-3])
    wanted = np.linspace(0.0, 1e-3, 21)[1:]
    traj = run_exact_pc(x_axis(u0), t_max=1e-3, snapshot_times=wanted)
    exact = run_scalar_tv(u0, t_max=1e-3)
    assert traj.final_curve.num_jumps == 1
    for t in wanted:
        snap = traj.snapshots[traj.index_at(t)]
        bp, vals = exact.state_at(t)
        assert l2_distance(snap, x_axis(scalar_curve(bp, vals))) <= 1e-9
        assert abs(traj.dissipation[traj.index_at(t)] - exact.dissipation_at(t)) <= 1e-9


def test_simultaneous_collisions_match_the_scalar_flow(x_axis):
    # jump 1 closes first and merges ahead; then the two outer jumps close at
    # the same rate and meet at t = 1/8, so neither is isolated and both merge
    # after a guarded step, each at its centre with its closed-form dissipation
    u0 = scalar_curve([0.25, 0.5, 0.75], [0.0, 1.0, 0.0, 1.0])
    wanted = np.linspace(0.0, 0.15, 41)[1:]
    traj = run_exact_pc(x_axis(u0), t_max=0.15, snapshot_times=wanted)
    exact = run_scalar_tv(u0, t_max=0.15)
    assert traj.final_curve.num_jumps == 0
    for t in wanted:
        k = traj.index_at(t)
        bp, vals = exact.state_at(t)
        assert l2_distance(traj.snapshots[k], x_axis(scalar_curve(bp, vals))) <= 1e-12, t
        assert abs(traj.dissipation[k] - exact.dissipation_at(t)) <= 1e-12, t


def _budget_pc_velocity(monkeypatch, limit):
    """Make the solver's pc_velocity raise on its call past ``limit``, so a
    run that crawls fails instead of hanging."""
    real, calls = pc_velocity, []

    def budgeted(man, lengths, values):
        calls.append(None)
        if len(calls) > limit:
            raise RuntimeError("pc_velocity call budget exhausted")
        return real(man, lengths, values)

    monkeypatch.setattr(mtvf.flows, "pc_velocity", budgeted)


@pytest.mark.parametrize("width", [1e-7, 1e-9, 1e-11])
def test_narrow_middle_plateau_does_not_crawl(monkeypatch, x_axis, width):
    # the middle plateau's rate bound 2/width keeps every guard below the
    # 1e-12 step floor; a floored step carries it just past its right
    # neighbour, whose jump then closes at speed 2 only.  Guarded by the
    # rates, that jump took 1e-12 steps to t_max; a call budget stops such a
    # run instead of letting it hang
    _budget_pc_velocity(monkeypatch, 20_000)
    u0 = scalar_curve([0.5, 0.5 + width], [0.0, 1.0, 0.3])
    wanted = [0.01, 0.05, 0.1]
    traj = run_exact_pc(x_axis(u0), t_max=4.0, snapshot_times=wanted)
    exact = run_scalar_tv(u0, t_max=4.0)
    for t in wanted:
        bp, vals = exact.state_at(t)
        snap = traj.snapshots[traj.index_at(t)]
        assert l2_distance(snap, x_axis(scalar_curve(bp, vals))) <= 1e-15, t
    assert detect_stopping(traj)[0] == pytest.approx(exact.extinction_time, abs=1e-15)


@pytest.mark.parametrize("width", [1e-10, 1e-11, 1e-12, 1e-13, 1e-14, 1e-15])
@pytest.mark.parametrize("breakpoints,levels", [
    (lambda w: [w, 0.5], [0.0, 1.0, 0.0]),
    (lambda w: [0.5, 0.5 + w], [0.0, 1.0, 0.3]),
    (lambda w: [0.5, 1.0 - w], [0.0, 1.0, 0.0]),
    (lambda w: [0.3, 0.3 + w, 0.7, 0.7 + w], [0.0, 1.0, 0.2, -1.0, 0.4]),
    (lambda w: [0.5, 0.5 + w], [0.0, 1.0, 0.0]),
    (lambda w: [w], [0.0, 1.0]),
    (lambda w: [1e-7, 1e-7 + w], [-1e-5, 0.0, 1.0]),
], ids=["left_boundary", "middle", "right_boundary", "two_narrow", "spike", "only_jump",
        "closing_past_the_floor"])
def test_a_plateau_narrower_than_the_floor_step_merges_at_once(monkeypatch, x_axis, breakpoints,
                                                               levels, width):
    # below the 1e-12 step floor a narrow plateau moves about 1e-12 / width
    # per step and overshot its jump: a boundary plateau of width 1e-11 hung,
    # and two of width 1e-11 booked 0.4 too little dissipation.  A jump that
    # closes within the floor step merges at once, by the merge rule; a run
    # that such merges end within 1e-15 of time 0 still records its end
    _budget_pc_velocity(monkeypatch, 2_000)
    u0 = scalar_curve(breakpoints(width), levels)
    wanted = [0.01, 0.05, 0.1, 0.3]
    traj = run_exact_pc(x_axis(u0), t_max=4.0, snapshot_times=wanted)
    exact = run_scalar_tv(u0, t_max=4.0)
    for t in wanted:
        bp, vals = exact.state_at(t)
        snap = traj.snapshots[traj.index_at(t)]
        assert l2_distance(snap, x_axis(scalar_curve(bp, vals))) <= 1e-12, t
    assert np.max(np.abs(traj.dissipation + traj.tv - traj.tv[0])) <= 1e-12


@pytest.mark.parametrize("dt", ["auto", 0.5])
def test_a_line_datum_flows_as_the_scalar_staircase(monkeypatch, dt):
    # euclidean:1 data flow in closed form, with no RK4 step: the run records
    # the scalar flow's merges, requested times and end, states and dissipation
    # bit for bit; snapshot 0 is the datum and dt_nominal the base step
    _budget_pc_velocity(monkeypatch, 0)
    rng = np.random.Generator(np.random.Philox([86, 0]))
    for _ in range(10):
        u0 = random_rad_curve(EU1, rng, n_jumps=int(rng.integers(1, 7)))
        t_max = float(rng.uniform(0.05, 1.0))
        wanted = np.sort(rng.uniform(0.0, 1.2 * t_max, 5))
        traj = run_exact_pc(u0, t_max=t_max, dt=dt, snapshot_times=wanted)
        ref = scalar_trajectory(run_scalar_tv(u0, t_max), wanted)
        assert traj.solver == "exact_pc" and traj.snapshots[0] is u0
        assert traj.dt_nominal == (min(1e-3, t_max / 32) if dt == "auto" else dt)
        assert np.array_equal(traj.times, ref.times)
        assert np.array_equal(traj.dissipation, ref.dissipation)
        for a, b in zip(traj.snapshots[1:], ref.snapshots[1:], strict=True):
            assert np.array_equal(a.breakpoints, b.breakpoints)
            assert np.array_equal(a.values, b.values)


def test_a_narrow_plateau_pulled_aslant_is_not_merged():
    # between neighbours at a right angle a narrow plateau heads for the chord
    # joining them, and neither of its jumps closes; merged below the floor
    # step, the run would book 0.207 too much dissipation
    u0 = PiecewiseConstantCurve(EU2, np.array([0.5, 0.5 + 1e-13]),
                                np.array([[0.0, 0.0], [0.5, 0.0], [0.5, 0.5]]))
    traj = run_exact_pc(u0, t_max=2e-14)
    assert traj.final_curve.num_jumps == 2
    assert abs(traj.dissipation[-1] + traj.tv[-1] - traj.tv[0]) <= 1e-9


def _on_circle(angles):
    return np.column_stack([np.cos(angles), np.sin(angles)])


_ASLANT = [[0.0, 0.0], [0.5, 0.0], [0.5, 0.5]]
# a staircase whose narrow plateau's two tangents cancel to rounding, and a
# spike whose narrow plateau closes both jumps at once: (breakpoints, angles, t_max)
_STIFF_ARCS = {
    "staircase": ([0.5, 0.5 + 1e-15], [-0.261, -0.761, -1.261], 0.01),
    "spike": ([0.5, 0.5 + 1e-13], [-1.144, -1.644, -1.144], 4.0),
}


@pytest.mark.xfail(raises=(RuntimeError, AssertionError), strict=True,
                   reason="RK4 with a step floor cannot follow a stiff narrow plateau")
@pytest.mark.parametrize("manifold,breakpoints,values,t_max", [
    (EU2, [0.5, 0.5 + 1e-10], _ASLANT, 4.0),
    (EU2, [0.5, 0.5 + 1e-11], _ASLANT, 4.0),
    (EU2, [0.5, 0.5 + 1e-13], _ASLANT, 4.0),
    *((Sphere(3), bp, np.column_stack([_on_circle(angles), np.zeros(3)]), t_max)
      for bp, angles, t_max in _STIFF_ARCS.values()),
], ids=["aslant_1e-10", "aslant_1e-11", "aslant_1e-13", "great_circle_staircase",
        "great_circle_spike"])
def test_a_stiff_narrow_plateau_keeps_the_energy_identity(monkeypatch, manifold, breakpoints,
                                                          values, t_max):
    # a plateau of width W relaxes onto the geodesic between its neighbours in
    # a time of about W * d.  The aslant plateau never closes a jump, and
    # floored steps carry it back and forth past the budget; on a great circle
    # the staircase's two tangents cancel to rounding, which the width divides
    # (off by 1.7e13), and the spike's merge takes the chord, not the arc (off
    # by 2.1e-2)
    _budget_pc_velocity(monkeypatch, 5_000)
    traj = run_exact_pc(PiecewiseConstantCurve(manifold, breakpoints, values), t_max=t_max)
    assert np.max(np.abs(traj.dissipation + traj.tv - traj.tv[0])) <= 1e-12


@pytest.mark.parametrize("name", sorted(_STIFF_ARCS))
def test_a_stiff_narrow_plateau_on_the_circle_keeps_the_energy_identity(monkeypatch, name):
    # the same arcs on the circle flow in its angle chart, in closed form
    breakpoints, angles, t_max = _STIFF_ARCS[name]
    _budget_pc_velocity(monkeypatch, 5_000)
    traj = run_exact_pc(PiecewiseConstantCurve(Circle(), breakpoints, _on_circle(angles)),
                        t_max=t_max)
    assert np.max(np.abs(traj.dissipation + traj.tv - traj.tv[0])) <= 1e-12


@pytest.mark.parametrize("refused", range(1, 6))
def test_pair_step_falls_back_when_a_frozen_pull_reaches_the_closing_rate(monkeypatch, cadence,
                                                                        refused):
    # the pursuit closed form needs |w| < c for every frozen w of a step; a
    # step where one reaches c, at any of its five pursuit calls, is taken
    # under the step guard instead, the same step the run without pair steps
    # takes
    cadence(1)
    u0 = random_rad_curve(EU2, np.random.Generator(np.random.Philox([22, 0])))
    kw = dict(t_max=4 * tv_measure(u0).total)
    pair_rk4, pursuit = mtvf.flows._pair_rk4, mtvf.flows._pursuit
    calls, refusals = [0], [0]

    def pair_step(*args):
        calls[0] = 0
        return pair_rk4(*args)

    def refusing_pursuit(*args):
        calls[0] += 1
        if calls[0] != refused:
            return pursuit(*args)
        refusals[0] += 1
        return None

    with monkeypatch.context() as m:
        m.setattr(mtvf.flows, "_pair_rk4", pair_step)
        m.setattr(mtvf.flows, "_pursuit", refusing_pursuit)
        traj = run_exact_pc(u0, **kw)
    assert refusals[0] > 0
    guarded = _guarded_run(monkeypatch, u0, **kw)
    assert np.array_equal(traj.times, guarded.times)
    assert np.array_equal(traj.dissipation, guarded.dissipation)
    for s, r in zip(traj.snapshots, guarded.snapshots):
        assert np.array_equal(s.values, r.values)


def test_guarded_merge_books_the_whole_dissipation(monkeypatch, x_axis):
    # without pair steps the jump merges once a guarded step closes it to
    # _MERGE_TOL; the merge still books the pair's remaining dissipation, so
    # the run loses exactly its variation 1 and ends at the mean 0.7
    u0 = x_axis(scalar_curve([0.3], [0.0, 1.0]))
    traj = _guarded_run(monkeypatch, u0, t_max=0.5)
    assert traj.final_curve.num_jumps == 0
    assert abs(traj.dissipation[-1] - 1.0) <= 1e-12
    assert abs(traj.final_curve.values[0, 0] - 0.7) <= 1e-12


def test_merge_reduces_jump_count_by_one():
    u0 = random_rad_curve(SPH, np.random.Generator(np.random.Philox([79, 0])), n_jumps=3)
    traj = run_exact_pc(u0, t_max=4 * tv_measure(u0).total)
    njumps = [s.num_jumps for s in traj.snapshots]
    drops = np.diff(njumps)
    assert np.all(drops >= -1)
    assert njumps[-1] == 0


def test_rejects_inadmissible_datum():
    p = np.array([1.0, 0, 0])
    q = np.array([-1.0, 0, 0.0])
    u0 = PiecewiseConstantCurve(SPH, [0.5], np.stack([p, q]))
    with pytest.raises(GeometryError, match=r"jump of size 3\.14159 at x=0\.5 reaches twice"):
        run_exact_pc(u0, t_max=1.0)


@pytest.mark.parametrize("man", [SPH, Circle(), Cylinder()], ids=lambda m: m.spec_id)
def test_an_antipodal_neighbour_pair_is_refused_by_both_solvers(man):
    # (p, q, p) with q the antipode of p (on the cylinder at p's height); every
    # other q on the sphere and the cylinder is pi - 1e-13 round from p, along a
    # great circle or at p's height.  dist reads 15 of the sphere's and 26 of
    # the circle's exact antipodes just short of pi, and the near ones short of
    # it, so a refusal at pi lets them through: the angle chart would then turn
    # them by the sign of a rounding-level cross product, or by a turn past
    # _CUT_ANGLE, which the targets' log refuses, and on the sphere the run
    # would reach log with no place named.  Both solvers refuse every datum as
    # a wide jump or chord of size pi
    rng = np.random.Generator(np.random.Philox([43, 1]))
    below_pi = 0
    for i in range(1_500):
        p = man.project_point(rng.standard_normal(man.ambient_dim))
        q = np.append(-p[:2], p[2:]) if man.kind == "cylinder" else -p
        if i % 2 and man.kind == "cylinder":
            turn = np.pi - 1e-13
            c, s = np.cos(turn), np.sin(turn)
            q[:2] = c * p[0] - s * p[1], s * p[0] + c * p[1]
        if i % 2 and man.kind == "sphere":
            v, nv = man.random_direction(rng, p)
            q = man.exp(p, ((np.pi - 1e-13) / nv) * v)
        values = np.array([p, q, p])
        below_pi += bool(man.dist(p, q) < np.pi)
        with pytest.raises(GeometryError, match=r"^jump of size 3\.14159 at x=0\.333333 "):
            run_exact_pc(PiecewiseConstantCurve(man, [1 / 3, 2 / 3], values), t_max=0.1)
        with pytest.raises(GeometryError, match=r"^chord of size 3\.14159 at x=0 "):
            run_regularized(SampledCurve(man, values), FlowConfig(man, epsilon=1e-2, t_max=0.1))
    assert below_pi == {"sphere": 765, "circle": 26, "cylinder": 750}[man.kind]


# ---------------------------------------------------------------------------
# conservation laws and diagnostics
# ---------------------------------------------------------------------------


def test_energy_balance_tracks_dissipation():
    u0 = random_rad_curve(SPH, np.random.Generator(np.random.Philox([80, 0])))
    traj = run_exact_pc(u0, t_max=4 * tv_measure(u0).total)
    rep = check_energy(traj)
    assert rep.passed, rep
    # the balance is near an equality for the exact solver: total dissipation
    # accounts for the whole variation drop
    drop = traj.tv[0] - traj.tv[-1]
    assert traj.dissipation[-1] == pytest.approx(drop, abs=1e-6)


def test_euclidean_mean_conserved():
    u0 = random_rad_curve(EU2, np.random.Generator(np.random.Philox([81, 0])))
    traj = run_exact_pc(u0, t_max=4 * tv_measure(u0).total)
    m0 = u0.plateau_lengths() @ u0.values
    m1 = traj.final_curve.plateau_lengths() @ traj.final_curve.values
    assert np.allclose(m0, m1, atol=1e-8)


def test_z_field_reconstruction_refuses_a_sampled_curve():
    with pytest.raises(ConfigError, match="needs a piecewise-constant curve"):
        reconstruct_z_pc(mollify(scalar_curve([0.5], [0.2, 0.8]), 33))


def test_z_field_reconstruction_structure():
    u0 = random_rad_curve(SPH, np.random.Generator(np.random.Philox([82, 0])), n_jumps=2)
    left, right = reconstruct_z_pc(u0)
    assert left.shape == right.shape == (3, 3)
    assert np.all(left[0] == 0.0) and np.all(right[-1] == 0.0)
    assert np.max(np.linalg.norm(np.vstack([left, right]), axis=1)) <= 1 + 1e-12
    tm, tp = SPH.unit_tangent_pair(u0.values[:-1], u0.values[1:])
    assert np.allclose(right[:-1], tm, atol=1e-12)
    assert np.allclose(left[1:], tp, atol=1e-12)


def test_snapshot_floor_defers_cadence_records_until_the_merge(monkeypatch, cadence, x_axis):
    # the two equal jumps of staircase([0, 1, 0]) close at rate 9 and merge
    # together at t = 1/9, so no pair step applies; the guarded approach takes
    # twelve steps with a jump below the floor, whose records wait for the merge
    cadence(1)
    u0 = x_axis(staircase([0.0, 1.0, 0.0]))
    traj = run_exact_pc(u0, t_max=0.2)
    assert traj.final_curve.num_jumps == 0 and traj.times[-1] < 0.2
    smallest = [float(np.min(np.abs(np.diff(s.values[:, 0])))) for s in traj.snapshots[:-1]]
    assert min(smallest) > mtvf.flows._SNAPSHOT_JUMP_FLOOR
    assert min(smallest) == pytest.approx(1.50e-7, rel=1e-2)
    # a requested time is recorded below the floor all the same
    t = 1.0 / 9.0 - 5e-9
    requested = run_exact_pc(u0, t_max=0.2, snapshot_times=[t])
    snap = requested.snapshots[list(requested.times).index(t)]
    assert snap.num_jumps == 2
    assert np.allclose(np.abs(np.diff(snap.values[:, 0])), 4.5e-8, rtol=1e-6, atol=0.0)
    monkeypatch.setattr(mtvf.flows, "_SNAPSHOT_JUMP_FLOOR", 0.0)
    assert len(run_exact_pc(u0, t_max=0.2)) - len(traj) == 12


def test_snapshot_floor_keeps_unresolved_tangents_out_of_the_sphere_identities(monkeypatch, cadence):
    # the datum's two jumps of size 1, at an angle on sphere:3, close together,
    # so no pair step applies.  Below the floor a jump's unit tangents carry O(eps_mach / d)
    # rounding, which a record mid-cascade hands to the no-atoms identity: with
    # the floor at 0 the same run fails it (4.1e-8 against 1e-8, measured)
    cadence(1)
    c, s = np.cos(1.0), np.sin(1.0)
    p, q = np.array([1.0, 0.0, 0.0]), np.array([c, s, 0.0])
    r = np.array([c, 0.3 * s, np.sqrt(1.0 - c * c - 0.09 * s * s)])
    u0 = PiecewiseConstantCurve(SPH, [1.0 / 3.0, 2.0 / 3.0], [q, p, r])
    report = check_sphere_equivalence(run_exact_pc(u0, t_max=3.0))
    assert report.passed and report.worst < 2e-9  # 9.1e-10 here
    monkeypatch.setattr(mtvf.flows, "_SNAPSHOT_JUMP_FLOOR", 0.0)
    assert not check_sphere_equivalence(run_exact_pc(u0, t_max=3.0)).passed


def test_repeated_snapshot_times_record_one_snapshot_each():
    # requested times closer than 1e-14 are one snapshot, reached by one step
    u0 = random_rad_curve(SPH, np.random.Generator(np.random.Philox([83, 0])))
    wanted = [0.01, 0.02, 0.01, 0.01 + 5e-15, 0.02]
    traj = run_exact_pc(u0, t_max=0.03, snapshot_times=wanted)
    for t in (0.01, 0.02):
        assert np.sum(np.abs(traj.times - t) <= 1e-14) == 1


@pytest.mark.parametrize("wanted,match", [
    # a non-finite time is refused, not dropped with the others outside (0, t_max]
    *(pytest.param([bad, 0.05], "snapshot times must be finite", id=str(bad))
      for bad in (float("nan"), float("inf"), -float("inf"))),
    # so is anything but a 1-D sequence or array of real numbers, which a string
    # would be character by character
    *(pytest.param(bad, "snapshot_times must be a 1-D sequence", id=name) for name, bad in [
        ("string", "0.1"), ("int", 1), ("nested", [[0.05]]), ("bool", [True, 0.05])]),
])
@pytest.mark.parametrize("run", ["exact", "regularized", "scalar", "geodesic"])
def test_non_finite_requested_snapshot_time_is_a_config_error(run, wanted, match):
    u0 = scalar_curve([0.5], [0.0, 1.0])
    runs = {
        "exact": lambda: run_exact_pc(u0, t_max=0.1, snapshot_times=wanted),
        "regularized": lambda: run_regularized(
            mollify(u0, 33), FlowConfig(EU1, epsilon=0.1, grid_n=33, t_max=0.1), wanted),
        "scalar": lambda: scalar_trajectory(run_scalar_tv(u0, 0.1), wanted),
        "geodesic": lambda: flow_on_geodesic(SPH, np.array([1.0, 0, 0]), np.array([0, 1.0, 0]),
                                             u0, 0.1, wanted),
    }
    with pytest.raises(ConfigError, match=match):
        runs[run]()


def test_index_at_reads_only_recorded_times_and_the_end_of_an_early_stop():
    u0 = scalar_curve([0.5], [0.0, 1.0])
    traj = run_exact_pc(u0, t_max=1.0, snapshot_times=[0.05, 0.1])
    assert traj.times[-1] < 1.0  # extinct at t = 0.25, before t_max
    assert traj.index_at(0.05 + 1e-11) == list(traj.times).index(0.05)
    # a time between two snapshots was not recorded: no nearest one stands in
    with pytest.raises(CheckNotApplicable, match="no snapshot recorded at t=0.07"):
        traj.index_at(0.07)
    # past the last snapshot the state is constant: the last one
    assert traj.index_at(0.9) == len(traj) - 1


@pytest.mark.parametrize(
    "option",
    [
        {"dt": float("nan")},
        {"dt": 0.0},
        {"dt": -1e-3},
        {"dt": 1e-16},
        {"dt": "fast"},
        {"t_max": float("nan")},
        {"t_max": 0.0},
        {"epsilon": float("inf")},
        {"epsilon": float("nan")},
        {"epsilon": 0.0},
        {"epsilon": 1e-200},  # positive, but its square underflows to 0
        # a bool is an int to Python, and would run as 1 or 0
        {"dt": True},
        {"t_max": True},
        {"epsilon": True},
        pytest.param({"t_max": np.True_}, id="t_max=np.True_"),
        # a number is taken as a number, not parsed from text
        {"epsilon": "0.01"},
        {"t_max": "1"},
        # a float cannot hold it
        pytest.param({"t_max": 10**400}, id="t_max=10**400"),
        pytest.param({"dt": -10**400}, id="dt=-10**400"),
        # only epsilon and grid_n may be None
        {"dt": None},
        {"t_max": None},
    ],
    ids=lambda o: "{}={}".format(*next(iter(o.items()))),
)
def test_bad_options_are_config_errors(option):
    # run_exact_pc checks its arguments by FlowConfig's rules; epsilon, which
    # only the grid solver reads, reaches FlowConfig alone
    with pytest.raises(ConfigError, match=next(iter(option))):
        mtvf.flows.FlowConfig(SPH, **option)
    if "epsilon" not in option:
        u0 = random_rad_curve(SPH, np.random.Generator(np.random.Philox([83, 0])))
        with pytest.raises(ConfigError, match=next(iter(option))):
            run_exact_pc(u0, **{"t_max": 0.1, **option})


@pytest.mark.parametrize("epsilon,grid_n", [(None, None), (0.1, 33)], ids=["exact", "regularized"])
def test_a_first_requested_time_below_1e_15_is_the_time_zero_snapshot(x_axis, epsilon, grid_n):
    # the first step runs to 1e-20, and the recorder takes a time within
    # 1e-15 of the last record for the same snapshot (the exact solver steps
    # the datum on the x-axis)
    u0 = scalar_curve([0.5], [0.0, 1.0])
    u0 = u0 if epsilon else x_axis(u0)
    cfg = FlowConfig(u0.manifold, epsilon=epsilon, grid_n=grid_n, t_max=0.1)
    traj, reference = flow(u0, cfg, [1e-20, 0.05]), flow(u0, cfg, [0.05])
    assert traj.times[0] == 0.0 and traj.times[1] > 1e-15
    assert np.array_equal(traj.snapshots[0].values, reference.snapshots[0].values)
    at = traj.snapshots[traj.index_at(0.05)]
    assert l2_distance(at, reference.snapshots[reference.index_at(0.05)]) < 1e-12


_STEP = scalar_curve([0.3, 0.6], [0.0, 1.0, 0.4])
_SAMPLED = noisy_field("circle", grid_n=33, noise=0.05, seed=3)


@pytest.mark.parametrize("snapshot_times", [None, [0.01, 0.03]], ids=["cadence", "requested"])
@pytest.mark.parametrize("curve,config,every,direct", [
    (_STEP, FlowConfig(EU1, t_max=0.05, dt=2e-3), 10,
     lambda u, cfg, times: run_exact_pc(u, cfg.t_max, cfg.dt, times)),
    (_STEP, FlowConfig(EU1, epsilon=0.1, grid_n=41, t_max=0.05), 10,
     lambda u, cfg, times: run_regularized(mollify(u, 41), cfg, times)),
    (_SAMPLED, FlowConfig(_SAMPLED.manifold, epsilon=0.05, t_max=0.05), 3,
     lambda u, cfg, times: run_regularized(u, cfg, times)),
], ids=["step_exact", "step_mollified", "sampled"])
def test_flow_is_the_half_its_config_picks(cadence, curve, config, every, direct, snapshot_times):
    # flow adds no arithmetic: its trajectory is the direct call's, bit for bit
    cadence(every)
    got, want = flow(curve, config, snapshot_times), direct(curve, config, snapshot_times)
    assert got.solver == want.solver and got.dt_nominal == want.dt_nominal
    assert np.array_equal(got.times, want.times)
    assert np.array_equal(got.dissipation, want.dissipation)
    for a, b in zip(got.snapshots, want.snapshots, strict=True):
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(getattr(a, "breakpoints", ()), getattr(b, "breakpoints", ()))


def test_snapshot_times_strictly_increase():
    u0 = random_rad_curve(SPH, np.random.Generator(np.random.Philox([83, 0])))
    traj = run_exact_pc(u0, t_max=4 * tv_measure(u0).total)
    assert np.all(np.diff(traj.times) >= 0)
    assert traj.times[0] == 0.0
    assert l2_distance(traj.snapshots[0], u0) < 1e-12


def test_one_plateau_has_zero_velocity():
    vals = np.array([[0.0, 0.0, 1.0]])
    assert np.array_equal(pc_velocity(SPH, np.ones(1), vals), np.zeros((1, 3)))


@pytest.mark.parametrize("w", [[2.0, 0.0], [0.0, -3.0]])
def test_pursuit_needs_the_outer_pull_below_the_closing_rate(w):
    # |w| >= c: the pair need not close, and the closed form does not apply
    assert mtvf.flows._pursuit(np.array([1e-4, 0.0]), np.array(w), 2.0, 0.1) is None
