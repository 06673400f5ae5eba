"""Exact scalar staircase flow: conservation, collisions, extinction, and the
trajectories that record it: ``scalar_trajectory``, ``flow_on_geodesic`` and
``run_exact_pc`` on one-dimensional charts."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mtvf.flows
from mtvf import (
    Circle,
    ConfigError,
    Euclidean,
    MtvfError,
    PiecewiseConstantCurve,
    Sphere,
    compose_with_geodesic,
    detect_stopping,
    flow_on_geodesic,
    run_exact_pc,
    run_scalar_tv,
    scalar_curve,
    scalar_trajectory,
    tv_measure,
)


def _mean(curve):
    return float(curve.plateau_lengths() @ curve.values[:, 0])


# ---------------------------------------------------------------------------
# single jump: closed form
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("x0", [0.25, 0.5, 0.75])
def test_single_jump_extinction_closed_form(x0):
    s0 = 1.0
    sigma0 = scalar_curve([x0], [-s0, s0])
    flow = run_scalar_tv(sigma0, t_max=2.0)
    expected = 2.0 * s0 * x0 * (1.0 - x0)
    assert flow.extinction_time == pytest.approx(expected, abs=1e-12)
    assert flow.final_value == pytest.approx(_mean(sigma0), abs=1e-12)


def test_single_jump_plateau_speeds():
    # left plateau rises at 1/x0, right falls at 1/(1-x0)
    x0 = 0.25
    sigma0 = scalar_curve([x0], [0.0, 1.0])
    flow = run_scalar_tv(sigma0, t_max=1.0)
    t = 0.05
    _, vals = flow.state_at(t)
    assert vals[0] == pytest.approx(0.0 + t / x0, abs=1e-12)
    assert vals[1] == pytest.approx(1.0 - t / (1 - x0), abs=1e-12)


def test_constant_datum_stays_constant():
    flow = run_scalar_tv(scalar_curve([], [0.7]), t_max=1.0)
    assert flow.extinction_time == 0.0
    assert flow.final_value == pytest.approx(0.7)


# ---------------------------------------------------------------------------
# collisions and merging
# ---------------------------------------------------------------------------


def test_middle_plateau_squeezed_by_neighbours():
    # 0, 1, 0.5: the middle plateau has both neighbours below, so it falls at
    # 2/length; the second jump collapses first
    sigma0 = scalar_curve([0.25, 0.5], [0.0, 1.0, 0.5])
    flow = run_scalar_tv(sigma0, t_max=2.0)
    assert flow.extinction_time is not None
    assert flow.final_value == pytest.approx(_mean(sigma0), abs=1e-12)
    # shortly after t=0 the middle plateau moved down, the outer ones inward
    _, vals = flow.state_at(0.01)
    assert vals[1] < 1.0
    assert vals[0] > 0.0
    assert vals[2] > 0.5


@pytest.mark.parametrize("width", [1e-15, 1e-14])
def test_narrow_middle_plateau_merges_only_its_own_jump(width):
    # the narrow plateau meets its left neighbour after ~3.5 width; the jump
    # of 0.3 left between two halves closes at rate 2 + 2 much later, at 0.075,
    # so a tie rule with an absolute slack of 1e-15 must not merge it too
    sigma0 = scalar_curve([0.5, 0.5 + width], [0.0, 1.0, 0.3])
    flow = run_scalar_tv(sigma0, t_max=1.0)
    assert len(flow.event_times()) == 2
    assert flow.extinction_time == pytest.approx(0.075, abs=1e-12)
    assert flow.final_value == pytest.approx(_mean(sigma0), abs=1e-12)


def test_merge_is_length_weighted():
    # symmetric configuration merging into the exact average
    sigma0 = scalar_curve([0.5], [0.0, 1.0])
    flow = run_scalar_tv(sigma0, t_max=1.0)
    assert flow.final_value == pytest.approx(0.5, abs=1e-14)


def test_event_times_are_increasing():
    sigma0 = scalar_curve([0.2, 0.4, 0.7], [0.0, 0.9, 0.1, 0.8])
    flow = run_scalar_tv(sigma0, t_max=4.0)
    ev = flow.event_times()
    assert all(b > a for a, b in zip(ev, ev[1:]))
    assert ev[-1] == flow.extinction_time


def _segment_table(bp, vals, t_max):
    """The staircase flow's segments ``(t0, t1, breakpoints, values, speeds,
    diss0, diss_rate)``, its extinction time and final value, written per
    event with ``np.diff``, ``np.where`` and concatenations."""
    bp, vals = np.array(bp, dtype=float), np.array(vals, dtype=float)
    t = diss = 0.0
    segments = []
    while vals.size > 1:
        lengths = np.diff(np.concatenate([[0.0], bp, [1.0]]))
        gaps = np.diff(vals)
        speeds = np.diff(np.concatenate([[0.0], np.sign(gaps), [0.0]])) / lengths
        rate = float(np.sum(lengths * speeds * speeds))
        closing = np.diff(speeds)
        with np.errstate(divide="ignore", invalid="ignore"):
            t_coll = np.where(gaps * closing < 0, -gaps / closing, np.inf)
        dt = float(np.min(t_coll))
        end = min(t + dt, t_max)
        segments.append((t, end, bp, vals, speeds, diss, rate))
        if end == t_max:
            return segments, None, float(np.sum(lengths * vals))
        diss += rate * dt
        t = end
        hit = t_coll <= dt * (1.0 + 1e-12)
        group = np.concatenate([[0], np.cumsum(~hit)])
        vals = np.bincount(group, lengths * (vals + dt * speeds)) / np.bincount(group, lengths)
        bp = bp[~hit]
    segments.append((t, t_max, bp, vals, np.zeros(1), diss, 0.0))
    return segments, t, float(vals[0])


def test_segment_tables_match_the_per_event_diff_formulation_bit_for_bit():
    # 2,400 staircases: a third on small integer levels, so that plateaus tie
    # with non-neighbours; a third on evenly spaced breakpoints, where mirror
    # images collide at the same time; some cut short by t_max
    rng = np.random.Generator(np.random.Philox(49))
    simultaneous = 0
    for k in range(2400):
        m = int(rng.integers(2, 10))
        levels = (rng.integers(0, 3, m).astype(float) if k % 3 == 0
                  else rng.uniform(-1.0, 1.0, m))
        if k % 3 == 1:
            levels[m // 2:] = levels[:m - m // 2][::-1]  # a mirror-symmetric staircase
            bp = np.arange(1, m) / m
        else:
            bp = np.sort(rng.uniform(0.02, 0.98, m - 1))
            if np.min(np.diff(bp), initial=1.0) < 1e-3:
                bp = np.arange(1, m) / m
        sigma = scalar_curve(bp, levels)
        t_max = (4.0 if k % 5 else 0.05) * (tv_measure(sigma).total + 1.0)
        flow = run_scalar_tv(sigma, t_max)
        segments, extinction, final = _segment_table(sigma.breakpoints, sigma.values[:, 0], t_max)
        assert (flow.extinction_time, flow.final_value) == (extinction, final), k
        assert len(flow.segments) == len(segments), k
        for seg, ref in zip(flow.segments, segments):
            got = (seg.t0, seg.t1, seg.breakpoints, seg.values, seg.speeds, seg.diss0, seg.diss_rate)
            assert got[:2] + got[5:] == ref[:2] + ref[5:], k
            for a, b in zip(got[2:5], ref[2:5]):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), k
        simultaneous += any(b[2].size < a[2].size - 1 for a, b in zip(segments, segments[1:]))
    assert simultaneous >= 100  # many events merge two or more jumps at once


def test_rejects_non_scalar_curve():
    from mtvf import Euclidean, PiecewiseConstantCurve

    c = PiecewiseConstantCurve(Euclidean(2), [0.5], np.array([[0.0, 0], [1.0, 0]]))
    with pytest.raises(ConfigError):
        run_scalar_tv(c, 1.0)


# ---------------------------------------------------------------------------
# conservation / stopping as properties
# ---------------------------------------------------------------------------


@given(
    levels=st.lists(st.floats(-1.5, 1.5), min_size=2, max_size=6),
    seed=st.integers(0, 100_000),
)
@settings(max_examples=80, deadline=None)
def test_mean_conserved_and_stops_at_mean(levels, seed):
    rng = np.random.Generator(np.random.Philox([seed]))
    bp = np.sort(rng.uniform(0.05, 0.95, size=len(levels) - 1))
    if len(bp) and np.any(np.diff(bp) < 5e-3):
        return
    sigma0 = scalar_curve(bp, levels)
    tv0 = tv_measure(sigma0).total
    flow = run_scalar_tv(sigma0, t_max=4.0 * tv0 + 1e-6)
    assert flow.extinction_time is not None
    assert flow.extinction_time <= 4.0 * tv0 + 1e-12
    assert flow.final_value == pytest.approx(_mean(sigma0), abs=1e-8)


@given(
    levels=st.lists(st.one_of(st.integers(-2, 2).map(float), st.floats(-1.5, 1.5)),
                    min_size=1, max_size=7),
    equal_lengths=st.booleans(),
    seed=st.integers(0, 100_000),
)
@settings(max_examples=150, deadline=None, derandomize=True)
def test_variation_lost_equals_dissipation(levels, equal_lengths, seed):
    # TV(u(t)) + int_0^t int |u_t|^2 = TV(u(0)) in closed form; integer levels
    # on equal plateaus make several jumps close at once
    n = len(levels) - 1
    if equal_lengths:
        bp = np.arange(1, n + 1) / (n + 1)
    else:
        bp = np.sort(np.random.Generator(np.random.Philox([seed])).uniform(0.05, 0.95, n))
        if np.any(np.diff(bp) < 5e-3):
            return
    sigma0 = scalar_curve(bp, levels)
    tv0 = tv_measure(sigma0).total
    flow = run_scalar_tv(sigma0, t_max=4.0 * tv0 + 1.0)
    ext = flow.extinction_time
    assert ext is not None
    fixed = np.linspace(0.0, 1.5 * ext, 13)
    for t in [*fixed, *flow.event_times(), ext, ext + 0.5, flow.t_max, 2.0 * flow.t_max]:
        _, vals = flow.state_at(t)
        tv = float(np.sum(np.abs(np.diff(vals))))
        assert abs(tv + flow.dissipation_at(t) - tv0) <= 1e-12, t


def test_tv_decreases_along_flow():
    sigma0 = scalar_curve([0.2, 0.5, 0.8], [0.0, 1.0, -0.5, 0.5])
    flow = run_scalar_tv(sigma0, t_max=4.0)
    traj = scalar_trajectory(flow, np.linspace(0, flow.extinction_time, 40))
    tvs = [tv_measure(s).total for s in traj.snapshots]
    assert all(b <= a + 1e-12 for a, b in zip(tvs, tvs[1:]))


def test_scalar_trajectory_detects_stopping():
    sigma0 = scalar_curve([0.5], [-1.0, 1.0])
    flow = run_scalar_tv(sigma0, t_max=2.0)
    traj = scalar_trajectory(flow, np.linspace(0, 2.0, 41))
    stop = detect_stopping(traj)
    assert stop is not None
    t_star, const = stop
    assert t_star == pytest.approx(0.5, abs=1e-10)
    assert const[0] == pytest.approx(0.0, abs=1e-10)


def test_breakpoints_never_move():
    sigma0 = scalar_curve([0.3, 0.7], [0.0, 1.0, 0.2])
    flow = run_scalar_tv(sigma0, t_max=4.0)
    for t in np.linspace(0, flow.extinction_time * 0.999, 25):
        bp, _ = flow.state_at(t)
        assert set(np.round(bp, 12)).issubset({0.3, 0.7})


@pytest.mark.parametrize("t_max", [0.0, -1.0])
def test_rejects_a_nonpositive_horizon(t_max):
    with pytest.raises(ConfigError, match="t_max"):
        run_scalar_tv(scalar_curve([0.5], [0.0, 1.0]), t_max)


def test_rejects_an_unbounded_horizon():
    # FlowConfig's rule: t_max is positive and finite
    with pytest.raises(ConfigError, match="t_max must be positive and finite"):
        run_scalar_tv(scalar_curve([0.5], [0.0, 1.0]), float("inf"))


# ---------------------------------------------------------------------------
# closed-form trajectories: one value map per run, one construction per snapshot
# ---------------------------------------------------------------------------

SPH = Sphere(3)
P, Q = np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.6, 0.8])
# geodesic parameters of a staircase that goes up and down, with jumps in
# several dyadic cells
_BP = [0.1, 0.2, 0.35, 0.5, 0.6, 0.8, 0.9]
_LEVELS = [0.3, 0.9, 0.1, 0.7, 0.2, 1.0, 0.0, 0.55]


def _circle_values(angles):
    return np.column_stack([np.cos(angles), np.sin(angles)])


def _closed_form_run(route, wanted):
    """``(trajectory, datum, flow, map)``: the route's run, its datum, the scalar
    flow it records and, in plain numpy, the map of that flow's plateau values
    onto the datum's target."""
    sigma = scalar_curve(_BP, _LEVELS)
    if route in ("scalar", "euclidean:1"):
        flow = run_scalar_tv(sigma, 4.0)
        traj = (scalar_trajectory(flow, wanted) if route == "scalar"
                else run_exact_pc(sigma, 4.0, snapshot_times=wanted))
        return traj, sigma, flow, lambda v: v[:, None]
    if route == "geodesic":
        d = float(SPH.dist(P, Q))
        flow = run_scalar_tv(scalar_curve(_BP, np.multiply(_LEVELS, d)), 4.0)
        to_sphere = lambda v: SPH.geodesic_point(P, Q, np.clip(v / d, 0.0, 1.0))
        return (flow_on_geodesic(SPH, P, Q, sigma, 4.0, wanted),
                compose_with_geodesic(SPH, P, Q, sigma), flow, to_sphere)
    # the circle's angle chart: the first angle, then each turn the short way
    u0 = PiecewiseConstantCurve(Circle(), _BP, _circle_values(np.multiply(_LEVELS, 2.5)))
    x, y = u0.values[:, 0], u0.values[:, 1]
    turns = np.arctan2(x[:-1] * y[1:] - y[:-1] * x[1:], x[:-1] * x[1:] + y[:-1] * y[1:])
    chart = np.cumsum(np.append(math.atan2(y[0], x[0]), turns))
    flow = run_scalar_tv(scalar_curve(_BP, chart), 4.0)
    return run_exact_pc(u0, 4.0, snapshot_times=wanted), u0, flow, _circle_values


_ROUTES = ["euclidean:1", "circle", "scalar", "geodesic"]
_WANTED = {"none": None, "7": [3.0, 0.01, 0.2, 0.01, 0.5, 9.0, 0.07],
           "1000": np.linspace(0.0, 1.5, 1000)}


@pytest.mark.parametrize("wanted", sorted(_WANTED))
@pytest.mark.parametrize("route", _ROUTES)
def test_closed_form_snapshots_match_a_per_snapshot_reference(route, wanted):
    # every later snapshot, bit for bit: the flow's state at its time, that
    # state's values mapped on their own, then the step curve's constructor;
    # snapshot 0 is the datum (on the geodesic, its composition) itself
    traj, datum, flow, to_target = _closed_form_run(route, _WANTED[wanted])
    assert len(traj) >= 8 and traj.final_curve.num_jumps == 0
    first = traj.snapshots[0]
    assert first is datum or (first.breakpoints.tobytes() == datum.breakpoints.tobytes()
                              and first.values.tobytes() == datum.values.tobytes())
    for t, snap, diss in zip(traj.times[1:], traj.snapshots[1:], traj.dissipation[1:]):
        bp, vals = flow.state_at(t)
        ref = PiecewiseConstantCurve(datum.manifold, bp, to_target(vals))
        assert snap.breakpoints.tobytes() == ref.breakpoints.tobytes(), (route, t)
        assert snap.values.tobytes() == ref.values.tobytes(), (route, t)
        assert diss == flow.dissipation_at(t)


@pytest.mark.parametrize("route", _ROUTES)
def test_a_constant_datum_is_recorded_alone_unless_times_are_requested(route):
    # no merge and no end before t_max: the later states are none, or the one
    # requested time
    u0 = {"circle": PiecewiseConstantCurve(Circle(), [], _circle_values([0.4])),
          "geodesic": compose_with_geodesic(SPH, P, Q, scalar_curve([], [0.4]))}.get(
              route, scalar_curve([], [0.4]))
    for wanted, rows in ((None, 1), ([0.5], 2)):
        if route == "scalar":
            traj = scalar_trajectory(run_scalar_tv(u0, 1.0), wanted)
        elif route == "geodesic":
            traj = flow_on_geodesic(SPH, P, Q, scalar_curve([], [0.4]), 1.0, wanted)
        else:
            traj = run_exact_pc(u0, 1.0, snapshot_times=wanted)
            assert traj.snapshots[0] is u0
        assert len(traj) == rows and traj.times[-1] == (0.5 if wanted else 0.0)
        for snap in traj.snapshots:
            assert snap.values.tobytes() == u0.values.tobytes() and snap.num_jumps == 0


@pytest.mark.parametrize("route", _ROUTES)
def test_closed_form_runs_map_once_and_build_each_snapshot_once(route, monkeypatch):
    # whatever the number of requested times: one geodesic_point call for the
    # geodesic datum and the later snapshots together, one chart map, and one
    # validated construction per snapshot beside the run's datum curves
    maps, built = [], []
    geodesic_point, flat_chart = Sphere.geodesic_point, mtvf.flows._flat_chart
    post_init = PiecewiseConstantCurve.__post_init__

    def chart(*args):
        grid, values, back = flat_chart(*args)
        return grid, values, lambda v: maps.append("back") or back(v)

    monkeypatch.setattr(Sphere, "geodesic_point",
                        lambda *args: maps.append("geodesic_point") or geodesic_point(*args))
    monkeypatch.setattr(mtvf.flows, "_flat_chart", chart)
    monkeypatch.setattr(PiecewiseConstantCurve, "__post_init__",
                        lambda curve: built.append(1) or post_init(curve))
    for wanted in _WANTED.values():
        sigma = scalar_curve(_BP, _LEVELS)
        u0 = PiecewiseConstantCurve(Circle(), _BP, _circle_values(np.multiply(_LEVELS, 2.5)))
        del maps[:], built[:]
        if route == "scalar":
            traj = scalar_trajectory(run_scalar_tv(sigma, 4.0), wanted)
            assert (maps, len(built)) == ([], len(traj))  # snapshot 0 is built too
        elif route == "geodesic":
            traj = flow_on_geodesic(SPH, P, Q, sigma, 4.0, wanted)
            # the scalar datum, its composition (snapshot 0) and the later snapshots
            assert (maps, len(built)) == (["geodesic_point"], len(traj) + 1)
        else:
            traj = run_exact_pc(sigma if route == "euclidean:1" else u0, 4.0, snapshot_times=wanted)
            # the chart's datum and the later snapshots
            assert (maps, len(built)) == (["back"], len(traj))
        assert len(traj) >= (1000 if wanted is not None and len(wanted) == 1000 else 8)


# ---------------------------------------------------------------------------
# the closed-form entry points take any snapshot_times and geodesic parameters
# and either run or raise an MtvfError
# ---------------------------------------------------------------------------

_ELEMENT = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True), st.integers(-2 ** 70, 2 ** 70), st.booleans(),
    st.text(max_size=3), st.none(), st.lists(st.floats(-1.0, 2.0), max_size=2),
    st.sampled_from([0.0, 1e-15, 0.05, 0.05 + 1e-15, 0.1, 4.0, 4.0 + 1e-13]))
_SNAPSHOT_TIMES = st.one_of(
    st.none(), st.text(max_size=4), st.integers(-2 ** 70, 2 ** 70), st.booleans(),
    st.floats(allow_nan=True, allow_infinity=True), st.lists(_ELEMENT, max_size=6),
    # unsorted, duplicated, outside [0, t_max], as lists and as arrays
    st.lists(st.sampled_from([-0.1, 0.0, 0.05, 0.05 + 1e-15, 0.05 - 1e-15, 0.3, 2.0, 4.0, 9.0]),
             max_size=10),
    st.lists(st.floats(-1.0, 6.0), max_size=10).map(np.array),
    st.lists(st.lists(st.floats(0.0, 1.0), max_size=3), max_size=3))
# geodesic parameters at, inside and just outside the 1e-12 slack around [0, 1]
_PARAMETER = st.sampled_from([
    0.0, 1.0, 0.5, -5e-13, 1.0 + 5e-13, -1e-12, 1.0 + 1e-12, np.nextafter(-1e-12, -1.0),
    np.nextafter(1.0 + 1e-12, 2.0), -1.0000001e-12, 1.0 + 1.0000001e-12, -1e-9, 1.0 + 1e-9])


@given(route=st.sampled_from(_ROUTES), wanted=_SNAPSHOT_TIMES,
       levels=st.lists(_PARAMETER, min_size=1, max_size=5), t_max=st.sampled_from([0.1, 4.0]))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_closed_form_entry_points_run_or_raise_an_mtvf_error(route, wanted, levels, t_max):
    bp = np.linspace(0.0, 1.0, len(levels) + 1)[1:-1]
    sigma = scalar_curve(bp, levels)
    try:
        if route == "scalar":
            traj = scalar_trajectory(run_scalar_tv(sigma, t_max), wanted)
        elif route == "geodesic":
            traj = flow_on_geodesic(SPH, P, Q, sigma, t_max, wanted)
        else:
            u0 = sigma if route == "euclidean:1" else PiecewiseConstantCurve(
                Circle(), bp, _circle_values(np.multiply(levels, 2.5)))
            traj = run_exact_pc(u0, t_max, snapshot_times=wanted)
    except MtvfError:
        return
    assert traj.times[0] == 0.0 and traj.times[-1] <= t_max
