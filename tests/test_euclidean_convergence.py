"""Finite-time convergence of the exact flow on euclidean:N.

On L2(0,1; R^N) the variation is convex, 1-homogeneous and blind to added
constants, so the flow conserves the mean ubar = int u, and
d/dt 1/2 |u - ubar|^2 = -TV(u).  Minkowski's inequality over the jump
measure gives |u - ubar|_2 <= int sqrt(s (1 - s)) d|Du|(s) <= TV(u) / 2, so
|u(t) - ubar|_2 falls at a rate of at least 2 and the flow is constant by
T* <= |u0 - ubar|_2 / 2.

Each of the 20 euclidean:2 data of ``synth.suite(seed=7)`` is flowed to
1.2 |u0 - ubar|_2 and compared at 48 requested times only, since a run given
``snapshot_times`` also records its merges.  The mean and the L2 distance
are written here in plain numpy, so the oracle shares no code with the
solver.  Measured: extinction at most 0.9999932 of the bound, the slowest
fall 2.0000137 and the mean drift at most 6.0e-15.  The bound and the rate
are therefore asserted as the theorem states them, and the drift against
1e-13.

The flow is also an L2 contraction there: the subdifferential of a convex
functional is monotone, so two solutions never move apart.  Pairs of
``random_rad_curve`` data on euclidean:2 and euclidean:3 are flowed to half
the smaller TV and compared at 40 requested times, each run's final state
standing in once it has stopped.  Measured on 200 pairs per target: the
distance never rose, and its smallest nonzero change was a fall of 2.2e-8,
so a rise is asserted against 1e-12, which admits rounding alone.  With
plateau lengths reversed in the solver's ``measure()`` it rose by up to 0.17
on 40 pairs per target, and this test fails on both targets.

On the circle and the cylinder, flat but not simply connected, near pairs
are compared the same way: b keeps a's breakpoints and moves each plateau
by 1e-2 along a ``random_direction``, and both are flowed to half the
smaller TV.  Measured on 20 pairs per target: none rose, and the largest
change was a rise of 4.6e-16 (circle; 3.5e-15 before the circle
flowed in its angle chart) and 0 (cylinder), so the same 1e-12
applies.  Eight pairs per target run here, about 2 s in all; the cylinder
pair of seed 18 alone takes about 6 s, so the seeds stop short of it.  With
plateau lengths reversed in ``measure()``, 7 of the 8 cylinder cases fail;
the circle flows in closed form and reads no ``measure()``.

The same identities hold on the circle and the cylinder in their angle
chart, which is an isometry on every jump below pi (Andreu, Ballester,
Caselles and Mazon, Differential Integral Equations 14, 2001, for finite
extinction of the TV flow).  The 60 flat-target data of ``synth.suite(seed=7)``
are flowed as acceptance criterion 11 flows them, to 4 TV(u0), and each
must be constant by |u0 - ubar|_2 / 2 <= TV(u0) / 4 at ubar, with the chart,
its mean and its L2 distance in plain numpy.  Measured: extinction at most
1 - 6.8e-6 (euclidean:2), 1 - 4.3e-3 (circle) and 1 - 1.4e-3 (cylinder) of
the bound, the same before the solver flowed these targets in their chart;
the constant within 8.0e-15, 4.4e-16 and 1.2e-14 of ubar (3.7e-11 and
2.1e-10 on the circle and cylinder before), so it is asserted against the
euclidean drift bound.

The identity itself is bracketed at every recorded time: TV does not rise, so
int_0^t_k TV lies between the right and the left Riemann sums of TV over the
record.  The 20 euclidean:2 suite data and 20 euclidean:1 staircases (flowed
in closed form) are flowed to the extinction bound |u0 - ubar|_2 / 2 with 200
requested times, fine enough that a 1 % fault in the speeds leaves the
bracket (velocities scaled by 1.01 fall 4.3e-4 outside it on euclidean:2,
scalar speeds scaled by 0.99 1.6e-3 on euclidean:1).  Measured, no snapshot
fell outside; the closest were 2.6e-7 and 5.9e-7 inside, so only rounding
(1e-12) is allowed.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtvf import PiecewiseConstantCurve, detect_stopping, parse_manifold, run_exact_pc
from mtvf.synth import random_rad_curve, suite

SUITE = suite(seed=7)
DATA = SUITE["euclidean:2"]
TIMES = np.arange(1, 49) / 48.0  # fractions of t_max
MEAN_TOL = 1e-13
PAIR_TIMES = np.arange(1, 41) / 40.0  # fractions of t_max
RISE_TOL = 1e-12


def _moments(breakpoints, values):
    """Mean and L2 distance to the mean of a step curve on [0, 1]."""
    lengths = np.diff(np.concatenate([[0.0], breakpoints, [1.0]]))
    mean = lengths @ values
    return mean, float(np.sqrt(lengths @ np.sum((values - mean) ** 2, axis=1)))


@pytest.mark.parametrize("index", range(len(DATA)))
def test_euclidean_flow_keeps_its_mean_and_stops_by_the_bound(index):
    u0 = DATA[index]
    mean0, gap0 = _moments(u0.breakpoints, u0.values)
    t_max = 1.2 * gap0
    times = t_max * TIMES
    traj = run_exact_pc(u0, t_max=t_max, snapshot_times=times)

    # a run stops when one plateau remains, which must come by gap0 / 2
    assert traj.final_curve.num_jumps == 0
    assert traj.times[-1] <= 0.5 * gap0

    gaps = [gap0]
    for t in times:
        hits = np.nonzero(np.abs(traj.times - t) <= 1e-12)[0]
        snap = traj.snapshots[hits[0]] if hits.size else traj.final_curve
        mean, gap = _moments(snap.breakpoints, snap.values)
        assert np.max(np.abs(mean - mean0)) <= MEAN_TOL
        gaps.append(gap)
    gaps, ts = np.array(gaps), np.concatenate([[0.0], times])
    # the fall between two requested times before extinction is at least 2
    live = gaps[1:] > 0.0
    falls = (gaps[:-1] - gaps[1:]) / np.diff(ts)
    assert live.any() and np.all(falls[live] >= 2.0)


def _chart(name, values):
    """Step values in the flat chart: as they are on euclidean:N; on the unit
    circle and cylinder the first value's angle, then each jump's wrapped
    angle added on, with the height kept on the cylinder."""
    if name.startswith("euclidean"):
        return values
    a, b = values[:-1], values[1:]
    turn = np.arctan2(a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0], a[:, 0] * b[:, 0] + a[:, 1] * b[:, 1])
    angle = np.arctan2(values[0, 1], values[0, 0]) + np.concatenate([[0.0], np.cumsum(turn)])
    return np.column_stack([angle, values[:, 2:]])


def _on_target(name, point):
    """A chart point back on the target."""
    if name.startswith("euclidean"):
        return point
    return np.concatenate([[np.cos(point[0]), np.sin(point[0])], point[1:]])


def _flat_tv(name, values):
    """Variation of a step curve on a flat target: its chart's chord lengths."""
    return float(np.sum(np.linalg.norm(np.diff(_chart(name, values), axis=0), axis=1)))


@pytest.mark.parametrize("name", ["euclidean:2", "circle", "cylinder"])
def test_flat_targets_stop_at_their_mean_by_half_the_l2_gap(name):
    for index, u0 in enumerate(SUITE[name]):
        tv0 = _flat_tv(name, u0.values)
        mean0, gap0 = _moments(u0.breakpoints, _chart(name, u0.values))
        stop = detect_stopping(run_exact_pc(u0, t_max=4.0 * tv0))
        assert stop is not None and stop[0] <= 0.5 * gap0 <= 0.25 * tv0, (index, stop, gap0, tv0)
        assert np.max(np.abs(stop[1] - _on_target(name, mean0))) <= MEAN_TOL, (index, stop)


# 20 staircases of 2 to 7 plateaus on euclidean:1, which the solver flows in
# closed form
LINE_RNG = np.random.Generator(np.random.Philox([11, 0]))
LINE_DATA = [random_rad_curve(parse_manifold("euclidean:1"), LINE_RNG,
                              n_jumps=int(LINE_RNG.integers(1, 7))) for _ in range(20)]
BRACKET_TIMES = np.arange(1, 201) / 200.0  # fractions of the extinction bound
BRACKET_TOL = 1e-12


@pytest.mark.parametrize("name", ["euclidean:1", "euclidean:2"])
def test_the_l2_identity_lies_between_the_riemann_sums_of_the_variation(name):
    # 1/2 |u(t_k) - ubar|^2 = 1/2 |u0 - ubar|^2 - int_0^t_k TV, and TV does not
    # rise, so the integral lies between the right and the left Riemann sums of
    # TV over the recorded times, 200 of them up to the bound |u0 - ubar|_2 / 2
    for index, u0 in enumerate(SUITE[name] if name in SUITE else LINE_DATA):
        times = 0.5 * _moments(u0.breakpoints, u0.values)[1] * BRACKET_TIMES
        traj = run_exact_pc(u0, t_max=times[-1], snapshot_times=times)
        # the mean is conserved (MEAN_TOL): each snapshot's own is ubar
        half_sq = np.array([0.5 * _moments(s.breakpoints, s.values)[1] ** 2
                            for s in traj.snapshots])
        tv = np.array([_flat_tv(name, s.values) for s in traj.snapshots])
        dt = np.diff(traj.times)
        left, right = np.cumsum(dt * tv[:-1]), np.cumsum(dt * tv[1:])
        assert np.all(half_sq[1:] >= half_sq[0] - left - BRACKET_TOL), index
        assert np.all(half_sq[1:] <= half_sq[0] - right + BRACKET_TOL), index


def _state_at(traj, t):
    """(breakpoints, values) at a requested time, or the final state once the
    run has stopped: a run given ``snapshot_times`` also records its merges,
    so two runs' snapshot lists do not line up."""
    hits = np.nonzero(np.abs(traj.times - t) <= 1e-12)[0]
    snap = traj.snapshots[hits[0]] if hits.size else traj.final_curve
    assert hits.size or snap.num_jumps == 0, t
    return snap.breakpoints, snap.values


def _l2_distance(bp_a, vals_a, bp_b, vals_b):
    """L2(0, 1) distance of two step curves, cell by cell of the joint partition."""
    edges = np.unique(np.concatenate([[0.0, 1.0], bp_a, bp_b]))
    mids = 0.5 * (edges[:-1] + edges[1:])
    diff = (vals_a[np.searchsorted(bp_a, mids, side="right")]
            - vals_b[np.searchsorted(bp_b, mids, side="right")])
    return float(np.sqrt(np.diff(edges) @ np.sum(diff * diff, axis=1)))


@pytest.mark.parametrize("name", ["euclidean:2", "euclidean:3"])
@settings(max_examples=20, derandomize=True, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_two_euclidean_flows_never_move_apart(name, seed):
    rng = np.random.Generator(np.random.Philox([seed, 0]))
    pair = [random_rad_curve(parse_manifold(name), rng) for _ in range(2)]
    t_max = 0.5 * min(float(np.sum(np.linalg.norm(np.diff(u.values, axis=0), axis=1)))
                      for u in pair)
    times = t_max * PAIR_TIMES
    runs = [run_exact_pc(u, t_max=t_max, snapshot_times=times) for u in pair]
    dist = [_l2_distance(pair[0].breakpoints, pair[0].values,
                         pair[1].breakpoints, pair[1].values)]
    dist += [_l2_distance(*_state_at(runs[0], t), *_state_at(runs[1], t)) for t in times]
    assert np.max(np.diff(dist)) <= RISE_TOL


NEAR_SHIFT = 1e-2


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("name", ["circle", "cylinder"])
def test_near_flows_on_flat_targets_never_move_apart(name, seed):
    man = parse_manifold(name)
    rng = np.random.Generator(np.random.Philox([seed, 0]))
    a = random_rad_curve(man, rng)
    moved = []
    for p in a.values:
        v, nv = man.random_direction(rng, p)
        moved.append(man.exp(p, (NEAR_SHIFT / nv) * v))
    pair = [a, PiecewiseConstantCurve(man, a.breakpoints, np.stack(moved))]
    t_max = 0.5 * min(_flat_tv(name, u.values) for u in pair)
    times = t_max * PAIR_TIMES
    runs = [run_exact_pc(u, t_max=t_max, snapshot_times=times) for u in pair]
    dist = [_l2_distance(a.breakpoints, a.values, pair[1].breakpoints, pair[1].values)]
    dist += [_l2_distance(*_state_at(runs[0], t), *_state_at(runs[1], t)) for t in times]
    assert np.max(np.diff(dist)) <= RISE_TOL
