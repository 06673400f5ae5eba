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
"""
import numpy as np
import pytest

from mtvf import run_exact_pc
from mtvf.synth import suite

DATA = suite(seed=7)["euclidean:2"]
TIMES = np.arange(1, 49) / 48.0  # fractions of t_max
MEAN_TOL = 1e-13


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
