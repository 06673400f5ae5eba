"""Exact scalar staircase flow: conservation, collisions, extinction."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtvf import (
    ConfigError,
    detect_stopping,
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
