"""Symmetries and chart lifts of the exact piecewise-constant flow.

Each test flows a random datum and a transformed copy of it and compares
the two at fixed times.  The transformations, the angle unwrapping and the
L2 gap are written here in plain numpy, so the oracles share no code with
the solver they check:

* a random isometry of the target commutes with the flow;
* the reflection x -> 1 - x (breakpoints and plateaus reversed) commutes
  with it;
* cylinder data lifted to (unwrapped angle, z) on euclidean:2 flow as on
  the cylinder, and circle data lifted to R flow as the scalar staircase
  of ``run_scalar_tv``.  The solver flows these two targets in that chart
  itself, so these lifts check its chart map, not the dynamics;
  ``tests/test_ode_oracle.py`` checks those against the embedded plateau ODE.

The reflection and the circle lift run once more with merge ahead switched
off, so that every merge waits for a guarded step to close its jump to
``_MERGE_TOL``.  The circle flows in closed form and takes no steps, so the
guarded lift runs its angles on a great circle of sphere:3.
"""
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mtvf.flows
from mtvf import (
    Euclidean,
    PiecewiseConstantCurve,
    parse_manifold,
    run_exact_pc,
    run_scalar_tv,
    scalar_curve,
)
from mtvf.synth import random_rad_curve

TARGETS = ("euclidean:2", "sphere:3", "circle", "cylinder")
SYMMETRY_TOL = 1e-12
LIFT_TOL = 1e-8
# twelve fixed comparison times spread over a quarter of the datum's jump
# sum, by which random data have stopped
TIME_FRACTIONS = np.arange(1, 13) / 12.0

CASES = settings(max_examples=6, derandomize=True, deadline=None, database=None)
# without merge ahead a run creeps toward each collision, several times slower
GUARDED_CASES = settings(max_examples=3, derandomize=True, deadline=None, database=None)
seeds = st.integers(0, 2**32 - 1)
jump_counts = st.integers(1, 5)


def _datum(name, seed, n_jumps):
    rng = np.random.Generator(np.random.Philox([seed, 0]))
    return random_rad_curve(parse_manifold(name), rng, n_jumps=n_jumps)


def _times(u0):
    t_max = 0.25 * float(np.sum(np.linalg.norm(np.diff(u0.values, axis=0), axis=1)))
    return t_max, t_max * TIME_FRACTIONS


def _flow(u0, t_max, times, merge_ahead=True):
    with pytest.MonkeyPatch.context() as patch:
        if not merge_ahead:
            patch.setattr(mtvf.flows, "_PAIR_JUMP", 0.0)
        return run_exact_pc(u0, t_max=t_max, snapshot_times=times)


@lru_cache(maxsize=None)
def _base_run(name, seed, n_jumps, merge_ahead=True):
    # shared by the isometry and reflection tests, which draw the same data
    u0 = _datum(name, seed, n_jumps)
    t_max, times = _times(u0)
    return u0, t_max, times, _flow(u0, t_max, times, merge_ahead)


def _state_at(traj, t):
    # (breakpoints, values) at a requested time; a stopped run keeps its
    # final constant state
    hits = np.nonzero(np.abs(traj.times - t) <= 1e-12)[0]
    if hits.size:
        snap = traj.snapshots[int(hits[0])]
    else:
        assert t > traj.times[-1] and traj.final_curve.num_jumps == 0, t
        snap = traj.final_curve
    return np.asarray(snap.breakpoints), np.asarray(snap.values)


def _l2_gap(bp_a, vals_a, bp_b, vals_b):
    # L2(0, 1) gap of two step functions in ambient coordinates; cells
    # narrower than 1e-12 are breakpoints that agree up to the rounding of
    # 1 - x and are skipped
    edges = np.unique(np.concatenate([[0.0, 1.0], bp_a, bp_b]))
    widths = np.diff(edges)
    mids = 0.5 * (edges[:-1] + edges[1:])
    diff = (vals_a[np.searchsorted(bp_a, mids, side="right")]
            - vals_b[np.searchsorted(bp_b, mids, side="right")])
    sq = np.sum(diff * diff, axis=1)
    return float(np.sqrt(np.sum(np.where(widths > 1e-12, widths * sq, 0.0))))


def _orthogonal(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def _isometry(name, rng):
    """A random isometry of the target as a map on (k, N) point arrays."""
    if name == "cylinder":
        rot = _orthogonal(rng, 2)
        flip = rng.choice([-1.0, 1.0])
        shift = rng.standard_normal()
        return lambda v: np.column_stack([v[:, :2] @ rot.T, flip * v[:, 2] + shift])
    n = parse_manifold(name).ambient_dim
    rot = _orthogonal(rng, n)
    shift = rng.standard_normal(n) if name.startswith("euclidean") else np.zeros(n)
    return lambda v: v @ rot.T + shift


def _unwrap(values):
    """Angles of points on the unit circle, each jump taken the short way."""
    theta = np.arctan2(values[:, 1], values[:, 0])
    step = np.arctan2(values[:-1, 0] * values[1:, 1] - values[:-1, 1] * values[1:, 0],
                      values[:-1, 0] * values[1:, 0] + values[:-1, 1] * values[1:, 1])
    return theta[0] + np.concatenate([[0.0], np.cumsum(step)])


def _on_circle(angles):
    return np.column_stack([np.cos(angles), np.sin(angles)])


@pytest.mark.parametrize("name", TARGETS)
@settings(CASES)
@given(seed=seeds, n_jumps=jump_counts)
def test_isometry_commutes_with_flow(name, seed, n_jumps):
    u0, t_max, times, base = _base_run(name, seed, n_jumps)
    move = _isometry(name, np.random.Generator(np.random.Philox([seed, 1])))
    moved = _flow(PiecewiseConstantCurve(u0.manifold, u0.breakpoints, move(u0.values)),
                  t_max, times)
    for t in times:
        bp_a, vals_a = _state_at(base, t)
        bp_b, vals_b = _state_at(moved, t)
        assert _l2_gap(bp_a, move(vals_a), bp_b, vals_b) <= SYMMETRY_TOL, t


def _check_reflection(name, seed, n_jumps, merge_ahead=True):
    u0, t_max, times, base = _base_run(name, seed, n_jumps, merge_ahead)
    mirror = PiecewiseConstantCurve(u0.manifold, 1.0 - u0.breakpoints[::-1], u0.values[::-1])
    mirrored = _flow(mirror, t_max, times, merge_ahead)
    for t in times:
        bp_a, vals_a = _state_at(base, t)
        bp_b, vals_b = _state_at(mirrored, t)
        assert _l2_gap(bp_a, vals_a, 1.0 - bp_b[::-1], vals_b[::-1]) <= SYMMETRY_TOL, t


@pytest.mark.parametrize("name", TARGETS)
@settings(CASES)
@given(seed=seeds, n_jumps=jump_counts)
def test_reflection_commutes_with_flow(name, seed, n_jumps):
    _check_reflection(name, seed, n_jumps)


@pytest.mark.parametrize("name", TARGETS)
@settings(GUARDED_CASES)
@given(seed=seeds, n_jumps=jump_counts)
def test_reflection_commutes_with_guarded_flow(name, seed, n_jumps):
    _check_reflection(name, seed, n_jumps, merge_ahead=False)


@settings(CASES)
@given(seed=seeds, n_jumps=jump_counts)
def test_cylinder_flows_as_its_angle_height_chart(seed, n_jumps):
    u0 = _datum("cylinder", seed, n_jumps)
    chart = np.column_stack([_unwrap(u0.values[:, :2]), u0.values[:, 2]])
    t_max, times = _times(u0)
    on_cylinder = _flow(u0, t_max, times)
    in_chart = _flow(PiecewiseConstantCurve(Euclidean(2), u0.breakpoints, chart), t_max, times)
    for t in times:
        bp_a, vals_a = _state_at(on_cylinder, t)
        bp_b, vals_b = _state_at(in_chart, t)
        back = np.column_stack([_on_circle(vals_b[:, 0]), vals_b[:, 1]])
        assert _l2_gap(bp_a, vals_a, bp_b, back) <= LIFT_TOL, t


def _check_circle_lift(seed, n_jumps, name="circle", merge_ahead=True):
    # on sphere:3 the circle's points lie on the great circle of its first
    # two coordinates, the third one 0
    u0 = _datum("circle", seed, n_jumps)
    t_max, times = _times(u0)
    pad = np.zeros((len(u0.values), parse_manifold(name).ambient_dim - 2))
    datum = PiecewiseConstantCurve(parse_manifold(name), u0.breakpoints,
                                   np.column_stack([u0.values, pad]))
    on_target = _flow(datum, t_max, times, merge_ahead)
    lifted = run_scalar_tv(scalar_curve(u0.breakpoints, _unwrap(u0.values)), t_max)
    for t in times:
        bp_a, vals_a = _state_at(on_target, t)
        bp_b, angles = lifted.state_at(t)
        back = np.column_stack([_on_circle(angles), np.zeros((len(angles), pad.shape[1]))])
        assert _l2_gap(bp_a, vals_a, bp_b, back) <= LIFT_TOL, t


@settings(CASES)
@given(seed=seeds, n_jumps=jump_counts)
def test_circle_flows_as_its_scalar_lift(seed, n_jumps):
    _check_circle_lift(seed, n_jumps)


@settings(GUARDED_CASES)
@given(seed=seeds, n_jumps=jump_counts)
def test_circle_flows_as_its_scalar_lift_when_guarded(seed, n_jumps):
    # a circle run takes no steps: its angles flow guarded as great-circle data
    # of sphere:3, which the solver steps in the embedding
    _check_circle_lift(seed, n_jumps, "sphere:3", merge_ahead=False)
