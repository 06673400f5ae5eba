"""The exact solver against an independent integration of the plateau ODE.

On euclidean:2 the plateau values of a piecewise-constant datum follow
``u_i' = (e_i - e_{i-1}) / l_i`` with e_i the unit vector of jump i, and
the dissipation grows at ``sum_i l_i |u_i'|^2``.  Both are written here in
plain numpy and integrated by ``scipy.integrate.solve_ivp`` at rtol 1e-12,
sharing no code with the solver.  Each datum has one small isolated jump,
so the run ends inside its pair approach: 0.9 of the way to the first merge.

The tolerances are the errors of the solver before pair steps (merge ahead
below 1e-5), rounded up; they are never widened.  Measured there, with and
without merge ahead alike: state 6.7e-11 and 7.7e-9, dissipation 5.6e-11
and 2.6e-8 (three and four plateaus).  Pair steps must also come within
PAIR_TOL, ten times the reference's rtol: they measured at most 1.3e-12,
and a second-order pair step (one frozen flow of the stages' mean pull)
2.5e-10.

A many-plateau datum runs through merges: there the reference is scipy's
DOP853 on the same ODE, stopped when a jump closes to 1e-8, the pair merged
at its length-weighted centre, and restarted.  Only the states are compared,
in L2: the reference books no dissipation at a merge.

The circle and the cylinder get the same two checks in ambient coordinates,
on their embedded plateau ODE ``u_i' = (n(log_i u_{i+1}) + n(log_i u_{i-1})) / l_i``
with n(v) = v / |v|.  The log direction is P_i u_{i+1} (P_i = I - u_i u_i^T)
on the circle, and on the cylinder the wrapped angle step along e_theta
with the height step; both are written here, with nothing from
``mtvf.manifolds``.  The solver flows these targets in their angle chart
(closed form on the circle, euclidean:2 steps on the cylinder), so this is
the check of their dynamics that does not go through that chart.  DATA is
embedded at angle x (and height y); measured, the circle came within
1.5e-12 and the cylinder within DATA's and PAIR_TOL's bounds, as on
euclidean:2.

euclidean:1 data, which the solver flows in closed form by ``run_scalar_tv``,
go through the merged reference too: the 33-cell view of a noisy field and 20
random staircases run to extinction.  This is the check of that closed form
that shares no code with it; with its speeds scaled by 0.99 both tests fail.
"""
import numpy as np
import pytest
from scipy.integrate import solve_ivp

import mtvf.flows
from mtvf import PiecewiseConstantCurve, parse_manifold, run_exact_pc
from mtvf.synth import noisy_field

DATA = {
    # breakpoints, plateau values, tolerance on the values, on the dissipation
    "three": ([0.35, 0.6], [[0.0, 0.0], [6e-4, 5e-4], [0.5, 0.3]], 1e-10, 1e-10),
    "four": ([0.25, 0.5, 0.8], [[0.0, 0.0], [0.4, 0.1], [0.3997, 0.1007], [0.9, -0.2]], 1e-8, 3e-8),
}
PAIR_TOL = 1e-11


def _euclidean_log(p, q):
    return q - p


def _circle_log(p, q):
    # the tangent at p towards q, of length sin(angle): P_p q, with P_p = I - p p^T
    return q - np.sum(p * q, axis=1)[:, None] * p


def _cylinder_log(p, q):
    # the angle from p to q taken the short way, along e_theta = (-p_y, p_x, 0),
    # and the height step
    turn = np.arctan2(p[:, 0] * q[:, 1] - p[:, 1] * q[:, 0], p[:, 0] * q[:, 0] + p[:, 1] * q[:, 1])
    return np.column_stack([-turn * p[:, 1], turn * p[:, 0], q[:, 2] - p[:, 2]])


def _unit(v):
    return v / np.linalg.norm(v, axis=1)[:, None]


# per target: its dimension, the direction of its geodesic from p to q, and
# the nearest point of the target (the merge reference's centre goes there)
TARGETS = {
    "euclidean:1": (1, _euclidean_log, lambda v: v),
    "euclidean:2": (2, _euclidean_log, lambda v: v),
    "circle": (2, _circle_log, lambda v: v / np.linalg.norm(v)),
    "cylinder": (3, _cylinder_log, lambda v: np.append(v[:2] / np.linalg.norm(v[:2]), v[2])),
}


def _plateau_ode(lengths, n, log=_euclidean_log):
    """u_i' = (n(log_i u_{i+1}) + n(log_i u_{i-1})) / l_i, with n(v) = v / |v|,
    on the (n, dim) plateau values, and the dissipation rate as a last entry."""
    def rhs(t, y):
        u = y[:-1].reshape(n, -1)
        v = np.zeros_like(u)
        v[:-1] += _unit(log(u[:-1], u[1:]))
        v[1:] += _unit(log(u[1:], u[:-1]))
        v /= lengths[:, None]
        return np.append(v.ravel(), lengths @ np.sum(v * v, axis=1))

    return rhs


def _smallest_chord(y, dim):
    return np.min(np.linalg.norm(np.diff(y[:-1].reshape(-1, dim), axis=0), axis=1))


def _first_merge_time(rhs, y0, dim=2):
    def gap(t, y):
        return _smallest_chord(y, dim) - 1e-7

    gap.terminal = True
    return solve_ivp(rhs, (0.0, 1.0), y0, rtol=1e-12, atol=1e-15, events=gap).t_events[0][0]


def _embed(target, values):
    """DATA's (x, y) plateaus as given on euclidean:2, and on the circle and the
    cylinder at angle x, with height y on the cylinder."""
    if target == "euclidean:2":
        return values
    on_circle = np.column_stack([np.cos(values[:, 0]), np.sin(values[:, 0])])
    return on_circle if target == "circle" else np.column_stack([on_circle, values[:, 1]])


def _check_before_first_merge(target, name, state_tol, diss_tol):
    breakpoints = DATA[name][0]
    values = _embed(target, np.array(DATA[name][1]))
    dim, log, _ = TARGETS[target]
    lengths = np.diff(np.concatenate([[0.0], breakpoints, [1.0]]))
    rhs = _plateau_ode(lengths, len(values), log)
    y0 = np.append(values.ravel(), 0.0)
    first = _first_merge_time(rhs, y0, dim)
    t_end = 0.9 * first
    ref = solve_ivp(rhs, (0.0, t_end), y0, rtol=1e-12, atol=1e-15).y[:, -1]

    u0 = PiecewiseConstantCurve(parse_manifold(target), breakpoints, values)
    traj = run_exact_pc(u0, t_max=2.0 * first, snapshot_times=[t_end])
    k = traj.index_at(t_end)
    assert traj.times[k] == t_end and traj.snapshots[k].num_jumps == len(values) - 1
    assert np.max(np.abs(traj.snapshots[k].values - ref[:-1].reshape(-1, dim))) <= state_tol
    assert abs(traj.dissipation[k] - ref[-1]) <= diss_tol


def _step_tols(name, pair_steps, monkeypatch):
    """PAIR_TOL with pair steps; else DATA's bounds, with pair steps switched off."""
    if pair_steps:
        return PAIR_TOL, PAIR_TOL
    monkeypatch.setattr(mtvf.flows, "_PAIR_JUMP", 0.0)
    return DATA[name][2:]


@pytest.mark.parametrize("pair_steps", [True, False], ids=["pair", "guarded"])
@pytest.mark.parametrize("name", sorted(DATA))
def test_state_and_dissipation_match_the_plateau_ode(name, pair_steps, monkeypatch):
    _check_before_first_merge("euclidean:2", name, *_step_tols(name, pair_steps, monkeypatch))


@pytest.mark.parametrize("pair_steps", [True, False], ids=["pair", "guarded"])
@pytest.mark.parametrize("name", sorted(DATA))
def test_cylinder_matches_its_embedded_plateau_ode(name, pair_steps, monkeypatch):
    # the cylinder steps in its chart, where DATA is the euclidean:2 datum
    _check_before_first_merge("cylinder", name, *_step_tols(name, pair_steps, monkeypatch))


@pytest.mark.parametrize("name", sorted(DATA))
def test_circle_matches_its_embedded_plateau_ode(name):
    # the circle flows in closed form: within PAIR_TOL of the reference
    _check_before_first_merge("circle", name, PAIR_TOL, PAIR_TOL)


# the 33-cell view of a noisy euclidean:2 field: its nodes as plateaus, with
# breakpoints halfway between them
CELL_BREAKPOINTS = (np.arange(32) + 0.5) / 32
CELL_TIMES = [0.005, 0.01, 0.015, 0.02]
# the solver's worst gap to the reference, measured as 7.26e-9
CELL_TOL = 1e-8
# the same on the circle and the cylinder, measured as 9.8e-14 and 5.52e-8.
# The circle's is the reference's own: its merges at a chord of 1e-8 leave
# 1.1e-14 at 1e-9; the cylinder's stays at 5.52e-8 there
FLAT_CELL_TOLS = {"circle": 2e-13, "cylinder": 6e-8}


def _merged_reference(name, breakpoints, values, times):
    """(breakpoints, plateau values) at the given increasing times: DOP853 on
    the target's plateau ODE until a jump closes to a chord of 1e-8, then that
    pair merged at its length-weighted centre, put back on the target, and the
    integration restarted."""
    dim, log, project = TARGETS[name]

    def closing(t, y):
        return _smallest_chord(y, dim) - 1e-8

    closing.terminal, closing.direction = True, -1
    breakpoints, values, t, states = list(breakpoints), np.array(values), 0.0, []
    while True:
        lengths = np.diff(np.concatenate([[0.0], breakpoints, [1.0]]))
        wanted = times[len(states):]
        sol = solve_ivp(_plateau_ode(lengths, len(values), log), (t, wanted[-1]),
                        np.append(values.ravel(), 0.0), method="DOP853", t_eval=wanted,
                        rtol=1e-11, atol=1e-14, events=closing)
        states += [(np.array(breakpoints), sol.y[:-1, j].reshape(-1, dim))
                   for j in range(len(sol.t))]
        if sol.status == 0:
            return states
        assert sol.status == 1, sol.message
        # the closed jump sits at 1e-8 to rounding, so it is found by size
        t, values = sol.t_events[0][0], sol.y_events[0][0][:-1].reshape(-1, dim)
        k = int(np.argmin(np.linalg.norm(np.diff(values, axis=0), axis=1)))
        pair = lengths[k:k + 2]
        values = np.vstack([values[:k], project(pair @ values[k:k + 2] / pair.sum()),
                            values[k + 2:]])
        del breakpoints[k]
        if len(values) == 1:  # extinct: constant from here on
            return states + [(np.array(breakpoints), values)] * (len(times) - len(states))


def _l2_gap(bp_a, vals_a, bp_b, vals_b):
    """L2(0, 1) distance of two step curves in ambient coordinates, cell by
    cell of the joint partition."""
    edges = np.unique(np.concatenate([[0.0, 1.0], bp_a, bp_b]))
    mids = 0.5 * (edges[:-1] + edges[1:])
    diff = (vals_a[np.searchsorted(bp_a, mids, side="right")]
            - vals_b[np.searchsorted(bp_b, mids, side="right")])
    return float(np.sqrt(np.diff(edges) @ np.sum(diff * diff, axis=1)))


def _check_merges(name, breakpoints, values, times, tol):
    u0 = PiecewiseConstantCurve(parse_manifold(name), breakpoints, values)
    traj = run_exact_pc(u0, t_max=times[-1], snapshot_times=times)
    reference = _merged_reference(name, breakpoints, values, times)
    assert len(reference[-1][1]) < len(values)  # the run merges
    for t, (bp, ref) in zip(times, reference):
        k = traj.index_at(t)
        snap = traj.snapshots[k]
        assert traj.times[k] == t and snap.num_jumps == len(bp), t
        assert _l2_gap(snap.breakpoints, snap.values, bp, ref) <= tol, t


def _check_cells(name, tol):
    values = noisy_field(name, 33, noise=0.15, seed=0).values
    _check_merges(name, CELL_BREAKPOINTS, values, CELL_TIMES, tol)


def test_many_plateaus_through_merges_match_the_plateau_ode():
    _check_cells("euclidean:2", CELL_TOL)


@pytest.mark.parametrize("name", sorted(FLAT_CELL_TOLS))
def test_flat_targets_through_merges_match_their_embedded_plateau_ode(name):
    _check_cells(name, FLAT_CELL_TOLS[name])


# euclidean:1 data flow in closed form: the reference's speeds are constant
# between merges, and the pair it merges at a chord of 1e-8 has the centre the
# closed form merges at, so the gap is rounding, measured at most 6.6e-16 on
# the cells and on 20 staircases of 3 to 8 plateaus to extinction
LINE_TOL = 2e-15
LINE_TIMES = [0.01, 0.03, 0.1, 0.3, 0.6]


def test_line_cells_through_merges_match_the_plateau_ode():
    _check_cells("euclidean:1", LINE_TOL)


def test_line_staircases_to_extinction_match_the_plateau_ode():
    rng = np.random.Generator(np.random.Philox([5, 1]))
    for _ in range(20):
        m = int(rng.integers(3, 9))
        breakpoints = np.sort(rng.uniform(0.05, 0.95, m - 1))
        _check_merges("euclidean:1", breakpoints, rng.uniform(-1.0, 1.0, (m, 1)), LINE_TIMES,
                      LINE_TOL)
