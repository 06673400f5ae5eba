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
"""
import numpy as np
import pytest
from scipy.integrate import solve_ivp

import mtvf.flows
from mtvf import Euclidean, PiecewiseConstantCurve, l2_distance, run_exact_pc
from mtvf.synth import noisy_field

DATA = {
    # breakpoints, plateau values, tolerance on the values, on the dissipation
    "three": ([0.35, 0.6], [[0.0, 0.0], [6e-4, 5e-4], [0.5, 0.3]], 1e-10, 1e-10),
    "four": ([0.25, 0.5, 0.8], [[0.0, 0.0], [0.4, 0.1], [0.3997, 0.1007], [0.9, -0.2]], 1e-8, 3e-8),
}
PAIR_TOL = 1e-11


def _plateau_ode(lengths, n):
    def rhs(t, y):
        u = y[:-1].reshape(n, 2)
        jumps = np.diff(u, axis=0)
        unit = jumps / np.linalg.norm(jumps, axis=1)[:, None]
        v = np.zeros_like(u)
        v[:-1] += unit
        v[1:] -= unit
        v /= lengths[:, None]
        return np.append(v.ravel(), lengths @ np.sum(v * v, axis=1))

    return rhs


def _first_merge_time(rhs, y0):
    def gap(t, y):
        return np.min(np.linalg.norm(np.diff(y[:-1].reshape(-1, 2), axis=0), axis=1)) - 1e-7

    gap.terminal = True
    return solve_ivp(rhs, (0.0, 1.0), y0, rtol=1e-12, atol=1e-15, events=gap).t_events[0][0]


@pytest.mark.parametrize("pair_steps", [True, False], ids=["pair", "guarded"])
@pytest.mark.parametrize("name", sorted(DATA))
def test_state_and_dissipation_match_the_plateau_ode(name, pair_steps, monkeypatch):
    breakpoints, values, state_tol, diss_tol = DATA[name]
    values = np.array(values)
    lengths = np.diff(np.concatenate([[0.0], breakpoints, [1.0]]))
    rhs = _plateau_ode(lengths, len(values))
    y0 = np.append(values.ravel(), 0.0)
    first = _first_merge_time(rhs, y0)
    t_end = 0.9 * first
    ref = solve_ivp(rhs, (0.0, t_end), y0, rtol=1e-12, atol=1e-15).y[:, -1]

    if pair_steps:
        state_tol = diss_tol = PAIR_TOL
    else:
        monkeypatch.setattr(mtvf.flows, "_PAIR_JUMP", 0.0)
    u0 = PiecewiseConstantCurve(Euclidean(2), breakpoints, values)
    traj = run_exact_pc(u0, t_max=2.0 * first, snapshot_times=[t_end])
    k = traj.index_at(t_end)
    assert traj.times[k] == t_end and traj.snapshots[k].num_jumps == len(values) - 1
    assert np.max(np.abs(traj.snapshots[k].values - ref[:-1].reshape(-1, 2))) <= state_tol
    assert abs(traj.dissipation[k] - ref[-1]) <= diss_tol


# the 33-cell view of a noisy euclidean:2 field: its nodes as plateaus, with
# breakpoints halfway between them
CELL_BREAKPOINTS = (np.arange(32) + 0.5) / 32
CELL_TIMES = [0.005, 0.01, 0.015, 0.02]
# the solver's worst gap to the reference, measured as 7.26e-9
CELL_TOL = 1e-8


def _merged_reference(breakpoints, values, times):
    """Plateau states at the given increasing times: DOP853 on the plateau
    ODE until a jump closes to 1e-8, then that pair merged at its
    length-weighted centre and the integration restarted."""
    def closing(t, y):
        return np.min(np.linalg.norm(np.diff(y[:-1].reshape(-1, 2), axis=0), axis=1)) - 1e-8

    closing.terminal, closing.direction = True, -1
    breakpoints, values, t, states = list(breakpoints), np.array(values), 0.0, []
    while True:
        lengths = np.diff(np.concatenate([[0.0], breakpoints, [1.0]]))
        wanted = times[len(states):]
        sol = solve_ivp(_plateau_ode(lengths, len(values)), (t, wanted[-1]),
                        np.append(values.ravel(), 0.0), method="DOP853", t_eval=wanted,
                        rtol=1e-11, atol=1e-14, events=closing)
        states += [PiecewiseConstantCurve(Euclidean(2), breakpoints, sol.y[:-1, j].reshape(-1, 2))
                   for j in range(len(sol.t))]
        if sol.status == 0:
            return states
        assert sol.status == 1, sol.message
        # the closed jump sits at 1e-8 to rounding, so it is found by size
        t, values = sol.t_events[0][0], sol.y_events[0][0][:-1].reshape(-1, 2)
        k = int(np.argmin(np.linalg.norm(np.diff(values, axis=0), axis=1)))
        pair = lengths[k:k + 2]
        values = np.vstack([values[:k], pair @ values[k:k + 2] / pair.sum(), values[k + 2:]])
        del breakpoints[k]


def test_many_plateaus_through_merges_match_the_plateau_ode():
    values = noisy_field("euclidean:2", 33, noise=0.15, seed=0).values
    u0 = PiecewiseConstantCurve(Euclidean(2), CELL_BREAKPOINTS, values)
    traj = run_exact_pc(u0, t_max=CELL_TIMES[-1], snapshot_times=CELL_TIMES)
    reference = _merged_reference(CELL_BREAKPOINTS, values, CELL_TIMES)
    assert len(reference[-1].values) < len(values)  # the run merges
    for t, ref in zip(CELL_TIMES, reference):
        k = traj.index_at(t)
        assert traj.times[k] == t and traj.snapshots[k].num_jumps == ref.num_jumps, t
        assert l2_distance(traj.snapshots[k], ref) <= CELL_TOL, t
