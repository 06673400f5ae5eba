"""Verifier checks: corruption sensitivity, guards, cross-solver table."""
import dataclasses

import numpy as np
import pytest

from mtvf import (
    ConfigError,
    Euclidean,
    FlowTrajectory,
    IncompatibleSnapshots,
    NotNPC,
    PiecewiseConstantCurve,
    SampledCurve,
    Sphere,
    WrongManifold,
    check_energy,
    check_monotone_variation,
    check_sphere_equivalence,
    check_variational_inequality,
    cross_solver_compare,
    detect_stopping,
    flow_on_geodesic,
    run_exact_pc,
    run_scalar_tv,
    scalar_curve,
    tv_measure,
)
from mtvf import flows
from mtvf.curves import mollify
from mtvf.flows import FlowConfig, run_regularized
from mtvf.synth import noisy_field, random_rad_curve, two_jump_sphere_example

EU1 = Euclidean(1)
EU2 = Euclidean(2)
SPH = Sphere(3)


def _sphere_run(seed=5, **kw):
    u0 = random_rad_curve(SPH, np.random.Generator(np.random.Philox([seed, 0])))
    return run_exact_pc(u0, t_max=4 * tv_measure(u0).total, **kw)


def _with_snapshot(traj, k, snap):
    """A copy of the run with snapshot k replaced: trajectories are frozen."""
    snaps = list(traj.snapshots)
    snaps[k] = snap
    return dataclasses.replace(traj, snapshots=snaps)


# ---------------------------------------------------------------------------
# corruption sensitivity: a verifier that cannot fail verifies nothing
# ---------------------------------------------------------------------------


def test_energy_check_passes_then_fails_after_corruption():
    traj = _sphere_run()
    assert check_energy(traj).passed
    traj = _with_snapshot(traj, len(traj) // 2, traj.snapshots[0])
    rep = check_energy(traj)
    assert not rep.passed
    assert rep.worst > 0


def test_monotone_check_flags_regrown_jump():
    traj = _sphere_run()
    assert check_monotone_variation(traj).passed
    k = next(i for i, s in enumerate(traj.snapshots)
             if s.num_jumps == traj.snapshots[0].num_jumps)
    last_same = max(i for i, s in enumerate(traj.snapshots)
                    if s.num_jumps == traj.snapshots[0].num_jumps)
    traj = _with_snapshot(traj, last_same, traj.snapshots[k])
    rep = check_monotone_variation(traj)
    assert not rep.passed


def test_monotone_check_rejects_grown_jump_set():
    traj = _sphere_run()
    richer = random_rad_curve(SPH, np.random.Generator(np.random.Philox([6, 0])), n_jumps=6)
    traj = _with_snapshot(traj, -1, richer)
    with pytest.raises(IncompatibleSnapshots):
        check_monotone_variation(traj)


def test_monotone_check_refuses_sampled_trajectory():
    # the grid solver's monotone quantity is the p-energy, not the per-face law
    w = noisy_field(EU2, grid_n=33, noise=0.05, seed=1)
    traj = run_regularized(w, FlowConfig(manifold=EU2, epsilon=1e-2, grid_n=33, t_max=0.01))
    with pytest.raises(IncompatibleSnapshots):
        check_monotone_variation(traj)


def test_monotone_check_rejects_mixed_snapshot_kinds():
    # a record that mixes step and sampled snapshots is refused when it is
    # built, so the monotone check reads the kind of one snapshot
    traj = _sphere_run()
    sampled = SampledCurve(SPH, traj.snapshots[0].eval_grid(np.linspace(0, 1, 33)))
    with pytest.raises(ConfigError, match="one kind and one manifold"):
        _with_snapshot(traj, -1, sampled)


def _swapped(times):
    times = times.copy()
    times[[1, 2]] = times[[2, 1]]
    return times


# case -> (a field of a valid record, what breaks its value, the refusal's message)
_BROKEN_RECORDS = {
    "swapped_times": ("times", _swapped, "strictly increasing"),
    "infinite_time": ("times", lambda t: np.append(t[:-1], np.inf), "finite and strictly"),
    "nan_dissipation": ("dissipation", lambda d: np.append(d[:-1], np.nan),
                        "dissipation values must be finite"),
    "short_dissipation": ("dissipation", lambda d: d[:-1], "one dissipation per snapshot"),
    "unknown_solver": ("solver", lambda _: "bogus", "unknown solver 'bogus'"),
    "epsilon_on_step_snapshots": ("epsilon", lambda _: 1e-3, "a pc trajectory cannot have"),
    "infinite_dt_nominal": ("dt_nominal", lambda _: np.inf, "not finite and at least 0"),
    "mixed_manifolds": ("snapshots", lambda s: [*s[:-1], scalar_curve([0.5], [0.0, 1.0])],
                        "one kind and one manifold"),
}


@pytest.mark.parametrize("case", sorted(_BROKEN_RECORDS))
def test_a_broken_record_is_refused_when_built(case):
    # the verifier's checks assume a time series; a record built in the
    # library is held to the rules a trajectory file is read by
    traj = _sphere_run()
    name, spoil, match = _BROKEN_RECORDS[case]
    with pytest.raises(ConfigError, match=match):
        dataclasses.replace(traj, **{name: spoil(getattr(traj, name))})


# ---------------------------------------------------------------------------
# geometry guards
# ---------------------------------------------------------------------------


def test_variational_inequality_requires_flat_geometry():
    traj = _sphere_run()
    v = PiecewiseConstantCurve(SPH, [0.5], np.array([[1.0, 0, 0], [0, 1.0, 0]]))
    with pytest.raises(NotNPC):
        check_variational_inequality(traj, v)


def test_variational_inequality_rejects_foreign_competitor():
    u0 = random_rad_curve(EU2, np.random.Generator(np.random.Philox([7, 0])))
    traj = run_exact_pc(u0, t_max=1.0)
    v = scalar_curve([0.5], [0.0, 1.0])
    with pytest.raises(WrongManifold):
        check_variational_inequality(traj, v)


def test_variational_inequality_passes_flat_run():
    u0 = random_rad_curve(EU2, np.random.Generator(np.random.Philox([8, 0])))
    traj = run_exact_pc(u0, t_max=4 * tv_measure(u0).total)
    mean = u0.plateau_lengths() @ u0.values
    v = PiecewiseConstantCurve(EU2, [0.5], np.stack([mean, mean + [0.1, 0.0]]))
    rep = check_variational_inequality(traj, v)
    assert rep.passed, rep


def test_sphere_equivalence_rejects_flat_run():
    u0 = random_rad_curve(EU2, np.random.Generator(np.random.Philox([9, 0])))
    traj = run_exact_pc(u0, t_max=0.2)
    with pytest.raises(WrongManifold):
        check_sphere_equivalence(traj)


def test_sphere_equivalence_passes_exact_run():
    traj = _sphere_run(seed=10, snapshot_every=5)
    rep = check_sphere_equivalence(traj)
    assert rep.passed, rep


def test_sphere_equivalence_constant_trajectory_is_exact():
    c = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
    u0 = PiecewiseConstantCurve(SPH, [0.5], c)
    traj = run_exact_pc(u0, t_max=0.1)
    rep = check_sphere_equivalence(traj)
    assert rep.passed
    assert rep.worst <= 1e-14


# ---------------------------------------------------------------------------
# grid trajectories
# ---------------------------------------------------------------------------


def _corrupted(traj, k, values):
    return _with_snapshot(traj, k, SampledCurve(traj.manifold, values))


def test_sphere_equivalence_grid_run_passes_then_fails_after_corruption():
    # the mollified cross-solver datum, as criterion 8 flows it
    u0 = two_jump_sphere_example()
    moll = mollify(u0, 401)
    traj = run_regularized(moll, FlowConfig(manifold=SPH, epsilon=1e-2, grid_n=401, t_max=0.2))
    rep = check_sphere_equivalence(traj)
    assert rep.passed, rep
    assert rep.tolerance == 1e-3 and rep.worst < 1e-4
    k = len(traj) // 2
    values = np.array(traj.snapshots[k].values)
    values[200] = traj.snapshots[0].values[100]  # one node sent elsewhere
    assert not check_sphere_equivalence(_corrupted(traj, k, values)).passed


def test_variational_inequality_grid_run_passes_then_fails_after_corruption():
    w = noisy_field(EU2, grid_n=201, noise=0.15, seed=0)
    traj = run_regularized(w, FlowConfig(manifold=EU2, epsilon=1e-2, grid_n=201, t_max=0.05))
    mean = w.values.mean(axis=0)
    v = PiecewiseConstantCurve(EU2, [0.5], np.stack([mean, mean + [0.1, 0.0]]))
    rep = check_variational_inequality(traj, v)
    assert rep.passed, rep
    assert rep.worst < 0
    # a last state carried away from the competitor grows the distance too fast
    far = traj.snapshots[-1].values + [1.0, 0.0]
    assert not check_variational_inequality(_corrupted(traj, len(traj) - 1, far), v).passed


# ---------------------------------------------------------------------------
# stopping detection
# ---------------------------------------------------------------------------


def test_detect_stopping_none_before_extinction():
    u0 = random_rad_curve(SPH, np.random.Generator(np.random.Philox([11, 0])))
    traj = run_exact_pc(u0, t_max=0.01)
    assert detect_stopping(traj) is None


def test_detect_stopping_reports_first_constant_time():
    u0 = scalar_curve([0.5], [-1.0, 1.0])
    traj = run_exact_pc(u0, t_max=2.0, snapshot_every=1)
    stop = detect_stopping(traj)
    assert stop is not None
    t_star, c = stop
    assert t_star == pytest.approx(0.5, abs=1e-8)
    assert c[0] == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# cross-solver comparison
# ---------------------------------------------------------------------------


def test_cross_solver_rows_and_pairings():
    u0 = scalar_curve([0.4], [0.0, 1.0])
    rows = cross_solver_compare(u0, [1e-2], [101])
    assert len(rows) == 1
    assert rows[0].epsilon == 1e-2 and rows[0].grid_n == 101
    assert 0 < rows[0].final_l2 <= rows[0].sup_l2 < 0.5

    zipped = cross_solver_compare(u0, [1e-2, 1e-2], [51, 101], pairing="zip")
    assert [r.grid_n for r in zipped] == [51, 101]
    with pytest.raises(Exception):
        cross_solver_compare(u0, [1e-2], [51, 101], pairing="zip")


def test_stopping_skips_a_flat_snapshot_the_run_moves_away_from():
    # the variation dips below 1e-10 at t = 1, but the state leaves that
    # constant at t = 2; the stop is the later constant at t = 3
    snaps = [scalar_curve([0.5], [0.0, 1.0]), scalar_curve([], [0.5]),
             scalar_curve([0.5], [0.4, 0.6]), scalar_curve([], [0.5])]
    traj = FlowTrajectory("exact_pc", np.arange(4.0), snaps, np.zeros(4), 1e-3)
    assert traj.tv[1] < 1e-10
    t_star, const = detect_stopping(traj)
    assert t_star == 3.0 and np.array_equal(const, [0.5])


def test_energy_and_stopping_measure_each_snapshot_once(monkeypatch):
    traj = _sphere_run()
    measured = []
    measure = flows.tv_measure
    monkeypatch.setattr(flows, "tv_measure", lambda c: measured.append(c) or measure(c))
    check_energy(traj)
    detect_stopping(traj)
    assert len(measured) == len(traj)


def test_solvers_refuse_the_other_curve_kind():
    step = scalar_curve([0.5], [0.0, 1.0])
    sampled = mollify(step, 33)
    with pytest.raises(ConfigError, match="needs a piecewise-constant curve"):
        run_exact_pc(sampled, t_max=0.1)
    with pytest.raises(ConfigError, match="needs a sampled curve"):
        run_regularized(step, FlowConfig(manifold=EU1, epsilon=0.1, grid_n=33, t_max=0.1))
    with pytest.raises(ConfigError, match="needs a piecewise-constant curve"):
        cross_solver_compare(sampled, [1e-2], [33])
    with pytest.raises(ConfigError, match="expects a step curve"):
        run_scalar_tv(sampled, 0.1)
    with pytest.raises(ConfigError, match="must be a step curve"):
        flow_on_geodesic(SPH, np.array([1.0, 0, 0]), np.array([0, 1.0, 0]), sampled, 0.1)


def test_cross_solver_refuses_an_unknown_pairing():
    with pytest.raises(ConfigError, match="unknown pairing"):
        cross_solver_compare(scalar_curve([0.4], [0.0, 1.0]), [1e-2], [51], pairing="bogus")
