"""Verifier checks: corruption sensitivity, guards, cross-solver table."""
import numpy as np
import pytest

from mtvf import (
    Euclidean,
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
    run_exact_pc,
    scalar_curve,
    tv_measure,
)
from mtvf.synth import random_rad_curve

EU1 = Euclidean(1)
EU2 = Euclidean(2)
SPH = Sphere(3)


def _sphere_run(seed=5, **kw):
    u0 = random_rad_curve(SPH, np.random.Generator(np.random.Philox([seed, 0])))
    return run_exact_pc(u0, t_max=4 * tv_measure(u0).total, **kw)


# ---------------------------------------------------------------------------
# corruption sensitivity: a verifier that cannot fail verifies nothing
# ---------------------------------------------------------------------------


def test_energy_check_passes_then_fails_after_corruption():
    traj = _sphere_run()
    assert check_energy(traj).passed
    traj.snapshots[len(traj) // 2] = traj.snapshots[0]
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
    traj.snapshots[last_same] = traj.snapshots[k]
    rep = check_monotone_variation(traj)
    assert not rep.passed


def test_monotone_check_rejects_grown_jump_set():
    traj = _sphere_run()
    richer = random_rad_curve(SPH, np.random.Generator(np.random.Philox([6, 0])), n_jumps=6)
    traj.snapshots[-1] = richer
    with pytest.raises(IncompatibleSnapshots):
        check_monotone_variation(traj)


def test_monotone_check_rejects_mixed_snapshot_kinds():
    traj = _sphere_run()
    traj.snapshots[-1] = SampledCurve(SPH, traj.snapshots[0].eval_grid(np.linspace(0, 1, 33)))
    with pytest.raises(IncompatibleSnapshots):
        check_monotone_variation(traj)


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
    rows = cross_solver_compare(u0, [1e-2], [101], n_times=9)
    assert len(rows) == 1
    assert rows[0].epsilon == 1e-2 and rows[0].grid_n == 101
    assert 0 < rows[0].final_l2 <= rows[0].sup_l2 < 0.5

    zipped = cross_solver_compare(u0, [1e-2, 1e-2], [51, 101], n_times=9, pairing="zip")
    assert [r.grid_n for r in zipped] == [51, 101]
    with pytest.raises(Exception):
        cross_solver_compare(u0, [1e-2], [51, 101], pairing="zip")
