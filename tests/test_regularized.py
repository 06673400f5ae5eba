"""Epsilon-regularized solver: schemes, energy decay, scalar agreement."""
import numpy as np
import pytest

from mtvf import (
    CflViolation,
    ConfigError,
    ConvexityRadiusExceeded,
    Euclidean,
    PiecewiseConstantCurve,
    SampledCurve,
    Sphere,
    check_energy,
    detect_stopping,
    scalar_curve,
)
from mtvf.curves import auto_ramp, mollify
from mtvf.flows import FlowConfig, run_regularized, run_scalar_tv
from mtvf.synth import random_rad_curve

EU = Euclidean(1)
SPH = Sphere(3)


def _p_energy(snap, eps, p):
    du = snap.manifold.dist(snap.values[:-1], snap.values[1:]) / snap.h
    return float(np.sum((eps**2 + du**2) ** (p / 2)) * snap.h)


def test_schemes_agree_at_matched_step():
    u0 = scalar_curve([0.3, 0.7], [0.0, 1.0, 0.4])
    moll = mollify(u0, 41, auto_ramp(u0, 41))
    explicit = run_regularized(
        moll, FlowConfig(manifold=EU, epsilon=1e-2, grid_n=41, t_max=0.05, scheme="explicit")
    )
    semi = run_regularized(
        moll,
        FlowConfig(
            manifold=EU,
            epsilon=1e-2,
            grid_n=41,
            t_max=0.05,
            scheme="semi_implicit",
            dt=10 * explicit.dt_nominal,
        ),
    )
    diff = float(np.max(np.abs(semi.final_curve.values - explicit.final_curve.values)))
    assert diff <= 1e-2  # measured 3.4e-3; both are O(dt) accurate


def test_explicit_oversized_step_raises():
    u0 = scalar_curve([0.5], [0.0, 1.0])
    moll = mollify(u0, 41, auto_ramp(u0, 41))
    cfg = FlowConfig(
        manifold=EU, epsilon=1e-2, grid_n=41, t_max=0.05, scheme="explicit", dt=1e-3
    )
    with pytest.raises(CflViolation):
        run_regularized(moll, cfg)


def test_flat_datum_stops_at_time_zero():
    flat = SampledCurve(EU, np.full((21, 1), 0.37))
    traj = run_regularized(flat, FlowConfig(manifold=EU, epsilon=1e-3, grid_n=21))
    assert len(traj) == 1
    assert traj.times[0] == 0.0
    assert bool(traj.stopped[-1])
    assert np.allclose(traj.final_curve.values, 0.37)


def test_rejects_grid_n_other_than_the_node_count():
    # the grid is the datum's: a config asking for another one is refused,
    # not run on the datum's nodes with a step set for grid_n
    field = SampledCurve(EU, np.linspace(0.0, 1.0, 33)[:, None])
    with pytest.raises(ConfigError, match="grid_n = 201"):
        run_regularized(field, FlowConfig(manifold=EU, epsilon=1e-2, grid_n=201, t_max=0.01))


def test_rejects_chord_at_twice_convexity_radius():
    vals = np.array([[1.0, 0, 0], [-1.0, 0, 0], [1.0, 0, 0]])
    u0 = SampledCurve(SPH, vals)
    with pytest.raises(ConvexityRadiusExceeded):
        run_regularized(u0, FlowConfig(manifold=SPH, epsilon=1e-3, grid_n=3))


@pytest.mark.parametrize("eps", [1e-8, 1e-3])
@pytest.mark.parametrize("p", [2, 4])
def test_p_energy_nonincreasing_semi_implicit(eps, p):
    u0 = random_rad_curve(SPH, np.random.Generator(np.random.Philox([31, 0])), n_jumps=3)
    sharp = SampledCurve(SPH, u0.eval_grid(np.linspace(0, 1, 81)))
    cfg = FlowConfig(manifold=SPH, epsilon=eps, grid_n=81, t_max=0.2, snapshot_every=1)
    traj = run_regularized(sharp, cfg)
    energies = np.array([_p_energy(s, eps, p) for s in traj.snapshots])
    assert np.max(np.diff(energies), initial=-np.inf) <= 1e-7


@pytest.mark.parametrize("p", [2, 4])
def test_p_energy_nonincreasing_explicit(p):
    u0 = scalar_curve([0.3, 0.7], [0.0, 1.0, 0.4])
    moll = mollify(u0, 41, auto_ramp(u0, 41))
    cfg = FlowConfig(
        manifold=EU, epsilon=1e-2, grid_n=41, t_max=5e-3, scheme="explicit", snapshot_every=1
    )
    traj = run_regularized(moll, cfg)
    energies = np.array([_p_energy(s, 1e-2, p) for s in traj.snapshots])
    assert np.max(np.diff(energies), initial=-np.inf) <= 1e-7


def test_matches_scalar_staircase_under_refinement():
    # compare against the event-driven scalar solver at plateau centers,
    # where the profile is flat and the O(sqrt(h)) width of the smeared
    # jumps does not pollute the reading
    datum = scalar_curve([0.25, 0.5, 0.75], [0.0, 0.7, 0.2, 0.9])
    oracle = run_scalar_tv(datum, 0.6)
    times = np.linspace(0.05, 0.55, 11)
    errs = []
    for n, eps in ((101, 2e-3), (201, 1e-3), (401, 5e-4)):
        moll = mollify(datum, n, auto_ramp(datum, n))
        cfg = FlowConfig(manifold=EU, epsilon=eps, grid_n=n, t_max=0.6)
        traj = run_regularized(moll, cfg, snapshot_times=times)
        sup = 0.0
        for t in times:
            snap = traj.snapshots[traj.index_at(t)]
            bp, vals = oracle.state_at(t)
            edges = np.concatenate([[0.0], bp, [1.0]])
            centers = 0.5 * (edges[:-1] + edges[1:])
            idx = np.rint(centers * (n - 1)).astype(int)
            sup = max(sup, float(np.max(np.abs(snap.values[idx, 0] - vals))))
        assert sup <= 12 * (eps + 1.0 / (n - 1))  # measured ratio ~0.72
        errs.append(sup)
    assert errs[0] > errs[1] > errs[2]


def test_single_jump_extinction_time_euclidean():
    u0 = scalar_curve([0.5], [-1.0, 1.0])
    moll = mollify(u0, 401, auto_ramp(u0, 401))
    cfg = FlowConfig(manifold=EU, epsilon=1e-3, grid_n=401, t_max=0.75, snapshot_every=1)
    traj = run_regularized(moll, cfg)
    stop = detect_stopping(traj)
    assert stop is not None
    assert abs(stop[0] - 0.5) / 0.5 <= 0.05  # measured 1.1%


def test_energy_balance_on_sphere_run():
    u0 = random_rad_curve(SPH, np.random.Generator(np.random.Philox([32, 0])))
    moll = mollify(u0, 201, auto_ramp(u0, 201))
    cfg = FlowConfig(manifold=SPH, epsilon=1e-3, grid_n=201, t_max=0.5)
    traj = run_regularized(moll, cfg)
    rep = check_energy(traj)
    assert rep.passed, rep


def test_requested_snapshot_times_are_hit():
    u0 = scalar_curve([0.5], [-1.0, 1.0])
    moll = mollify(u0, 101, auto_ramp(u0, 101))
    wanted = [0.05, 0.1, 0.2]
    cfg = FlowConfig(manifold=EU, epsilon=1e-3, grid_n=101, t_max=0.25)
    traj = run_regularized(moll, cfg, snapshot_times=wanted)
    for t in wanted:
        k = traj.index_at(t)
        assert abs(traj.times[k] - t) <= traj.dt_nominal


def test_repeated_snapshot_times_record_one_snapshot_each():
    # requested times closer than 1e-14 are one snapshot, reached by one step
    u0 = scalar_curve([0.5], [-1.0, 1.0])
    moll = mollify(u0, 101, auto_ramp(u0, 101))
    cfg = FlowConfig(manifold=EU, epsilon=1e-3, grid_n=101, t_max=0.03)
    traj = run_regularized(moll, cfg, snapshot_times=[0.01, 0.02, 0.01, 0.01 + 5e-15, 0.02])
    for t in (0.01, 0.02):
        assert np.sum(np.abs(traj.times - t) <= 1e-14) == 1
