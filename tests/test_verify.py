"""Verifier checks: corruption sensitivity, guards, cross-solver table."""
import dataclasses
import math

import numpy as np
import pytest

from mtvf import (
    CheckNotApplicable,
    ConfigError,
    Euclidean,
    FlowTrajectory,
    PiecewiseConstantCurve,
    SampledCurve,
    Sphere,
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


def _sphere_run(seed=5):
    u0 = random_rad_curve(SPH, np.random.Generator(np.random.Philox([seed, 0])))
    return run_exact_pc(u0, t_max=4 * tv_measure(u0).total)


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
    with pytest.raises(CheckNotApplicable, match="jump set grew at t="):
        check_monotone_variation(traj)


def test_monotone_check_refuses_sampled_trajectory():
    # the grid solver's monotone quantity is the p-energy, not the per-face law
    w = noisy_field(EU2, grid_n=33, noise=0.05, seed=1)
    traj = run_regularized(w, FlowConfig(manifold=EU2, epsilon=1e-2, grid_n=33, t_max=0.01))
    with pytest.raises(CheckNotApplicable, match="monotone check needs piecewise-constant"):
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
    with pytest.raises(CheckNotApplicable, match="sphere:3 is not complete with nonpositive"):
        check_variational_inequality(traj, v)


def test_variational_inequality_rejects_foreign_competitor():
    u0 = random_rad_curve(EU2, np.random.Generator(np.random.Philox([7, 0])))
    traj = run_exact_pc(u0, t_max=1.0)
    v = scalar_curve([0.5], [0.0, 1.0])
    with pytest.raises(CheckNotApplicable, match="competitor lives on a different manifold"):
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
    with pytest.raises(CheckNotApplicable, match="sphere identities require sphere or circle"):
        check_sphere_equivalence(traj)


def test_sphere_equivalence_passes_exact_run(cadence):
    cadence(5)
    traj = _sphere_run(seed=10)
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


def test_detect_stopping_reports_first_constant_time(cadence, x_axis):
    cadence(1)
    u0 = x_axis(scalar_curve([0.5], [-1.0, 1.0]))
    traj = run_exact_pc(u0, t_max=2.0)
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
    # the one entry point: the exact solver's refusal also says what to set
    for curve, config, message in [
        (sampled, FlowConfig(EU1, t_max=0.1), "needs a piecewise-constant curve.*set epsilon"),
        (step, FlowConfig(EU1, epsilon=0.1, t_max=0.1), "set grid_n"),
        (step, FlowConfig(EU2, t_max=0.1), "lives on euclidean:1, config says euclidean:2"),
        (sampled, FlowConfig(EU1, epsilon=0.1, grid_n=17, t_max=0.1),
         "grid_n = 17 but the datum has 33 nodes"),
    ]:
        with pytest.raises(ConfigError, match=message):
            flows.flow(curve, config)
    with pytest.raises(ConfigError, match="expects a step curve"):
        run_scalar_tv(sampled, 0.1)
    with pytest.raises(ConfigError, match="must be a step curve"):
        flow_on_geodesic(SPH, np.array([1.0, 0, 0]), np.array([0, 1.0, 0]), sampled, 0.1)


def test_cross_solver_refuses_an_unknown_pairing():
    with pytest.raises(ConfigError, match="unknown pairing"):
        cross_solver_compare(scalar_curve([0.4], [0.0, 1.0]), [1e-2], [51], pairing="bogus")


# ---------------------------------------------------------------------------
# the rise rules against plain loops that share no code with the verifier
# ---------------------------------------------------------------------------


def _energy_reference(traj):
    """(worst, location) of ``check_energy``: each snapshot's energy over the
    smallest one before it, by a running minimum; the first snapshot rises
    by 0, and the first largest rise is reported."""
    energy = [float(tv) + float(d) for tv, d in zip(traj.tv, traj.dissipation)]
    worst, at, low = 0.0, 0, energy[0]
    for k in range(1, len(energy)):
        if energy[k] - low > worst:
            worst, at = energy[k] - low, k
        low = min(low, energy[k])
    return worst, (float(traj.times[at]),)


def _monotone_reference(traj):
    """(worst, location) of ``check_monotone_variation``: each jump's size
    over its smallest earlier size, skipping snapshots where it has merged,
    then each dyadic interval's mass over its smallest earlier mass, the
    masses summed jump by jump in breakpoint order.  The first largest rise
    in time-then-place order is reported; a dyadic rise replaces a jump's
    only if it is larger."""
    man = traj.manifold
    xs = [float(x) for x in traj.snapshots[0].breakpoints]
    sizes = []  # per snapshot, {breakpoint: jump size} of the jumps still there
    for snap in traj.snapshots:
        d = man.dist(snap.values[:-1], snap.values[1:]) if snap.num_jumps else []
        sizes.append({float(x): float(s) for x, s in zip(snap.breakpoints, np.atleast_1d(d))})
    worst, where, low = -np.inf, (), {}
    for k, row in enumerate(sizes):
        for x in xs:
            if x not in row:
                continue
            if x in low and row[x] - low[x] > worst:
                worst, where = row[x] - low[x], (float(traj.times[k]), x)
            low[x] = min(low.get(x, np.inf), row[x])
    cells = []  # per snapshot, (mass, interval) of every dyadic interval of levels 0 to 6
    for row in sizes:
        cells.append([])
        for level in range(7):
            m = 2 ** level
            mass = [0.0] * m
            for x in xs:
                if x in row:
                    mass[math.floor(x * m)] += row[x]
            cells[-1] += [(mass[i], (i / m, (i + 1) / m)) for i in range(m)]
    mass_worst, mass_where = -np.inf, ()
    low_mass = [mass for mass, _ in cells[0]]
    for k in range(1, len(cells)):
        for c, (mass, interval) in enumerate(cells[k]):
            if mass - low_mass[c] > mass_worst:
                mass_worst, mass_where = mass - low_mass[c], (float(traj.times[k]), interval)
            low_mass[c] = min(low_mass[c], mass)
    if mass_worst > worst:
        worst, where = mass_worst, mass_where
    worst = float(worst) if np.isfinite(worst) else 0.0
    return worst, where if worst > 0 else ()


def _hand_built(rows, dissipation):
    """A step-curve record on euclidean:1 at times 0, 1, 2, ...: one
    (breakpoints, values) row per snapshot."""
    snaps = [scalar_curve(bp, vals) for bp, vals in rows]
    return FlowTrajectory("exact_pc", np.arange(float(len(rows))), snaps,
                          np.array(dissipation, dtype=float), 1e-3)


_STEADY = ([0.25, 0.75], [0.0, 1.0, 2.0])
_HAND_BUILT = {
    # one snapshot: nothing rises, and the energy reports the first one
    "single": ([_STEADY], [0.0]),
    # every size and the energy fall: nothing grows
    "falling": ([_STEADY, ([0.25, 0.75], [0.0, 0.75, 1.25]), ([0.25, 0.75], [0.5, 0.75, 1.0])],
                [0.0, 0.25, 0.5]),
    # both jumps, both halves and the energy rise at the first snapshot after the input
    "rise_first": ([_STEADY, ([0.25, 0.75], [0.0, 1.5, 3.0]), _STEADY], [0.0, 0.0, 0.5]),
    # a rise at the last snapshot, of one jump and by as much of the intervals holding it
    "rise_last": ([_STEADY, ([0.25, 0.75], [0.0, 0.5, 1.0]), ([0.25, 0.75], [0.0, 0.5, 1.25])],
                  [0.0, 1.0, 1.0]),
    # four jumps rise by 0.5, two at each time, and the energy by 1 at both
    # times; each jump shares its finest interval with one that falls by as
    # much, so that no interval rises
    "ties": ([([0.25, 0.26, 0.75, 0.76], [0.0, 1.0, 2.0, 3.0, 4.0]),
              ([0.25, 0.26, 0.75, 0.76], [0.0, 1.5, 2.0, 3.5, 4.0]),
              ([0.25, 0.26, 0.75, 0.76], [0.0, 1.0, 2.0, 3.0, 4.0])], [0.0, 1.0, 1.0]),
    # the jump at 0.25 merges and comes back larger, and its rise over its
    # size before the merge is the largest; the intervals holding it rise by
    # as much, and then the jumps at 0.25 and 0.26 merge for good
    "merged": ([([0.25, 0.26, 0.75], [0.0, 1.0, 2.0, 3.0]), ([0.26, 0.75], [0.0, 1.25, 2.25]),
                ([0.25, 0.26, 0.75], [0.0, 1.5, 1.75, 2.75]), ([0.75], [0.0, 0.5])],
               [0.0, 0.5, 0.5, 3.0]),
}


def _euclidean_run():
    u0 = random_rad_curve(EU2, np.random.Generator(np.random.Philox([8, 0])))
    return run_exact_pc(u0, t_max=4 * tv_measure(u0).total)


def _reset_middle(traj):
    # the middle snapshot set back to the input, so that both checks see a rise
    return _with_snapshot(traj, len(traj) // 2, traj.snapshots[0])


_REFERENCE_RUNS = {
    "sphere_5": lambda: _sphere_run(5),
    "sphere_10": lambda: _sphere_run(10),
    "euclidean": _euclidean_run,
    "sphere_5_reset": lambda: _reset_middle(_sphere_run(5)),
    **{case: (lambda data=data: _hand_built(*data)) for case, data in _HAND_BUILT.items()},
}


@pytest.mark.parametrize("case", sorted(_REFERENCE_RUNS))
def test_rise_rules_match_plain_loops(case):
    traj = _REFERENCE_RUNS[case]()
    for check, reference in ((check_energy, _energy_reference),
                             (check_monotone_variation, _monotone_reference)):
        report = check(traj)
        # repr tells every double apart, the sign of a zero included
        assert repr((report.worst, report.location)) == repr(reference(traj)), check.__name__
