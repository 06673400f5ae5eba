"""Epsilon-regularized solver: the step, energy decay, scalar agreement."""
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import scipy.linalg

from mtvf import (
    Circle,
    ConfigError,
    Cylinder,
    Euclidean,
    GeometryError,
    SampledCurve,
    SolverError,
    Sphere,
    check_energy,
    detect_stopping,
    scalar_curve,
)
from mtvf.cli import main
from mtvf.curves import chord_sizes, mollify, tv_measure
from mtvf.flows import (
    FlowConfig, _implicit_solve, _state_chords, _step_arrays, flow,
    run_exact_pc, run_regularized, run_scalar_tv, solve_banded,
)
from mtvf.io import write_curve
from mtvf.manifolds import parse_manifold
from mtvf.synth import _rng, noisy_field, random_rad_curve, suite

EU = Euclidean(1)
SPH = Sphere(3)


def _p_energy(snap, eps, p):
    du = snap.manifold.dist(snap.values[:-1], snap.values[1:]) / snap.h
    return float(np.sum((eps**2 + du**2) ** (p / 2)) * snap.h)


def test_flat_datum_stops_at_time_zero():
    flat = SampledCurve(EU, np.full((21, 1), 0.37))
    traj = run_regularized(flat, FlowConfig(manifold=EU, epsilon=1e-3, grid_n=21))
    assert len(traj) == 1
    assert traj.times[0] == 0.0
    # constant: the chord sum below the flat floor of a 21-node grid
    assert traj.tv[-1] < 1e-12
    assert np.allclose(traj.final_curve.values, 0.37)


def test_rejects_grid_n_other_than_the_node_count():
    # the grid is the datum's: a config asking for another one is refused,
    # not run on the datum's nodes with a step set for grid_n
    field = SampledCurve(EU, np.linspace(0.0, 1.0, 33)[:, None])
    with pytest.raises(ConfigError, match="grid_n = 201"):
        run_regularized(field, FlowConfig(manifold=EU, epsilon=1e-2, grid_n=201, t_max=0.01))


def test_unset_grid_n_runs_on_the_datum_grid():
    field = noisy_field(SPH, grid_n=33, noise=0.05, seed=1)
    unset = run_regularized(field, FlowConfig(manifold=SPH, epsilon=1e-2, t_max=0.01))
    given = run_regularized(field, FlowConfig(manifold=SPH, epsilon=1e-2, grid_n=33, t_max=0.01))
    assert np.array_equal(unset.times, given.times)
    assert all(np.array_equal(a.values, b.values)
               for a, b in zip(unset.snapshots, given.snapshots))


def test_rejects_a_config_without_epsilon():
    # no epsilon is the exact solver's config: FlowConfig has no default one
    field = SampledCurve(EU, np.linspace(0.0, 1.0, 33)[:, None])
    assert FlowConfig(manifold=EU).epsilon is None
    with pytest.raises(ConfigError, match="needs epsilon"):
        run_regularized(field, FlowConfig(manifold=EU, t_max=0.01))


def test_config_refuses_grid_n_without_epsilon():
    with pytest.raises(ConfigError, match="grid_n is read by the regularized solver only"):
        FlowConfig(manifold=EU, grid_n=33)


@pytest.mark.parametrize("field, value", [("grid_n", 33.5), ("grid_n", 33.0), ("grid_n", "33"),
                                          ("grid_n", True)])
def test_config_refuses_a_non_integer_count(field, value):
    # a float grid_n would reach np.linspace as a TypeError
    with pytest.raises(ConfigError, match=f"{field} must be an integer"):
        FlowConfig(manifold=SPH, epsilon=1e-2, **{field: value})


@pytest.mark.parametrize("make", [lambda n: mollify(scalar_curve([0.5], [0.0, 1.0]), n),
                                  lambda n: noisy_field("sphere:3", grid_n=n)],
                         ids=["mollify", "noisy_field"])
@pytest.mark.parametrize("value", [33.0, 33.5, "33", True], ids=repr)
def test_grid_builders_refuse_a_non_integer_grid_n(make, value):
    # by the rule FlowConfig's grid_n follows, not as np.linspace's TypeError
    with pytest.raises(ConfigError, match=re.escape(f"grid_n must be an integer, got {value!r}")):
        make(value)
    assert make(np.int64(33)).grid_n == 33


@pytest.mark.parametrize("make", [lambda seed: noisy_field("sphere:3", grid_n=9, seed=seed),
                                  lambda seed: suite(seed=seed, per_manifold=1)],
                         ids=["noisy_field", "suite"])
@pytest.mark.parametrize("seed", [1.5, np.float64(7.0), -1, True], ids=repr)
def test_synth_refuses_a_seed_that_is_no_philox_key(make, seed):
    # not truncated to another seed's data, nor Philox's bare ValueError
    rule = "non-negative" if seed == -1 else "an integer"
    with pytest.raises(ConfigError, match=re.escape(f"seed must be {rule}, got {seed!r}")):
        make(seed)


def test_config_takes_numpy_integer_counts_as_ints():
    cfg = FlowConfig(manifold=SPH, epsilon=1e-2, grid_n=np.int64(33))
    assert cfg.grid_n == 33 and type(cfg.grid_n) is int


@pytest.mark.parametrize("value", [np.float32(0.01), np.float64(0.01), np.int64(1), 1,
                                   Fraction(1, 64)], ids=repr)
@pytest.mark.parametrize("name", ["epsilon", "dt", "t_max"])
def test_config_stores_real_numbers_as_floats(name, value):
    # numpy scalars are real numbers too; a float32 kept as float32 would
    # run in float32 while config.txt records the double
    cfg = FlowConfig(manifold=SPH, **{"epsilon": 1e-2, name: value})
    assert type(getattr(cfg, name)) is float and getattr(cfg, name) == float(value)


def test_exact_runs_take_real_numbers_as_floats():
    u0 = scalar_curve([0.5], [0.0, 1.0])
    want = run_exact_pc(u0, t_max=float(np.float32(0.1)), dt=float(np.float32(1e-3)))
    got = run_exact_pc(u0, t_max=np.float32(0.1), dt=np.float32(1e-3))
    assert got.times.dtype == float and np.array_equal(got.times, want.times)
    assert run_scalar_tv(u0, np.float32(0.1)).segments[-1].t1 == float(np.float32(0.1))


def test_rejects_chord_at_twice_convexity_radius():
    vals = np.array([[1.0, 0, 0], [-1.0, 0, 0], [1.0, 0, 0]])
    u0 = SampledCurve(SPH, vals)
    with pytest.raises(GeometryError, match=r"chord of size 3\.14159 at x=0 reaches twice"):
        run_regularized(u0, FlowConfig(manifold=SPH, epsilon=1e-3, grid_n=3))


@pytest.mark.parametrize("eps", [1e-8, 1e-3])
@pytest.mark.parametrize("p", [2, 4])
def test_p_energy_nonincreasing_semi_implicit(cadence, eps, p):
    cadence(1)
    u0 = random_rad_curve(SPH, np.random.Generator(np.random.Philox([31, 0])), n_jumps=3)
    sharp = SampledCurve(SPH, u0.eval_grid(np.linspace(0, 1, 81)))
    cfg = FlowConfig(manifold=SPH, epsilon=eps, grid_n=81, t_max=0.2)
    traj = run_regularized(sharp, cfg)
    energies = np.array([_p_energy(s, eps, p) for s in traj.snapshots])
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
        moll = mollify(datum, n)
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


def test_single_jump_extinction_time_euclidean(cadence):
    cadence(1)
    u0 = scalar_curve([0.5], [-1.0, 1.0])
    moll = mollify(u0, 401)
    cfg = FlowConfig(manifold=EU, epsilon=1e-3, grid_n=401, t_max=0.75)
    traj = run_regularized(moll, cfg)
    stop = detect_stopping(traj)
    assert stop is not None
    assert abs(stop[0] - 0.5) / 0.5 <= 0.05  # measured 1.1%


def test_energy_balance_on_sphere_run():
    u0 = random_rad_curve(SPH, np.random.Generator(np.random.Philox([32, 0])))
    moll = mollify(u0, 201)
    cfg = FlowConfig(manifold=SPH, epsilon=1e-3, grid_n=201, t_max=0.5)
    traj = run_regularized(moll, cfg)
    rep = check_energy(traj)
    assert rep.passed, rep


def test_requested_snapshot_times_are_hit():
    u0 = scalar_curve([0.5], [-1.0, 1.0])
    moll = mollify(u0, 101)
    wanted = [0.05, 0.1, 0.2]
    cfg = FlowConfig(manifold=EU, epsilon=1e-3, grid_n=101, t_max=0.25)
    traj = run_regularized(moll, cfg, snapshot_times=wanted)
    for t in wanted:
        k = traj.index_at(t)
        assert abs(traj.times[k] - t) <= traj.dt_nominal


def test_repeated_snapshot_times_record_one_snapshot_each():
    # requested times closer than 1e-14 are one snapshot, reached by one step
    u0 = scalar_curve([0.5], [-1.0, 1.0])
    moll = mollify(u0, 101)
    cfg = FlowConfig(manifold=EU, epsilon=1e-3, grid_n=101, t_max=0.03)
    traj = run_regularized(moll, cfg, snapshot_times=[0.01, 0.02, 0.01, 0.01 + 5e-15, 0.02])
    for t in (0.01, 0.02):
        assert np.sum(np.abs(traj.times - t) <= 1e-14) == 1


TARGETS = ("sphere:3", "circle", "cylinder", "euclidean:2")


def _spd_tridiagonal(rng, n):
    # strictly diagonally dominant with a positive diagonal, as (I + g L_b) is
    off = -rng.uniform(0.0, 50.0, n - 1)
    diagonal = 1.0 + rng.uniform(0.0, 1.0, n)
    diagonal[:-1] -= off
    diagonal[1:] -= off
    return diagonal, off


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("nrhs", [1, 2, 3])
def test_solve_banded_matches_dense_solve(nrhs, order):
    rng = np.random.default_rng(10 * nrhs + (order == "F"))
    for n in (2, 3, 57):
        diagonal, off = _spd_tridiagonal(rng, n)
        rhs = np.array(rng.standard_normal((n, nrhs)), order=order)
        args = (diagonal.copy(), off.copy(), rhs.copy(order="K"))
        x = solve_banded(*args)
        dense = np.diag(diagonal) + np.diag(off, 1) + np.diag(off, -1)
        assert np.allclose(x, np.linalg.solve(dense, rhs), rtol=1e-12, atol=1e-14)
        # the caller's arrays are left as they were
        for before, after in zip((diagonal, off, rhs), args):
            assert np.array_equal(before, after)


def test_solve_banded_refuses_an_indefinite_system():
    diagonal = np.array([2.0, -1.0, 2.0])
    with pytest.raises(SolverError, match="info"):
        solve_banded(diagonal, np.array([0.5, 0.5]), np.ones((3, 2)))


def test_a_step_that_raises_the_variation_is_refused(monkeypatch, tmp_path, capsys):
    # no step of the real run raises the chord sum; a solve that reflects its
    # result about the right-hand side raises it on the first step
    monkeypatch.setattr("mtvf.flows.solve_banded",
                        lambda diagonal, off, rhs: 2.0 * rhs - solve_banded(diagonal, off, rhs))
    field = noisy_field("sphere:3", 33, noise=0.05, seed=1)
    with pytest.raises(SolverError, match=r"variation increased by .* in one step \(dt="):
        run_regularized(field, FlowConfig(SPH, epsilon=1e-2))
    curve_path, cfg = tmp_path / "field.csv", tmp_path / "run.cfg"
    write_curve(str(curve_path), field)
    cfg.write_text("manifold = sphere:3\nepsilon = 0.01\n")
    assert main(["flow", "--config", str(cfg), "--input", str(curve_path),
                 "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("error: variation increased")
    assert not (tmp_path / "out").exists()


def test_scipy_loads_with_the_first_grid_step():
    # only the grid solver's ?ptsv solve needs scipy: importing the package and
    # its CLI leaves it out, so exact-only commands start without it
    import mtvf

    code = (
        "import sys\n"
        "import mtvf, mtvf.cli\n"
        "assert 'scipy.linalg' not in sys.modules, 'loaded on import'\n"
        "from mtvf.flows import FlowConfig, run_regularized\n"
        "from mtvf.synth import noisy_field\n"
        "field = noisy_field('circle', grid_n=9, noise=0.05, seed=3)\n"
        "traj = run_regularized(field, FlowConfig(field.manifold, epsilon=0.1, t_max=1 / 32))\n"
        "assert len(traj) == 2, 'not one step'\n"
        "assert 'scipy.linalg' in sys.modules, 'not loaded by the step'\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(mtvf.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr


def _plain_lift(values):
    # circle or cylinder rows as (angle, z): arctan2 of the first point, then
    # each turn to the next row the short way by arctan2, summed in order
    turn = np.arctan2(values[:-1, 0] * values[1:, 1] - values[:-1, 1] * values[1:, 0],
                      np.sum(values[:-1, :2] * values[1:, :2], axis=1))
    angle = np.cumsum(np.concatenate(([math.atan2(values[0, 1], values[0, 0])], turn)))
    return np.column_stack([angle, values[:, 2:]])


def _plain_map_back(chart):
    angle = np.ascontiguousarray(chart[:, 0])
    return np.column_stack([np.cos(angle), np.sin(angle), chart[:, 1:]])


def _stepped(man, values):
    # (the manifold a grid run steps on, the datum there): circle and cylinder
    # data step as the euclidean:1 / euclidean:2 data of their (angle, z) lift
    if man.kind in ("circle", "cylinder"):
        chart = _plain_lift(values)
        return Euclidean(chart.shape[1]), chart
    return man, values


def _step(man, u, h, dt, eps):
    # one semi-implicit step into arrays of its own
    work, out = _step_arrays(*u.shape), np.empty_like(u)
    _state_chords(man, u, work, np.empty(len(u) - 1))
    _implicit_solve(man, u, h, dt, eps, out, work)
    return out


@pytest.mark.parametrize("spec", TARGETS)
def test_semi_implicit_step_matches_band_matrix_solve(spec):
    # the reference assembles the 3 x n band of (I + g L_b) and solves it by
    # the general banded LU, as the step did before it used ?ptsv
    man = parse_manifold(spec)
    man, u = _stepped(man, noisy_field(man, grid_n=201, noise=0.15, seed=5).values)
    h, eps = 1.0 / 200, 1e-2
    dt = h / 4
    du = (u[1:] - u[:-1]) / h
    gb = dt / (h * h) / np.sqrt(eps * eps + np.sum(du * du, axis=1))
    ab = np.zeros((3, u.shape[0]))
    ab[0, 1:] = ab[2, :-1] = -gb
    ab[1] = 1.0
    ab[1, :-1] += gb
    ab[1, 1:] += gb
    v = scipy.linalg.solve_banded((1, 1), ab, u)
    reference = man.project_point(u + man.tangent_projection(u, v - u))
    gap = float(np.max(np.abs(_step(man, u, h, dt, eps) - reference)))
    assert gap <= 1e-13


# the ids name the step under test
@pytest.mark.parametrize("spec", TARGETS, ids=[f"{spec}-semi_implicit" for spec in TARGETS])
def test_regularized_run_does_not_depend_on_memory_layout(spec):
    # every reduction of a step must give the same bits on a row-major and a
    # column-major state; 33 and 201 nodes take both paths of ``_dot``
    man = parse_manifold(spec)
    for grid_n in (33, 201):
        values = noisy_field(man, grid_n=grid_n, noise=0.15, seed=6).values
        h = 1.0 / (grid_n - 1)
        dt = h / 4
        grid, start = _stepped(man, values)
        c_step = _step(grid, np.ascontiguousarray(start), h, dt, 1e-2)
        f_step = _step(grid, np.asfortranarray(start), h, dt, 1e-2)
        assert np.array_equal(c_step, f_step)
        cfg = FlowConfig(manifold=man, epsilon=1e-2, grid_n=grid_n, t_max=8 * dt)
        runs = [run_regularized(SampledCurve(man, np.array(values, order=order)), cfg)
                for order in ("C", "F")]
        assert np.array_equal(runs[0].times, runs[1].times)
        assert np.array_equal(runs[0].dissipation, runs[1].dissipation)
        for a, b in zip(runs[0].snapshots, runs[1].snapshots):
            assert np.array_equal(a.values, b.values)


def _plain_solve(u, dt, eps):
    # the ?ptsv solve of a step from u, assembled from the plain formulas
    h = 1.0 / (len(u) - 1)
    d = u[1:] - u[:-1]
    gb = dt / (h * h) / np.sqrt(eps * eps + np.sum(d * d, axis=1) / (h * h))
    diagonal = np.ones(len(u))
    diagonal[:-1] += gb
    diagonal[1:] += gb
    return solve_banded(diagonal, -gb, u)


def _plain_grid_run(man, values, dt, eps, t_max, stops=()):
    # every state of a grid run as (t, cumulative dissipation, values): the
    # step written out from the plain formulas, solve_banded and the target's
    # _retract, one fresh array per result
    u = np.array(values)
    h = 1.0 / (len(u) - 1)
    flat_tol = max(1e-12, 1e-14 * (len(u) - 1))
    stops = list(stops)
    t, diss, tv = 0.0, 0.0, float(np.sum(man.dist(u[:-1], u[1:])))
    rows = [(t, diss, u)]
    while t < t_max - 1e-14 and tv >= flat_tol:
        dt_step = min(dt, (stops[0] if stops else t_max) - t)
        v = _plain_solve(u, dt_step, eps)
        new = np.empty_like(u)
        diss += h * man._retract(u, v, new) / dt_step
        tv = float(np.sum(man.dist(new[:-1], new[1:])))
        t += dt_step
        if stops and t >= stops[0] - 1e-14:
            stops.pop(0)
        u = new
        rows.append((t, diss, u))
    return rows


@pytest.mark.parametrize("spec", TARGETS)
def test_grid_run_is_the_plain_loop_bit_for_bit(cadence, spec):
    # the run's arrays, allocated once and reused by every step, change no
    # bit; 33 and 201 nodes take both paths of ``_dot``.  Circle and cylinder
    # data step as the euclidean:1 / euclidean:2 data of their (angle, z)
    # lift, and each recorded state is mapped back
    man = parse_manifold(spec)
    lifted = man.kind in ("circle", "cylinder")
    for grid_n in (33, 201):
        u0 = noisy_field(man, grid_n=grid_n, noise=0.15, seed=7)
        before = u0.values.copy()
        grid, start = _stepped(man, u0.values)
        dt = u0.h / 4
        asked = [2.5 * dt, 4 * dt, 7.25 * dt]
        # (config, cadence, requested times, the reference states the run records)
        cases = [
            # every 3rd of 10 steps, then the last
            (FlowConfig(man, epsilon=1e-2, t_max=10 * dt), 3, (), [0, 3, 6, 9, 10]),
            # steps end at dt, 2 dt, 2.5 dt, 3.5 dt, 4 dt, ..., 7 dt, 7.25 dt, 8 dt
            (FlowConfig(man, epsilon=1e-2, t_max=8 * dt), 10, asked, [0, 3, 5, 9, 10]),
            # long steps: every 10th (the default cadence), and the state goes
            # flat at the 13th, long before t_max, where the run stops
            (FlowConfig(man, epsilon=1.0, dt=1.0, t_max=40.0), 10, (), [0, 10, -1]),
        ]
        runs = []
        for _ in range(2):  # twice in one process: nothing of one run leaks into the next
            for cfg, every, stops, recorded in cases:
                cadence(every)
                step = dt if cfg.dt == "auto" else cfg.dt
                rows = _plain_grid_run(grid, start, step, cfg.epsilon, cfg.t_max, stops)
                traj = run_regularized(u0, cfg, snapshot_times=stops or None)
                want = [rows[k] for k in recorded]
                assert np.array_equal(traj.times, [t for t, _, _ in want])
                assert np.array_equal(traj.dissipation, [d for _, d, _ in want])
                assert len(traj) == len(want)
                for snap, (_, _, values) in zip(traj.snapshots[1:], want[1:]):
                    assert np.array_equal(snap.values, _plain_map_back(values) if lifted else values)
                runs.append(traj)
        assert rows[-1][0] < 40.0 and len(rows) > 11  # the flat exit
        assert np.array_equal(u0.values, before)
        # snapshot 0 is the datum itself; every later record is an array of its
        # own, so no work array of one step leaks into a record
        assert all(traj.snapshots[0] is u0 for traj in runs)
        snaps = [u0.values] + [s.values for traj in runs for s in traj.snapshots[1:]]
        for i, a in enumerate(snaps):
            assert not any(np.shares_memory(a, b) for b in snaps[i + 1:])


# the largest relative gap of a run's chords from chord_sizes on the fields
# below, 1.37e-11, rounded up; it is dist's: on circle's 10001-node field at
# noise 0.15, a chord of 1.4e-6 where dist's q - (p.q) p cancels, the closed
# form agrees with a 50-digit reference to the last digit
_SECANT_CHORD_RTOL = 2e-11


@pytest.mark.parametrize("spec", TARGETS)
def test_chords_from_face_slopes_are_the_geodesic_chords(spec):
    # the chords a run takes from its node differences are chord_sizes, which
    # tv_measure and the verifier take from dist.  A cylinder run takes them in
    # its (angle, z) chart (largest gap 1.3e-14); circle data read the kernel of
    # sphere:2, since the angle differences of a circle run's chart round with
    # the angles, not with the chords (largest gap 1.4e-10)
    man = parse_manifold(spec)
    for grid_n in (33, 201, 10001):
        for noise in (0.15, 0.5):
            u = noisy_field(man, grid_n=grid_n, noise=noise, seed=0)
            grid, values = _stepped(man, u.values) if spec == "cylinder" else (man, u.values)
            d = np.diff(values, axis=0)
            chords = grid._secant_chords(d, np.sum(d * d, axis=1), np.empty(grid_n - 1))
            exact = chord_sizes(u)
            assert np.all(np.abs(chords - exact) <= _SECANT_CHORD_RTOL * exact), (grid_n, noise)


def _mp_arc(p, q):
    # the angle between p and q, each scaled to unit length, at 50 digits
    with mpmath.workdps(50):
        p, q = ([mpmath.mpf(x) for x in point] for point in (p, q))
        n_p, n_q = (mpmath.sqrt(mpmath.fsum(x * x for x in point)) for point in (p, q))
        chord = mpmath.sqrt(mpmath.fsum((x / n_p - y / n_q) ** 2 for x, y in zip(p, q)))
        return 2 * mpmath.asin(chord / 2)


# the largest relative gap of a step's length, as _retract returns it, from the
# 50-digit distance between its two states on the fields below, rounded up;
# dist's largest gap at the same points is 1.5e-14 and 1.4e-12
_STEP_LENGTH_RTOL = {"sphere:3": 2e-14, "circle": 2e-12}


@pytest.mark.parametrize("spec", ["sphere:3", "circle"])
def test_step_lengths_are_the_geodesic_distances_the_retraction_moves(spec):
    # one row at a time, on the first step of 10^4-node fields, as a grid_solve
    # sphere item takes it (circle data, whose runs step in their angle chart,
    # give the kernel of sphere:2); steps reach 0.38, where atan |xi| and |xi|
    # differ by 5 %
    man = parse_manifold(spec)
    for noise in (0.15, 0.5):
        u = noisy_field(man, grid_n=10001, noise=noise, seed=3).values
        v = _plain_solve(u, 0.25e-4, 1e-3)
        worst = 0.0
        for i in range(len(u)):
            new = np.empty((1, man.ambient_dim))
            length = math.sqrt(man._retract(u[i:i + 1], v[i:i + 1].copy(), new))
            exact = _mp_arc(u[i], new[0])
            worst = max(worst, float(abs(length - exact) / exact))
        assert worst <= _STEP_LENGTH_RTOL[spec], (noise, worst)


@pytest.mark.parametrize("spec", ["sphere:3", "cylinder"])
def test_the_constraint_residual_stays_at_one_ulp_over_3000_steps(spec):
    # the retraction divides by the measured norm: | |u| - 1 | (of the circle
    # part on the cylinder) stays within an ulp of 1, where dividing by
    # sqrt(1 + |xi|^2) reaches 1e-14.  At epsilon = 3 the state is far from
    # flat after 3000 steps (variation 4e-6)
    u0 = noisy_field(spec, grid_n=201, noise=0.15, seed=3)
    dt = u0.h / 4
    traj = run_regularized(u0, FlowConfig(u0.manifold, epsilon=3.0, t_max=3000 * dt),
                           snapshot_times=[1000 * dt, 2000 * dt, 3000 * dt])
    assert len(traj) == 4 and traj.tv[-1] > 1e-6
    for snap in traj.snapshots[1:]:
        radius = np.linalg.norm(snap.values[:, :2] if spec == "cylinder" else snap.values, axis=1)
        assert np.max(np.abs(radius - 1.0)) <= 2.3e-16


@pytest.mark.parametrize("spec", ["sphere:3", "circle", "cylinder"])
def test_a_near_antipodal_neighbour_pair_is_refused_as_dist_refuses_it(spec):
    # p and its antipode, or a point pi - delta from p around the circle, as one
    # neighbour pair of a 3- to 33-node datum (on the cylinder at p's height).
    # Rounding takes the secant's half-length past 1, where an unclipped asin
    # warns and gives a NaN chord, or an ulp below it, where the asin reads up
    # to 5e-8 short of pi; the run refuses exactly when tv_measure (dist) does.
    # A cylinder run reads its chart's chords from the datum on: no target
    # kernel of the cylinder measures a secant
    man = parse_manifold(spec)
    refused = 0
    for seed in range(40):
        rng = np.random.Generator(np.random.Philox([seed, 9]))
        for grid_n in (3, 5, 8, 33):
            for delta in (0.0, 1e-12, 1e-9, 3e-8):
                p = man.project_point(rng.standard_normal(man.ambient_dim))
                v, _ = man.random_direction(rng, p)
                if man.kind == "cylinder":
                    v[2] = 0.0
                q = man.exp(p, (math.pi - delta) / np.linalg.norm(v) * v) if delta else -p
                if man.kind == "cylinder":
                    q[2] = p[2]
                k = int(rng.integers(grid_n - 1))
                u = SampledCurve(man, np.array([p] * (k + 1) + [q] * (grid_n - k - 1)))
                exact = chord_sizes(u)
                work = _step_arrays(*u.values.shape)
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    if man.kind != "cylinder":
                        chords = _state_chords(man, u.values, work, np.empty(grid_n - 1))
                        assert chords[k] == exact[k], (seed, grid_n, delta)
                    try:
                        tv_measure(u)
                    except GeometryError as exc:
                        refused += 1
                        with pytest.raises(GeometryError, match=re.escape(str(exc))):
                            run_regularized(u, FlowConfig(man, epsilon=1e-2))
    assert refused


@pytest.mark.parametrize("spec", ["circle", "cylinder"])
def test_charted_runs_reach_no_target_step_kernel(spec, monkeypatch):
    # both solvers lift circle and cylinder data to their flat chart before any
    # step: a grid run and the suite's exact runs finish with the targets'
    # chord, retraction and tangent kernels raising
    def unreachable(*args):
        raise AssertionError("a charted run reached a target step kernel")

    for cls in (Circle, Cylinder):
        for name in ("_secant_chords", "_retract", "_tangent_pair"):
            monkeypatch.setattr(cls, name, unreachable)
    u0 = noisy_field(spec, grid_n=201, noise=0.15, seed=0)
    assert len(run_regularized(u0, FlowConfig(u0.manifold, epsilon=1e-2, t_max=0.01))) > 1
    for u0 in suite(seed=7)[spec]:
        assert len(run_exact_pc(u0, t_max=4.0 * tv_measure(u0).total)) > 1


def test_a_run_holds_its_input_as_snapshot_0_and_copies_only_what_it_records(monkeypatch):
    u0 = noisy_field("sphere:3", grid_n=2001, noise=0.05, seed=5)
    cfg = FlowConfig(u0.manifold, epsilon=1e-2, t_max=0.005)
    times = [cfg.t_max / 2, cfg.t_max]
    run_regularized(u0, cfg, times)  # scipy loads with the first solve, before the baseline
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        traj = run_regularized(u0, cfg, times)
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    # numpy reports its arrays to tracemalloc: the run keeps the two states it
    # recorded and a few small objects, and no copy of its input
    assert len(traj) == 3 and held <= 2 * u0.values.nbytes + 16_384, held
    assert traj.snapshots[0] is u0

    step = random_rad_curve(SPH, _rng(3, 0))
    assert run_exact_pc(step, t_max=0.01).snapshots[0] is step
    # flow's snapshot 0 is the curve it mollified, not a copy of it
    made = []

    def mollify_kept(*args):
        made.append(mollify(*args))
        return made[-1]

    monkeypatch.setattr("mtvf.flows.mollify", mollify_kept)
    traj = flow(step, FlowConfig(SPH, epsilon=1e-2, grid_n=41, t_max=0.01))
    assert len(made) == 1 and traj.snapshots[0] is made[0]


@pytest.mark.parametrize("spec", TARGETS)
def test_noisy_field_matches_per_node_noise(spec):
    # one batched tangent draw gives the bits of one draw per node: the same
    # Philox stream, and _dot adds each row in the order np.add.reduce does
    man = parse_manifold(spec)
    for grid_n in (2, 33, 300):
        rng = _rng(11, 1)
        p = man.random_point(rng)
        direction = man.random_tangent(rng, p)
        direction = direction / np.linalg.norm(direction)
        q = man.exp(p, min(1.0, 0.9 * man.convexity_radius) * direction)
        base = man.geodesic_point(p, q, np.linspace(0.0, 1.0, grid_n))
        xi = np.stack([man.random_tangent(rng, b) for b in base])
        looped = man.exp(base, 0.15 * xi)
        field = noisy_field(man, grid_n=grid_n, noise=0.15, seed=11).values
        assert np.array_equal(field, looped)


def test_rejects_a_config_on_another_manifold():
    field = noisy_field("circle", grid_n=33, noise=0.05, seed=3)
    with pytest.raises(ConfigError, match="manifold"):
        run_regularized(field, FlowConfig(manifold=SPH, epsilon=1e-2, grid_n=33))
