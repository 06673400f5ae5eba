"""End-to-end acceptance: closed forms, invariants, pinned regressions.

Each test prints one PASS/FAIL line through the ``acceptance_log`` fixture
(collected in the terminal summary).  The random suite is generated once
per module and shared: every datum is flowed with the event-driven solver,
and sampled sharply onto a 101-node grid for the nearly-degenerate
regularized solver (epsilon = 1e-8), so both solvers face the same data.
"""
import time

import numpy as np
import pytest

from mtvf import (
    Euclidean,
    PiecewiseConstantCurve,
    SampledCurve,
    Sphere,
    check_energy,
    check_monotone_variation,
    check_sphere_equivalence,
    check_variational_inequality,
    cross_solver_compare,
    detect_stopping,
    reconstruct_z_pc,
    run_exact_pc,
    run_regularized,
    scalar_curve,
    tv_measure,
)
from mtvf.curves import mollify
from mtvf.flows import FlowConfig
from mtvf.lab import (
    first_positive_gap,
    geodesic_endpoint_stability,
    hessian_comparison_check,
    second_difference,
    semiconvexity_gap,
)
from mtvf.synth import random_rad_curve, suite, two_jump_sphere_example

SPH = Sphere(3)

# pinned regression values, frozen from the first derived runs
SEMICONVEXITY_N0 = 19
STABILITY_MAX_RATIO = 1.2958826528622467


@pytest.fixture(scope="module")
def suite_runs():
    """(datum, exact trajectory, regularized trajectory) per manifold."""
    runs = {}
    for spec_id, curves in suite(seed=7, per_manifold=20).items():
        man = curves[0].manifold
        rows = []
        for u0 in curves:
            t_max = 4.0 * tv_measure(u0).total
            exact = run_exact_pc(u0, t_max=t_max)
            sharp = SampledCurve(man, u0.eval_grid(np.linspace(0.0, 1.0, 101)))
            cfg = FlowConfig(manifold=man, epsilon=1e-8, grid_n=101, t_max=t_max)
            reg = run_regularized(sharp, cfg)
            rows.append((u0, exact, reg))
        runs[spec_id] = rows
    return runs


def _all_runs(suite_runs):
    for rows in suite_runs.values():
        for u0, exact, reg in rows:
            yield u0, exact
            yield u0, reg


def _exact_runs(suite_runs):
    for rows in suite_runs.values():
        yield from rows


def test_criterion_01_single_jump_extinction(acceptance_log):
    t0 = time.monotonic()
    worst_exact = 0.0
    for x0 in (0.25, 0.5, 0.75):
        u0 = scalar_curve([x0], [-1.0, 1.0])
        stop = detect_stopping(run_exact_pc(u0, t_max=1.0, snapshot_every=1))
        assert stop is not None
        worst_exact = max(worst_exact, abs(stop[0] - 2 * x0 * (1 - x0)))

    u0 = scalar_curve([0.5], [-1.0, 1.0])
    moll = mollify(u0, 1601)
    cfg = FlowConfig(manifold=Euclidean(1), epsilon=1e-3, grid_n=1601,
                     t_max=0.75, snapshot_every=1)
    stop = detect_stopping(run_regularized(moll, cfg))
    assert stop is not None
    rel = abs(stop[0] - 0.5) / 0.5
    elapsed = time.monotonic() - t0
    ok = worst_exact <= 1e-8 and rel <= 0.05 and elapsed < 30.0
    acceptance_log(
        "1 single-jump extinction", ok,
        f"exact err {worst_exact:.2e}, regularized rel err {rel:.2%}, {elapsed:.1f}s",
    )
    assert worst_exact <= 1e-8
    assert rel <= 0.05
    assert elapsed < 30.0


def test_criterion_02_jump_immobility(acceptance_log):
    rng = np.random.Generator(np.random.Philox([2, 0]))
    moved = 0
    for _ in range(10):
        u0 = random_rad_curve(SPH, rng)
        traj = run_exact_pc(u0, t_max=4.0 * tv_measure(u0).total, snapshot_every=1)
        initial = set(u0.breakpoints.tolist())
        for snap in traj.snapshots:
            if not set(snap.breakpoints.tolist()) <= initial:
                moved += 1
    acceptance_log("2 jump immobility", moved == 0,
                   f"{moved} drifting breakpoints in 10 runs (exact equality)")
    assert moved == 0


def test_criterion_03_energy_inequality(acceptance_log, suite_runs):
    t0 = time.monotonic()
    worst = -np.inf
    n_runs = 0
    for _, traj in _all_runs(suite_runs):
        rep = check_energy(traj)
        assert rep.tolerance == 1e-6 + 10.0 * traj.dt_nominal
        assert rep.passed, rep
        worst = max(worst, rep.worst)
        n_runs += 1
    elapsed = time.monotonic() - t0
    ok = elapsed < 120.0
    acceptance_log("3 energy inequality", ok,
                   f"{n_runs} runs, worst {worst:.2e}, {elapsed:.1f}s")
    assert ok


def test_criterion_04_pointwise_monotonicity(acceptance_log, suite_runs):
    # Local variation decay (individual jump sizes plus variation restricted
    # to dyadic subintervals) is a property of the flow itself and is checked
    # on the event-driven trajectories.  The grid solver cannot satisfy a
    # per-face version at fixed resolution: its ambient-chord flux pulls with
    # tangential weight cos(d/2), letting a large jump on a curved target
    # grow, and discrete merges transiently funnel the residual value gap of
    # two colliding plateaus through a single face at slope scale.  Its own
    # monotonicity guarantee is the p-energy decay, covered in the
    # regularized-solver tests.
    worst = -np.inf
    n_runs = 0
    for _, exact, _reg in _exact_runs(suite_runs):
        rep = check_monotone_variation(exact)
        assert rep.tolerance == 1e-6
        assert rep.passed, rep
        worst = max(worst, rep.worst)
        n_runs += 1
    acceptance_log("4 pointwise monotonicity", True,
                   f"{n_runs} exact runs, worst {worst:.2e}")


def test_criterion_05_z_field_structure(acceptance_log, suite_runs):
    sup_norm = 0.0
    worst_jump = 0.0
    boundary_exact = True
    for _, exact, _ in suite_runs["sphere:3"]:
        for snap in exact.snapshots:
            left, right = reconstruct_z_pc(snap)
            # linear on each plateau, so its sup is at a plateau end
            ends = np.vstack([left, right])
            sup_norm = max(sup_norm, float(np.max(np.linalg.norm(ends, axis=1))))
            if np.any(left[0] != 0.0) or np.any(right[-1] != 0.0):
                boundary_exact = False
            if snap.num_jumps:
                tm, tp = SPH.unit_tangent_pair(snap.values[:-1], snap.values[1:])
                worst_jump = max(
                    worst_jump,
                    float(np.max(np.abs(right[:-1] - tm))),
                    float(np.max(np.abs(left[1:] - tp))),
                )
    ok = sup_norm <= 1 + 1e-8 and boundary_exact and worst_jump <= 1e-9
    acceptance_log(
        "5 z-field structure", ok,
        f"max |z| {sup_norm:.10f}, boundary exact {boundary_exact}, "
        f"jump mismatch {worst_jump:.2e}",
    )
    assert sup_norm <= 1 + 1e-8
    assert boundary_exact
    assert worst_jump <= 1e-9


def test_criterion_06_sphere_identities(acceptance_log, suite_runs):
    worst = 0.0
    for _, exact, _ in suite_runs["sphere:3"]:
        rep = check_sphere_equivalence(exact)
        assert rep.tolerance == 1e-8
        assert rep.passed, rep
        worst = max(worst, rep.worst)
    acceptance_log("6 sphere flux identities", True, f"worst residual {worst:.2e}")


def test_criterion_07_variational_inequality(acceptance_log, suite_runs):
    rng = np.random.Generator(np.random.Philox([7, 0]))
    eu2 = Euclidean(2)
    competitors = [random_rad_curve(eu2, rng) for _ in range(10)]
    worst = -np.inf
    for _, exact, _ in suite_runs["euclidean:2"]:
        for v in competitors:
            rep = check_variational_inequality(exact, v)
            assert rep.passed, rep
            worst = max(worst, rep.worst)
    acceptance_log("7 variational inequality", True,
                   f"20 runs x 10 competitors, worst {worst:.2e}")


def test_criterion_08_cross_solver_consistency(acceptance_log):
    t0 = time.monotonic()
    eps_list = (1e-1, 1e-2, 1e-3)
    grid_list = (101, 401, 1601)
    rows = cross_solver_compare(two_jump_sphere_example(), eps_list, grid_list, pairing="zip")
    table = {(r.epsilon, r.grid_n): r for r in rows}
    diag = [table[(e, n)] for e, n in zip(eps_list, grid_list)]
    sups = [r.sup_l2 for r in diag]
    monotone = all(b <= 1.2 * a for a, b in zip(sups, sups[1:]))
    final = diag[-1].final_l2
    elapsed = time.monotonic() - t0
    ok = monotone and final <= 1e-3 and elapsed < 300.0
    acceptance_log(
        "8 cross-solver consistency", ok,
        f"diagonal sup {', '.join(f'{s:.3e}' for s in sups)}, "
        f"final {final:.3e}, {elapsed:.1f}s",
    )
    assert monotone
    assert final <= 1e-3
    assert elapsed < 300.0


def test_criterion_09_semiconvexity_gap(acceptance_log):
    t0 = time.monotonic()
    n0 = first_positive_gap(100)
    negative_at_one = semiconvexity_gap(1) < 0
    positive_beyond = all(semiconvexity_gap(n) > 0 for n in range(SEMICONVEXITY_N0, 101))
    xs = np.geomspace(1e-4, 0.5, 64)
    asymptotic = bool(np.all(np.arcsin(np.tan(xs)) > xs + xs**3 / 3))
    elapsed = time.monotonic() - t0
    ok = (negative_at_one and n0 == SEMICONVEXITY_N0 and positive_beyond
          and asymptotic and elapsed < 1.0)
    acceptance_log(
        "9 semiconvexity gap", ok,
        f"gap(1) {semiconvexity_gap(1):.3e}, n0 = {n0}, {elapsed:.2f}s",
    )
    assert negative_at_one
    assert n0 == SEMICONVEXITY_N0
    assert positive_beyond
    assert asymptotic
    assert elapsed < 1.0


def test_criterion_10_hessian_comparison(acceptance_log):
    t0 = time.monotonic()
    rng = np.random.Generator(np.random.Philox([10, 0]))
    min_slack = np.inf
    worst_tangential = 0.0
    for _ in range(1000):
        p0 = SPH.random_point(rng)
        v = SPH.random_tangent(rng, p0)
        v /= np.linalg.norm(v)
        r = rng.uniform(0.05, np.pi / 2 - 0.05)
        p = SPH.exp(p0, r * v)
        rep = hessian_comparison_check(SPH, p0, p, n_dirs=4, rng=rng)
        assert rep.passed, rep
        min_slack = min(min_slack, rep.min_estimate - (rep.bound - rep.tolerance))
        # the bound is attained in the direction orthogonal to the radial one
        radial = SPH.log(p, p0)
        radial /= np.linalg.norm(radial)
        t = SPH.random_tangent(rng, p)
        t -= np.dot(t, radial) * radial
        t /= np.linalg.norm(t)
        dev = abs(second_difference(SPH, p0, p, t) - rep.bound)
        worst_tangential = max(worst_tangential, dev)
    elapsed = time.monotonic() - t0
    ok = min_slack >= 0 and worst_tangential <= 1e-4 and elapsed < 60.0
    acceptance_log(
        "10 hessian comparison", ok,
        f"1000 configs, min slack {min_slack:.2e}, "
        f"tangential deviation {worst_tangential:.2e}, {elapsed:.1f}s",
    )
    assert min_slack >= 0
    assert worst_tangential <= 1e-4
    assert elapsed < 60.0


def test_criterion_11_finite_time_stopping(acceptance_log, suite_runs):
    unstopped = 0
    n_runs = 0
    for _, traj in _all_runs(suite_runs):
        if detect_stopping(traj) is None:
            unstopped += 1
        n_runs += 1

    rng = np.random.Generator(np.random.Philox([11, 0]))
    worst_mean = 0.0
    for _ in range(10):
        u0 = random_rad_curve(Euclidean(1), rng)
        traj = run_exact_pc(u0, t_max=4.0 * tv_measure(u0).total)
        stop = detect_stopping(traj)
        assert stop is not None
        mean = float(u0.plateau_lengths() @ u0.values[:, 0])
        worst_mean = max(worst_mean, abs(float(stop[1][0]) - mean))
    ok = unstopped == 0 and worst_mean <= 1e-8
    acceptance_log(
        "11 finite-time stopping", ok,
        f"{n_runs} suite runs all constant by 4*TV, "
        f"scalar mean error {worst_mean:.2e}",
    )
    assert unstopped == 0
    assert worst_mean <= 1e-8


def test_criterion_12_endpoint_stability_regression(acceptance_log):
    scan = geodesic_endpoint_stability(10_000, radius=1.0, seed=0)
    ok = np.isfinite(scan.max_ratio) and scan.max_ratio == STABILITY_MAX_RATIO
    acceptance_log(
        "12 endpoint stability pin", ok,
        f"max ratio {scan.max_ratio!r} (pinned {STABILITY_MAX_RATIO!r})",
    )
    assert np.isfinite(scan.max_ratio)
    assert scan.max_ratio == STABILITY_MAX_RATIO
