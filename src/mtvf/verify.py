"""Invariant checks recomputed from recorded flow trajectories.

Every check recomputes its quantities from the snapshot data (only the
dissipation integral, which cannot be reconstructed from snapshots alone,
is taken from the recorded diagnostics) and returns a :class:`CheckReport`
whose ``worst`` field is the largest signed violation — negative or zero
when the property holds with margin.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .curves import (
    PiecewiseConstantCurve,
    SampledCurve,
    l2_distance,
    mollify,
    tv_measure,
)
from .errors import ConfigError, IncompatibleSnapshots, NotNPC, WrongManifold
from .flows import (
    FlowConfig,
    FlowTrajectory,
    face_flux,
    pc_velocity,
    reconstruct_z_pc,
    regularized_velocity,
    run_exact_pc,
    run_regularized,
)
from .manifolds import _dot, _norm

STOP_TV_TOL = 1e-10


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one verifier check."""

    name: str
    passed: bool
    worst: float
    tolerance: float
    location: tuple = ()
    details: dict = field(default_factory=dict)

    def __str__(self) -> str:
        state = "pass" if self.passed else "FAIL"
        return (
            f"[{state}] {self.name}: worst violation {self.worst:.3e} "
            f"(tolerance {self.tolerance:.3e})"
        )


def _recomputed_tv(traj: FlowTrajectory) -> np.ndarray:
    return np.array([tv_measure(s).total for s in traj.snapshots])


def check_energy(traj: FlowTrajectory, tol: float | None = None) -> CheckReport:
    """Dissipation accounting: TV(u(t)) + integral of |u_t|^2 never exceeds
    the variation at any earlier snapshot.
    """
    if tol is None:
        tol = 1e-6 + 10.0 * traj.dt_nominal
    energy = _recomputed_tv(traj) + traj.dissipation
    running = np.minimum.accumulate(energy)
    viol = energy - np.concatenate([[energy[0]], running[:-1]])
    worst = float(np.max(viol))
    k = int(np.argmax(viol))
    return CheckReport(
        "energy_inequality", worst <= tol, worst, tol, (float(traj.times[k]),)
    )


def _dyadic_intervals(depth: int):
    out = []
    for level in range(depth + 1):
        m = 2 ** level
        for i in range(m):
            out.append((i / m, (i + 1) / m))
    return out


def check_monotone_variation(
    traj: FlowTrajectory, tol: float | None = None, dyadic_depth: int = 6
) -> CheckReport:
    """Local variation can only decay.

    For grid trajectories the per-face gradient magnitudes must be
    nonincreasing in time; for piecewise-constant trajectories the
    individual jump sizes are tracked across merge events.  Additionally
    the variation measure restricted to every dyadic subinterval up to the
    given depth must be nonincreasing.  The default tolerance is 1e-6,
    widened by twice epsilon for regularized runs whose flat regions carry
    an O(epsilon) gradient by design.
    """
    if tol is None:
        tol = 1e-6 + (2.0 * traj.epsilon if traj.epsilon else 0.0)
    man = traj.manifold
    intervals = _dyadic_intervals(dyadic_depth)
    worst = -np.inf
    where: tuple = ()

    first = traj.snapshots[0]
    if isinstance(first, SampledCurve):
        n = first.grid_n
        if any(not isinstance(s, SampledCurve) or s.grid_n != n for s in traj.snapshots):
            raise IncompatibleSnapshots("snapshots do not share one grid")
        h = first.h
        grads = np.stack(
            [man.dist(s.values[:-1], s.values[1:]) / h for s in traj.snapshots]
        )  # (T, n-1)
        face_mins = np.minimum.accumulate(grads, axis=0)
        face_viol = grads[1:] - face_mins[:-1]
        if face_viol.size:
            worst = float(np.max(face_viol))
            kt, kf = np.unravel_index(np.argmax(face_viol), face_viol.shape)
            where = (float(traj.times[kt + 1]), float((kf + 0.5) * h))
        mids = (np.arange(n - 1) + 0.5) * h
        masses = np.stack(
            [
                [float(np.sum(g[(mids >= a) & (mids < b)]) * h) for (a, b) in intervals]
                for g in grads
            ]
        )
    else:
        # jumps are identified by their (fixed) breakpoint; sets only shrink
        sizes_per_time = []
        for s in traj.snapshots:
            if not isinstance(s, PiecewiseConstantCurve):
                raise IncompatibleSnapshots("mixed snapshot kinds")
            sizes_per_time.append(dict(zip(s.breakpoints.tolist(), s.jump_sizes())))
        running: dict = {}
        for k, sizes in enumerate(sizes_per_time):
            extra = set(sizes) - set(sizes_per_time[0])
            if extra:
                raise IncompatibleSnapshots(f"jump set grew at t={traj.times[k]}")
            for x, val in sizes.items():
                if x in running and val - running[x] > worst:
                    worst = float(val - running[x])
                    where = (float(traj.times[k]), float(x))
                running[x] = min(running.get(x, np.inf), val)
        masses = np.stack(
            [
                [
                    sum(v for x, v in sizes.items() if a <= x < b)
                    for (a, b) in intervals
                ]
                for sizes in sizes_per_time
            ]
        )
    mass_mins = np.minimum.accumulate(masses, axis=0)
    mass_viol = masses[1:] - mass_mins[:-1]
    if mass_viol.size and float(np.max(mass_viol)) > worst:
        worst = float(np.max(mass_viol))
        kt, ki = np.unravel_index(np.argmax(mass_viol), mass_viol.shape)
        where = (float(traj.times[kt + 1]), intervals[ki])
    worst = float(worst) if np.isfinite(worst) else 0.0
    return CheckReport("monotone_variation", worst <= tol, worst, tol, where)


def check_variational_inequality(
    traj: FlowTrajectory, competitor: PiecewiseConstantCurve, tol: float | None = None
) -> CheckReport:
    """Evolution variational inequality against a fixed competitor curve.

    Requires a complete, nonpositively curved geometry (among the built-ins
    that is flat space); between consecutive snapshots the squared-distance
    difference quotient plus the endpoint variation must not exceed the
    competitor's variation.
    """
    man = traj.manifold
    if man.curvature_bound > 0 or not np.isinf(man.injectivity_radius):
        raise NotNPC(f"{man.spec_id} is not complete with nonpositive curvature")
    if competitor.manifold != man:
        raise WrongManifold("competitor lives on a different manifold")
    if tol is None:
        tol = 1e-4 + 10.0 * traj.dt_nominal
    tv_v = tv_measure(competitor).total
    tvs = _recomputed_tv(traj)

    def dist_sq(snapshot) -> float:
        if isinstance(snapshot, PiecewiseConstantCurve):
            return l2_distance(snapshot, competitor) ** 2
        xs = snapshot.xs
        d = man.dist(snapshot.values, competitor.eval_grid(xs))
        return float(np.trapezoid(d * d, xs))

    dsq = np.array([dist_sq(s) for s in traj.snapshots])
    times = traj.times
    # Difference quotients need windows of at least half a nominal step:
    # merge events deposit snapshot pairs ~1e-10 apart, and dividing the
    # merge-tolerance state perturbation by such a gap is pure noise.
    floor = max(0.5 * traj.dt_nominal, 1e-12)
    worst = -np.inf
    where: tuple = ()
    for k in range(len(times) - 1):
        j = k + 1
        while j < len(times) - 1 and times[j] - times[k] < floor:
            j += 1
        dt = times[j] - times[k]
        if dt < floor:
            continue
        lhs = (dsq[j] - dsq[k]) / (2.0 * dt) + tvs[j]
        if lhs - tv_v > worst:
            worst = float(lhs - tv_v)
            where = (float(times[j]),)
    worst = float(worst) if np.isfinite(worst) else 0.0
    return CheckReport("variational_inequality", worst <= tol, worst, tol, where)


def _wedge(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a[..., :, None] * b[..., None, :] - b[..., :, None] * a[..., None, :]


def _wedge_norm(w: np.ndarray) -> np.ndarray:
    return np.sqrt(np.sum(w * w, axis=(-2, -1)))


def check_sphere_equivalence(traj: FlowTrajectory, tol: float | None = None) -> CheckReport:
    """Structure identities special to the unit sphere.

    Verifies, snapshot by snapshot: (i) the flux is tangent along the
    solution, (ii) the wedge form of the evolution law — ``u_t ^ u`` equals
    the spatial derivative of ``z ^ u`` with no atoms at jumps, (iii) the
    pairing of the flux with the variation measure equals ``|u*| |u_x|``
    with ``u*`` the ambient midpoint average.
    """
    man = traj.manifold
    if man.kind not in ("sphere", "circle"):
        raise WrongManifold("sphere identities require sphere or circle values")
    if tol is None:
        if traj.solver == "regularized":
            tol = 1e-5 / (traj.epsilon or 1.0)
        else:
            tol = 1e-8
    r_tan = r_wedge = r_pair = 0.0
    for snap in traj.snapshots:
        if isinstance(snap, PiecewiseConstantCurve):
            vals = snap.values
            lengths = snap.plateau_lengths()
            flux = reconstruct_z_pc(snap)
            vel = pc_velocity(man, lengths, vals)
            # (i) tangency at both ends of every linear piece
            for endp in (flux.left_values, flux.right_values):
                r_tan = max(r_tan, float(np.max(np.abs(_dot(endp, vals)), initial=0.0)))
            # (ii) interior: u_t ^ u = z_x ^ u on each plateau
            slope = (flux.right_values - flux.left_values) / lengths[:, None]
            r_wedge = max(
                r_wedge,
                float(np.max(_wedge_norm(_wedge(vel, vals) - _wedge(slope, vals)), initial=0.0)),
            )
            # (ii) no atoms: z ^ u continuous across each jump
            if snap.num_jumps:
                left = _wedge(flux.right_values[:-1], vals[:-1])
                right = _wedge(flux.left_values[1:], vals[1:])
                r_wedge = max(r_wedge, float(np.max(_wedge_norm(left - right), initial=0.0)))
                # (iii) pairing with the jump part of the variation measure
                du = vals[1:] - vals[:-1]
                z_star = 0.5 * (flux.right_values[:-1] + flux.left_values[1:])
                u_star = 0.5 * (vals[1:] + vals[:-1])
                lhs = _dot(du, z_star)
                rhs = _norm(u_star) * _norm(du)
                r_pair = max(r_pair, float(np.max(np.abs(lhs - rhs), initial=0.0)))
        else:
            vals = snap.values
            h = snap.h
            z = face_flux(vals, h, traj.epsilon)
            u_star = 0.5 * (vals[1:] + vals[:-1])
            r_tan = max(r_tan, float(np.max(np.abs(_dot(z, u_star)), initial=0.0)))
            vel = regularized_velocity(man, vals, h, traj.epsilon)
            w_face = _wedge(z, u_star)
            pad = np.zeros((1,) + w_face.shape[1:])
            w_div = (np.concatenate([w_face, pad]) - np.concatenate([pad, w_face])) / h
            r_wedge = max(
                r_wedge,
                float(np.max(_wedge_norm(_wedge(vel, vals) - w_div), initial=0.0)),
            )
            du = vals[1:] - vals[:-1]
            lhs = _dot(du, z)
            rhs = _norm(u_star) * _norm(du)
            r_pair = max(r_pair, float(np.max(np.abs(lhs - rhs), initial=0.0)))
    worst = max(r_tan, r_wedge, r_pair)
    return CheckReport(
        "sphere_equivalence",
        worst <= tol,
        worst,
        tol,
        (),
        details={"tangency": r_tan, "wedge": r_wedge, "pairing": r_pair},
    )


def detect_stopping(traj: FlowTrajectory):
    """First time after which the state is constant.

    Returns ``(t_star, constant_value)`` or ``None`` when the trajectory
    never settles: variation below 1e-10 and all later snapshots within
    1e-10 of the constant.
    """
    man = traj.manifold
    tvs = _recomputed_tv(traj)
    for k in range(len(traj.times)):
        if tvs[k] >= STOP_TV_TOL:
            continue
        c = traj.snapshots[k].values[0]
        settled = True
        for later in traj.snapshots[k:]:
            if float(np.max(man.dist(later.values, c))) > STOP_TV_TOL:
                settled = False
                break
        if settled:
            return float(traj.times[k]), np.array(c, copy=True)
    return None


# ---------------------------------------------------------------------------
# cross-solver comparison
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CrossSolverRow:
    epsilon: float
    grid_n: int
    sup_l2: float
    final_l2: float


def _state_at(traj: FlowTrajectory, t: float):
    hits = np.nonzero(np.abs(traj.times - t) <= 1e-9 * max(1.0, abs(t)))[0]
    if hits.size:
        return traj.snapshots[int(hits[0])]
    if t >= traj.times[-1] - 1e-12 and traj.stopped[-1]:
        return traj.snapshots[-1]
    raise IncompatibleSnapshots(f"no snapshot recorded at t={t}")


def cross_solver_compare(
    u0: PiecewiseConstantCurve,
    eps_list,
    grid_list,
    ramp_cells: int = 8,
    n_times: int = 33,
    merge_tol: float = 1e-9,
    pairing: str = "product",
) -> list[CrossSolverRow]:
    """Distance between the grid solver and the event-driven solver.

    Runs the exact solver once, then the regularized solver for every
    ``(epsilon, grid_n)`` pair (mollification ramp spans ``ramp_cells``
    grid cells), comparing states at shared snapshot times.  ``sup_l2`` is
    the largest L2 distance over the time grid; ``final_l2`` compares the
    terminal states.  Along a simultaneous refinement both columns should
    decrease.
    """
    exact = run_exact_pc(u0, t_max=4.0 * tv_measure(u0).total, merge_tol=merge_tol)
    stop = detect_stopping(exact)
    t_end = stop[0] * 1.05 if stop else float(exact.times[-1])
    t_grid = np.linspace(0.0, t_end, n_times)
    exact = run_exact_pc(u0, t_max=t_end * 1.001, merge_tol=merge_tol,
                         snapshot_times=t_grid[1:])

    def one(job):
        eps, n = job
        ramp = ramp_cells / (n - 1)
        moll = mollify(u0, n, ramp)
        cfg = FlowConfig(
            manifold=u0.manifold, epsilon=eps, grid_n=n, t_max=t_end * 1.001
        )
        reg = run_regularized(moll, cfg, snapshot_times=t_grid[1:])
        sup = 0.0
        for t in t_grid:
            sup = max(sup, l2_distance(_state_at(reg, t), _state_at(exact, t)))
        final = l2_distance(reg.final_curve, exact.final_curve)
        return CrossSolverRow(eps, n, sup, final)

    if pairing == "zip":
        if len(eps_list) != len(grid_list):
            raise ConfigError("zip pairing needs equal-length lists")
        jobs = [(float(e), int(n)) for e, n in zip(eps_list, grid_list)]
    elif pairing == "product":
        jobs = [(float(e), int(n)) for e in eps_list for n in grid_list]
    else:
        raise ConfigError(f"unknown pairing {pairing!r}")
    return [one(job) for job in jobs]
