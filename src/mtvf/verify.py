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

from .curves import PiecewiseConstantCurve, _stacked_jump_sizes, l2_distance, tv_measure
from .errors import CheckNotApplicable, ConfigError
from .flows import (
    FlowConfig,
    FlowTrajectory,
    _jump_tangents,
    face_flux,
    flow,
)
from .manifolds import _dot, _norm

STOP_TV_TOL = 1e-10
# finest level of the dyadic subintervals the monotone check restricts to
DYADIC_DEPTH = 6


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


def _rises(series: np.ndarray) -> np.ndarray:
    """Each later entry's growth over the smallest earlier one on axis 0, NaNs skipped."""
    return series[1:] - np.fmin.accumulate(series, axis=0)[:-1]


def check_energy(traj: FlowTrajectory) -> CheckReport:
    """Dissipation accounting: TV(u(t)) + integral of |u_t|^2 never exceeds
    the variation at any earlier snapshot, within 1e-6 + 10 * ``dt_nominal``.
    """
    tol = 1e-6 + 10.0 * traj.dt_nominal
    # the first snapshot rises by 0, so a run that never rises reports it
    viol = np.concatenate([[0.0], _rises(traj.tv + traj.dissipation)])
    worst = float(viol.max())
    k = int(viol.argmax())
    return CheckReport(
        "energy_inequality", worst <= tol, worst, tol, (float(traj.times[k]),)
    )


def check_monotone_variation(traj: FlowTrajectory) -> CheckReport:
    """Local variation can only decay.

    The individual jump sizes of a piecewise-constant trajectory are tracked
    across merge events, and the variation measure restricted to every
    dyadic subinterval up to depth ``DYADIC_DEPTH``; both must be
    nonincreasing, within 1e-6.  Every snapshot's jump sizes come from one
    ``dist`` call (``curves._stacked_jump_sizes``, as in ``traj.tv``), and
    every interval's mass from one ``bincount``.  Sampled
    snapshots raise :class:`CheckNotApplicable`: at fixed resolution the
    grid solver does not obey this law; its monotone quantity is the
    regularized energy.
    """
    tol = 1e-6
    if not isinstance(traj.final_curve, PiecewiseConstantCurve):
        raise CheckNotApplicable("the monotone check needs piecewise-constant snapshots")
    worst = -np.inf
    where: tuple = ()
    # jumps are identified by their (fixed) breakpoint; sets only shrink.
    # sizes[k, j] is the size of the j-th initial jump at time k, NaN once
    # it has merged
    xs = traj.snapshots[0].breakpoints
    n = len(traj.snapshots)
    bps = np.concatenate([s.breakpoints for s in traj.snapshots])
    row = np.repeat(np.arange(n), [s.num_jumps for s in traj.snapshots])
    col = np.searchsorted(xs, bps)
    grew = np.append(xs, np.nan)[col] != bps  # a breakpoint not in xs
    if grew.any():
        raise CheckNotApplicable(f"jump set grew at t={traj.times[row[np.argmax(grew)]]}")
    jumps = _stacked_jump_sizes(traj.snapshots)[0]
    sizes = np.full((n, xs.size), np.nan)
    sizes[row, col] = jumps
    # growth over each jump's smallest earlier size; the first largest
    # in time-then-breakpoint order is reported (np.nanargmax's pick)
    grown = _rises(sizes)
    merged = np.isnan(grown)
    if not merged.all():
        kt, kx = divmod(int(np.where(merged, -np.inf, grown).argmax()), xs.size)
        worst = float(grown[kt, kx])
        where = (float(traj.times[kt + 1]), float(xs[kx]))
    # interval i of level l (m = 2^l intervals) holds the jumps with
    # floor(x m) = i, exact for powers of two, and is column m - 1 + i of
    # masses; one bincount over every level adds them in breakpoint order
    ms = 2 ** np.arange(DYADIC_DEPTH + 1)[:, None]
    cols = 2 ** (DYADIC_DEPTH + 1) - 1
    bins = np.arange(n)[:, None, None] * cols + (ms - 1 + np.floor(xs * ms).astype(int))
    present = np.zeros((n, 1, xs.size))  # sizes with 0 for a merged jump
    present[row, 0, col] = jumps
    present = np.broadcast_to(present, bins.shape)
    masses = np.bincount(bins.ravel(), present.ravel(), minlength=n * cols).reshape(n, cols)
    mass_viol = _rises(masses)
    if mass_viol.size and mass_viol.max() > worst:
        worst = float(mass_viol.max())
        kt, col = divmod(int(mass_viol.argmax()), cols)
        # level l's m = 2^l intervals are columns m - 1 to 2m - 2
        m = 2 ** ((col + 1).bit_length() - 1)
        i = col + 1 - m
        where = (float(traj.times[kt + 1]), (i / m, (i + 1) / m))
    worst = float(worst) if np.isfinite(worst) else 0.0
    # nothing grew: there is no violation to locate
    return CheckReport("monotone_variation", worst <= tol, worst, tol, where if worst > 0 else ())


def check_variational_inequality(
    traj: FlowTrajectory, competitor: PiecewiseConstantCurve
) -> CheckReport:
    """Evolution variational inequality against a fixed competitor curve.

    Requires a complete, nonpositively curved geometry (among the built-ins
    that is flat space); between consecutive snapshots the squared-distance
    difference quotient plus the endpoint variation must not exceed the
    competitor's variation, within 1e-4 + 10 * ``dt_nominal``.
    """
    man = traj.manifold
    if man.curvature_bound > 0 or not np.isinf(man.injectivity_radius):
        raise CheckNotApplicable(f"{man.spec_id} is not complete with nonpositive curvature")
    if competitor.manifold != man:
        raise CheckNotApplicable("competitor lives on a different manifold")
    tol = 1e-4 + 10.0 * traj.dt_nominal
    tv_v = tv_measure(competitor).total
    tvs = traj.tv
    dsq = np.array([l2_distance(s, competitor) ** 2 for s in traj.snapshots])
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


def check_sphere_equivalence(traj: FlowTrajectory) -> CheckReport:
    """Structure identities special to the unit sphere.

    Verifies, snapshot by snapshot: (i) the flux is tangent along the
    solution, (ii) the wedge form of the evolution law — ``u_t ^ u`` equals
    the spatial derivative of ``z ^ u`` with no atoms at jumps, (iii) the
    pairing of the flux with the variation measure equals ``|u*| |u_x|``
    with ``u*`` the ambient midpoint average and, at a jump, the flux the
    mean of its two one-sided limits.  On a piecewise-constant snapshot the
    flux is ``reconstruct_z_pc``'s, and (ii) is the no-atoms part: ``z ^ u``
    is continuous across each jump.  Its plateau part holds by construction
    there, since the plateau velocities and the flux slopes are the same
    unit tangents over the same lengths.  On a sampled snapshot ``u_t`` is
    the tangential part ``P_u div z`` of the flux divergence, and (ii) reads
    ``div z ^ u``: ``P_u v`` and ``v`` differ by a multiple of ``u``, whose
    wedge with ``u`` vanishes.  The tolerance is 1e-5 / epsilon for sampled
    snapshots and 1e-8 for step ones.
    """
    man = traj.manifold
    if man.kind not in ("sphere", "circle"):
        raise CheckNotApplicable("sphere identities require sphere or circle values")
    tol = 1e-8 if traj.epsilon is None else 1e-5 / traj.epsilon
    r_tan = r_wedge = r_pair = 0.0
    for snap in traj.snapshots:
        vals = snap.values
        du = vals[1:] - vals[:-1]
        u_star = 0.5 * (vals[1:] + vals[:-1])
        if isinstance(snap, PiecewiseConstantCurve):
            if not snap.num_jumps:
                continue
            # the flux in its one-sided limits at each jump
            t_minus, t_plus = _jump_tangents(man, vals)
            # (i) tangency at both ends of every linear piece
            r_tan = max(r_tan, float(np.max(np.abs(_dot(t_minus, vals[:-1])))),
                        float(np.max(np.abs(_dot(t_plus, vals[1:])))))
            # (ii) no atoms: z ^ u continuous across each jump
            jump = _wedge(t_minus, vals[:-1]) - _wedge(t_plus, vals[1:])
            r_wedge = max(r_wedge, float(np.max(_wedge_norm(jump))))
            z = 0.5 * (t_minus + t_plus)
        else:
            h = snap.h
            z = face_flux(vals, h, traj.epsilon)
            r_tan = max(r_tan, float(np.max(np.abs(_dot(z, u_star)), initial=0.0)))
            # divergences of face fields: the phantom faces outside carry zero flux
            div_z = np.diff(z, axis=0, prepend=0.0, append=0.0) / h
            w_div = np.diff(_wedge(z, u_star), axis=0, prepend=0.0, append=0.0) / h
            r_wedge = max(r_wedge, float(np.max(
                _wedge_norm(_wedge(div_z, vals) - w_div), initial=0.0)))
        # (iii) pairing of the flux with the variation measure
        r_pair = max(r_pair, float(np.max(np.abs(_dot(du, z) - _norm(u_star) * _norm(du)))))
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
    tvs = traj.tv
    for k in range(len(traj.times)):
        if tvs[k] >= STOP_TV_TOL:
            continue
        c = traj.snapshots[k].values[0]
        settled = True
        for later in traj.snapshots[k:]:
            if float(man.dist(later.values, c).max()) > STOP_TV_TOL:
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


def cross_solver_compare(
    u0: PiecewiseConstantCurve,
    eps_list,
    grid_list,
    pairing: str = "product",
) -> list[CrossSolverRow]:
    """Distance between the grid solver and the event-driven solver.

    Runs the exact solver once, then the regularized solver for every
    ``(epsilon, grid_n)`` pair on the datum mollified onto that grid,
    comparing states at 33 shared snapshot times.  ``sup_l2`` is the largest L2
    distance over the time grid; ``final_l2`` compares the terminal states.
    Along a simultaneous refinement both columns should decrease.
    """
    exact = flow(u0, FlowConfig(u0.manifold, t_max=4.0 * tv_measure(u0).total))
    stop = detect_stopping(exact)
    t_end = stop[0] * 1.05 if stop else float(exact.times[-1])
    t_grid = np.linspace(0.0, t_end, 33)
    t_max = t_end * 1.001
    exact = flow(u0, FlowConfig(u0.manifold, t_max=t_max), t_grid[1:])

    def one(job):
        eps, n = job
        reg = flow(u0, FlowConfig(u0.manifold, epsilon=eps, grid_n=n, t_max=t_max), t_grid[1:])
        sup = 0.0
        for t in t_grid:
            sup = max(sup, l2_distance(reg.snapshots[reg.index_at(t)],
                                       exact.snapshots[exact.index_at(t)]))
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
