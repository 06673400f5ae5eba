"""Time integrators for the constrained total variation flow of curves.

Three solvers share one trajectory container:

* :func:`run_regularized` — grid solver for the epsilon-regularized flow
  ``u_t = P_u (u_x / sqrt(eps^2 + |u_x|^2))_x`` with zero-flux boundary
  conditions, staggered face fluxes and projection retraction;
* :func:`run_exact_pc` — event-driven integrator for piecewise-constant
  data, evolving plateau values by the mutual pull of unit tangents while
  the jump locations stay put; a small closing jump merges ahead at its
  closed-form (pursuit-curve) collision time, else by bisection;
* :func:`run_scalar_tv` — closed-form staircase dynamics for scalar data
  (plateau speeds are constant between merge events).

``flow_on_geodesic`` transports the scalar dynamics along a geodesic and
yields trajectories identical to ``run_exact_pc`` for data on a single
geodesic.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded

from .curves import PiecewiseConstantCurve, SampledCurve, chord_sizes, jump_admissibility
from .errors import (
    CflViolation,
    ConfigError,
    ConvexityRadiusExceeded,
    DegenerateJump,
    StepUnderflow,
)
from .manifolds import COINCIDENT_TOL, Euclidean, Manifold, _dot, _norm

# one-step TV increase beyond this aborts the run as an unstable step
_TV_INCREASE_TOL = 1e-7
# state is declared constant (flow stopped) below this variation
_FLAT_TV_TOL = 1e-12
_EVENT_TIME_TOL = 1e-12
# a jump below this size and 100x smaller than every other one merges ahead
# of its collision, at the time the pursuit-curve closed form predicts
_MERGE_AHEAD_JUMP = 1e-5
# resolution floor for cadence-recorded piecewise-constant snapshots: while
# any jump sits below this size the state is mid merge-cascade, and unit
# tangent directions at separation d carry O(eps_mach/d) rounding noise that
# would poison the flux reconstructed from the snapshot.  Cadence and merge records
# are deferred until the cascade finishes (a few steps); explicitly requested
# snapshot times and the final record always capture the exact state.
_SNAPSHOT_JUMP_FLOOR = 1e-7


@dataclass
class FlowConfig:
    """Solver parameters; ``dt='auto'`` resolves per scheme.

    For the explicit scheme the automatic step is ``cfl_factor * h^2 *
    epsilon`` (the regularized diffusion coefficient is bounded by
    1/epsilon); the semi-implicit scheme is unconditionally stable and
    defaults to an accuracy-driven ``h / 4``.
    """

    manifold: Manifold
    epsilon: float = 1e-3
    grid_n: int = 201
    dt: float | str = "auto"
    t_max: float = 1.0
    merge_tol: float = 1e-9
    snapshot_every: int = 10
    scheme: str = "semi_implicit"
    cfl_factor: float = 0.4

    def __post_init__(self):
        for name in ("epsilon", "t_max", "merge_tol"):
            if not getattr(self, name) > 0:  # NaN fails too
                raise ConfigError(f"{name} must be positive")
        if self.grid_n < 3:
            raise ConfigError("grid_n must be at least 3")
        if self.snapshot_every < 1:
            raise ConfigError("snapshot_every must be at least 1")
        if self.scheme not in ("semi_implicit", "explicit"):
            raise ConfigError(f"unknown scheme {self.scheme!r}")
        if not (0.0 < self.cfl_factor <= 0.5):
            raise ConfigError("cfl_factor must lie in (0, 0.5]")
        if self.dt != "auto":
            if not isinstance(self.dt, (int, float)) or not 0 < float(self.dt) < math.inf:
                raise ConfigError("dt must be 'auto' or a finite positive number")
            self.dt = float(self.dt)

    def resolved_dt(self) -> float:
        if self.dt != "auto":
            return float(self.dt)
        h = 1.0 / (self.grid_n - 1)
        if self.scheme == "explicit":
            return self.cfl_factor * h * h * self.epsilon
        return 0.25 * h


@dataclass(frozen=True)
class PiecewiseLinearFluxField:
    """Flux field linear on each plateau of a piecewise-constant curve.

    Piece ``i`` spans the i-th plateau; its endpoint values are tangent
    vectors at that plateau's value.  The one-sided limits at breakpoint
    ``x_i`` are ``right_values[i]`` (from the left) and ``left_values[i+1]``
    (from the right); the field vanishes at both ends of [0, 1].
    """

    breakpoints: np.ndarray      # (m,)
    left_values: np.ndarray      # (m+1, N) value at the left end of each piece
    right_values: np.ndarray     # (m+1, N) value at the right end of each piece

    def max_norm(self) -> float:
        # within a piece the field is a convex-combination path between the
        # endpoint vectors, so endpoint norms dominate
        return float(np.max(_norm(np.vstack([self.left_values, self.right_values])), initial=0.0))

    def value_at(self, x: float) -> np.ndarray:
        edges = np.concatenate([[0.0], self.breakpoints, [1.0]])
        i = min(max(np.searchsorted(edges, x, side="right") - 1, 0), len(edges) - 2)
        a, b = edges[i], edges[i + 1]
        s = 0.0 if b == a else (x - a) / (b - a)
        return (1.0 - s) * self.left_values[i] + s * self.right_values[i]


@dataclass
class FlowTrajectory:
    """Recorded snapshots plus per-snapshot diagnostics of one run; flux
    fields are functions of the snapshots and are not stored."""

    manifold: Manifold
    solver: str
    times: np.ndarray
    snapshots: list
    tv: np.ndarray
    dissipation: np.ndarray      # cumulative space-time integral of |u_t|^2
    max_jump: np.ndarray
    stopped: np.ndarray
    dt_nominal: float
    epsilon: float | None = None

    def __len__(self) -> int:
        return len(self.times)

    @property
    def final_curve(self):
        return self.snapshots[-1]

    def index_at(self, t: float) -> int:
        idx = int(np.argmin(np.abs(self.times - t)))
        return idx


class _Recorder:
    """Snapshots of a run; each one's variation and largest jump are
    measured from the snapshot itself when the trajectory is built."""

    def __init__(self):
        self.rows = []  # (t, snapshot, cumulative dissipation, stopped)

    def add(self, t, snapshot, dissipation, stopped):
        """Record a snapshot unless one is already recorded at time t."""
        if not self.rows or abs(self.rows[-1][0] - t) >= 1e-15:
            self.rows.append((t, snapshot, dissipation, stopped))

    def build(self, manifold, solver, dt_nominal, epsilon=None) -> FlowTrajectory:
        times, snapshots, dissipation, stopped = zip(*self.rows)
        sizes = [chord_sizes(s) for s in snapshots]
        return FlowTrajectory(
            manifold=manifold,
            solver=solver,
            times=np.array(times),
            snapshots=list(snapshots),
            tv=np.array([float(np.sum(z)) for z in sizes]),
            dissipation=np.array(dissipation),
            max_jump=np.array([float(np.max(z, initial=0.0)) for z in sizes]),
            stopped=np.array(stopped, dtype=bool),
            dt_nominal=dt_nominal,
            epsilon=epsilon,
        )


# ---------------------------------------------------------------------------
# regularized grid solver
# ---------------------------------------------------------------------------


def _face_slopes(values: np.ndarray, h: float, epsilon: float):
    """Difference quotients ``Du`` on interior faces and ``sqrt(eps^2 + |Du|^2)``."""
    du = (values[1:] - values[:-1]) / h
    return du, np.sqrt(epsilon * epsilon + _dot(du, du))


def face_flux(values: np.ndarray, h: float, epsilon: float) -> np.ndarray:
    """Regularized flux ``Du / sqrt(eps^2 + |Du|^2)`` on interior faces,
    row i on the face between nodes i and i+1."""
    du, denom = _face_slopes(values, h, epsilon)
    return du / denom[:, None]


def regularized_velocity(
    manifold: Manifold, values: np.ndarray, h: float, epsilon: float
) -> np.ndarray:
    """Instantaneous right-hand side: tangential part of the flux divergence."""
    z = face_flux(values, h, epsilon)
    # the phantom faces outside the domain carry zero flux (homogeneous Neumann)
    pad = np.zeros((1, z.shape[1]))
    padded = np.vstack([pad, z, pad])
    return manifold.tangent_projection(values, (padded[1:] - padded[:-1]) / h)


def _semi_implicit_step(man, u, h, dt, epsilon):
    b = 1.0 / _face_slopes(u, h, epsilon)[1]
    g = dt / (h * h)
    n = u.shape[0]
    ab = np.zeros((3, n))
    ab[0, 1:] = -g * b
    ab[2, :-1] = -g * b
    ab[1, :] = 1.0
    ab[1, :-1] += g * b
    ab[1, 1:] += g * b
    v = solve_banded((1, 1), ab, u, overwrite_ab=True, check_finite=False)
    delta = man.tangent_projection(u, v - u)
    return man.project_point(u + delta)


def _explicit_step(man, u, h, dt, epsilon):
    return man.project_point(u + dt * regularized_velocity(man, u, h, epsilon))


def run_regularized(
    u0: SampledCurve,
    config: FlowConfig,
    snapshot_times=None,
) -> FlowTrajectory:
    """Integrate the epsilon-regularized flow from a sampled datum.

    ``config.grid_n`` must be the datum's node count.  Stops early once the
    state is constant; raises ``CflViolation`` if the chordal variation
    increases in a single step and ``ConvexityRadiusExceeded`` if a chord
    reaches twice the convexity radius.
    """
    man = config.manifold
    if u0.manifold != man:
        raise ConfigError("datum and config disagree on the manifold")
    if u0.grid_n != config.grid_n:
        raise ConfigError(f"grid_n = {config.grid_n} but the datum has {u0.grid_n} nodes")
    ok, worst, loc = jump_admissibility(u0)
    if not ok:
        raise ConvexityRadiusExceeded(
            f"chord of size {worst:.6g} at x={loc:.6g} reaches twice the "
            f"convexity radius {man.convexity_radius:.6g}"
        )
    h = u0.h
    dt = config.resolved_dt()
    eps = config.epsilon
    step = _semi_implicit_step if config.scheme == "semi_implicit" else _explicit_step
    # chord sums of a constant state sit at a roundoff floor that grows with
    # the face count, so the flat-state detector must scale with the grid
    flat_tol = max(_FLAT_TV_TOL, 1e-14 * (u0.grid_n - 1))

    wanted = None
    if snapshot_times is not None:
        wanted = sorted(float(t) for t in snapshot_times if 0.0 < t <= config.t_max)

    u = np.array(u0.values, dtype=float)
    t = 0.0
    diss = 0.0
    rec = _Recorder()

    def record(stopped_flag):
        rec.add(t, SampledCurve(man, u), diss, stopped_flag)

    tv_prev = float(np.sum(chord_sizes(u0)))
    record(tv_prev < flat_tol)
    if tv_prev < flat_tol:
        return rec.build(man, "regularized", dt, eps)

    steps = 0
    bound = 2.0 * man.convexity_radius
    while t < config.t_max - 1e-14:
        dt_step = min(dt, config.t_max - t)
        if wanted:
            dt_step = min(dt_step, wanted[0] - t)
        if dt_step < 1e-15:
            raise StepUnderflow(f"step size underflow at t={t}")
        u_new = step(man, u, h, dt_step, eps)
        chords = man.dist(u_new[:-1], u_new[1:])
        tv_new = float(np.sum(chords))
        if tv_new > tv_prev + _TV_INCREASE_TOL:
            raise CflViolation(
                f"variation increased by {tv_new - tv_prev:.3g} in one step "
                f"(dt={dt_step:.3g}); reduce the step size"
            )
        d_step = man.dist(u, u_new)
        diss += h * float(np.sum(d_step * d_step)) / dt_step
        u = u_new
        t += dt_step
        tv_prev = tv_new
        steps += 1
        if math.isfinite(bound) and float(np.max(chords)) >= bound:
            raise ConvexityRadiusExceeded("a chord reached twice the convexity radius")
        flat = tv_new < flat_tol
        due = False
        if wanted and t >= wanted[0] - 1e-14:
            wanted.pop(0)
            due = True
        elif wanted is None and steps % config.snapshot_every == 0:
            due = True
        if due or flat or t >= config.t_max - 1e-14:
            record(flat)
        if flat:
            break
    return rec.build(man, "regularized", dt, eps)


# ---------------------------------------------------------------------------
# exact piecewise-constant solver
# ---------------------------------------------------------------------------


def reconstruct_z_pc(curve: PiecewiseConstantCurve) -> PiecewiseLinearFluxField:
    """Closed-form flux of a piecewise-constant state.

    Linear on every plateau, zero at both domain ends, equal to the unit
    tangents of each jump in the one-sided limits at its breakpoint.
    """
    man = curve.manifold
    m = curve.num_jumps
    nd = man.ambient_dim
    left = np.zeros((m + 1, nd))
    right = np.zeros((m + 1, nd))
    if m:
        t_minus, t_plus = man.unit_tangent_pair(curve.values[:-1], curve.values[1:])
        right[:-1] = t_minus
        left[1:] = t_plus
    return PiecewiseLinearFluxField(np.array(curve.breakpoints, copy=True), left, right)


def pc_velocity(manifold: Manifold, lengths: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Plateau velocities: mutual pull of the unit tangents at each jump.

    Plateau i moves with ``(t_minus[i] - t_plus[i-1]) / lengths[i]`` for the
    ``unit_tangent_pair`` of each existing jump, all from one call of the
    target's closed-form kernel; coincident neighbours (jump size at most
    1e-15) exert no pull.
    """
    rhs = np.zeros(values.shape)
    if values.shape[0] == 1:
        return rhs
    t_minus, t_plus, d = manifold._tangent_pair(values[:-1], values[1:])
    if d.min() <= COINCIDENT_TOL:
        apart = (d > COINCIDENT_TOL)[:, None]
        t_minus = np.where(apart, t_minus, 0.0)
        t_plus = np.where(apart, t_plus, 0.0)
    rhs[:-1] = t_minus
    rhs[1:] -= t_plus
    return rhs / lengths[:, None]


def _pc_rk4(man, lengths, values, diss, dt):
    k1 = pc_velocity(man, lengths, values)
    k2 = pc_velocity(man, lengths, values + 0.5 * dt * k1)
    k3 = pc_velocity(man, lengths, values + 0.5 * dt * k2)
    k4 = pc_velocity(man, lengths, values + dt * k3)
    new_vals = values + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    # dissipation rate of a stage: sum of lengths * |velocity|^2
    e1, e2, e3, e4 = (lengths @ _dot(k, k) for k in (k1, k2, k3, k4))
    new_diss = diss + (dt / 6.0) * (e1 + 2.0 * e2 + 2.0 * e3 + e4)
    return man.project_point(new_vals), float(new_diss)


def _pursuit_collision(man, lengths, rates, values, d):
    """``(k, tau, pair dissipation)`` once the smallest jump k is below
    ``_MERGE_AHEAD_JUMP`` and 100x smaller than every other, else None.

    r = u_{k+1} - u_k follows ``r' = -c r/|r| + w`` (c = ``rates[k]``, w the
    outer pull); for a frozen w (a pursuit curve) ``c|r| + <w, r>`` falls at
    the rate ``c^2 - |w|^2`` to 0 at the collision, and the pair dissipates
    ``|r| - <w, r>/c``.  None too if w nearly cancels c.
    """
    k = int(np.argmin(d))
    if not d[k] < _MERGE_AHEAD_JUMP or np.any(np.delete(d, k) <= 100.0 * d[k]):
        return None
    t_minus, t_plus, _ = man._tangent_pair(values[:-1], values[1:])
    # a boundary neighbour's slice is empty and exerts no pull
    w = t_plus[k - 1:k].sum(0) / lengths[k] + t_minus[k + 1:k + 2].sum(0) / lengths[k + 1]
    c, wr = rates[k], w @ (values[k + 1] - values[k])
    slack = c * c - w @ w
    return None if slack <= 1e-6 * c * c else (k, (c * d[k] + wr) / slack, d[k] - wr / c)


def _merge_plateaus(man, xs, values, merge_tol):
    """Collapse every jump at or below ``merge_tol`` to its geodesic midpoint."""
    while values.shape[0] > 1:
        d = np.atleast_1d(man.dist(values[:-1], values[1:]))
        k = int(np.argmin(d))
        if d[k] > merge_tol * (1.0 + 1e-6):
            break
        mid = (
            man.geodesic_point(values[k], values[k + 1], 0.5)
            if d[k] > 1e-15
            else values[k]
        )
        values = np.vstack([values[:k], [mid], values[k + 2:]])
        xs = np.delete(xs, k)
    return xs, values


def run_exact_pc(
    u0: PiecewiseConstantCurve,
    t_max: float,
    merge_tol: float = 1e-9,
    dt: float | None = None,
    snapshot_every: int = 10,
    snapshot_times=None,
) -> FlowTrajectory:
    """Integrate the flow of a piecewise-constant datum.

    Jump locations never move; plateau values follow the coupled pull of
    the jump unit tangents (RK4).  A small isolated jump merges ahead at its
    closed-form collision time (``_pursuit_collision``) when that fits in
    one step; otherwise, once its size decays to ``merge_tol``, the
    collision time is located by bisection to 1e-12 and the two plateaus
    merge at their geodesic midpoint.  Terminates at ``t_max`` or when a
    single plateau remains.

    Cadence and merge-event records are deferred while any jump sits below
    the snapshot resolution floor (the state is then mid merge-cascade and
    its unit tangents are numerically meaningless); snapshots at explicitly
    requested ``snapshot_times`` and the final state are always recorded.
    """
    man = u0.manifold
    ok, worst, loc = jump_admissibility(u0)
    if not ok:
        raise ConvexityRadiusExceeded(
            f"jump of size {worst:.6g} at x={loc:.6g} reaches twice the "
            f"convexity radius {man.convexity_radius:.6g}"
        )
    if not t_max > 0:
        raise ConfigError("t_max must be positive")
    dt_base = float(dt) if dt is not None else min(1e-3, t_max / 32.0)
    bound = 2.0 * man.convexity_radius

    xs = np.array(u0.breakpoints, dtype=float)
    vals = np.array(u0.values, dtype=float)
    t = 0.0
    diss = 0.0
    rec = _Recorder()

    wanted = None
    if snapshot_times is not None:
        wanted = sorted(float(s) for s in snapshot_times if 0.0 < s <= t_max)

    def plateau_rates():
        # lengths and the closing-rate bound of each jump: the sum of the two
        # inverse plateau lengths
        lengths = np.diff(np.concatenate([[0.0], xs, [1.0]]))
        return lengths, 1.0 / lengths[:-1] + 1.0 / lengths[1:]

    def record(stopped_flag):
        rec.add(t, PiecewiseConstantCurve(man, xs, vals), diss, stopped_flag)

    def resolved_state():
        return vals.shape[0] == 1 or float(np.min(d)) > _SNAPSHOT_JUMP_FLOOR

    record(vals.shape[0] == 1)
    steps = 0
    # lengths and rates change only at merges; an accepted step's jump sizes
    # are those of its trial
    lengths, rates = plateau_rates()
    d = man.dist(vals[:-1], vals[1:])
    while t < t_max - 1e-14 and vals.shape[0] > 1:
        if float(np.max(d)) >= bound:
            raise ConvexityRadiusExceeded("a jump reached twice the convexity radius")
        # cap the step so no jump can close much more than a quarter of its
        # remaining gap
        guards = 0.25 * ((d - 0.5 * merge_tol) / rates)
        dt_step = min(dt_base, t_max - t, wanted[0] - t if wanted else math.inf)
        ahead = _pursuit_collision(man, lengths, rates, vals, d)
        if ahead and ahead[1] < min(dt_step, np.delete(guards, ahead[0]).min(initial=np.inf)):
            # merge at the projected length-weighted centre, which the pair's
            # mutual pull does not move, and step to the collision time
            k, tau, pair_diss = ahead
            centre = man.project_point(lengths[k:k + 2] @ vals[k:k + 2] / lengths[k:k + 2].sum())
            xs, vals = np.delete(xs, k), np.vstack([vals[:k], centre, vals[k + 2:]])
            lengths, rates = plateau_rates()
            vals, diss = _pc_rk4(man, lengths, vals, diss + pair_diss, tau)
            t += tau
        else:
            dt_step = min(dt_step, max(float(guards.min()), 1e-12))
            if dt_step < 1e-15:
                raise StepUnderflow(f"step size underflow at t={t}")
            trial_vals, trial_diss = _pc_rk4(man, lengths, vals, diss, dt_step)
            trial_d = man.dist(trial_vals[:-1], trial_vals[1:])
            if float(np.min(trial_d)) > merge_tol:
                vals, diss, d = trial_vals, trial_diss, trial_d
                t += dt_step
                steps += 1
                if wanted and t >= wanted[0] - 1e-14:
                    wanted.pop(0)
                    record(False)
                elif wanted is None and steps % snapshot_every == 0 and resolved_state():
                    record(False)
                continue
            # bisection in time for the first crossing of merge_tol
            lo, hi = 0.0, dt_step
            while hi - lo > _EVENT_TIME_TOL:
                midt = 0.5 * (lo + hi)
                mv, _ = _pc_rk4(man, lengths, vals, diss, midt)
                if float(np.min(man.dist(mv[:-1], mv[1:]))) <= merge_tol:
                    hi = midt
                else:
                    lo = midt
            vals, diss = _pc_rk4(man, lengths, vals, diss, hi)
            t += hi
            xs, vals = _merge_plateaus(man, xs, vals, merge_tol)
            lengths, rates = plateau_rates()
        d = man.dist(vals[:-1], vals[1:])
        if resolved_state():
            record(vals.shape[0] == 1)
        steps += 1
    record(vals.shape[0] == 1)
    return rec.build(man, "exact_pc", dt_base)


# ---------------------------------------------------------------------------
# scalar staircase dynamics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _ScalarSegment:
    t0: float
    t1: float
    breakpoints: np.ndarray
    values: np.ndarray
    speeds: np.ndarray
    diss0: float            # cumulative dissipation at t0
    diss_rate: float


@dataclass
class ScalarStaircaseFlow:
    """Piecewise-linear-in-time solution of the scalar staircase flow."""

    segments: list
    extinction_time: float | None
    final_value: float
    t_max: float

    def state_at(self, t: float):
        """Breakpoints and plateau values at time t (exact)."""
        if self.extinction_time is not None and t >= self.extinction_time:
            return np.zeros(0), np.array([self.final_value])
        for seg in self.segments:
            if t <= seg.t1 + 1e-15:
                tau = min(max(t - seg.t0, 0.0), seg.t1 - seg.t0)
                return np.array(seg.breakpoints, copy=True), seg.values + tau * seg.speeds
        last = self.segments[-1]
        return np.array(last.breakpoints, copy=True), last.values + (last.t1 - last.t0) * last.speeds

    def dissipation_at(self, t: float) -> float:
        if self.extinction_time is not None and t >= self.extinction_time:
            last = self.segments[-1]
            return last.diss0 + last.diss_rate * (last.t1 - last.t0)
        for seg in self.segments:
            if t <= seg.t1 + 1e-15:
                return seg.diss0 + seg.diss_rate * min(max(t - seg.t0, 0.0), seg.t1 - seg.t0)
        last = self.segments[-1]
        return last.diss0 + last.diss_rate * (last.t1 - last.t0)

    def event_times(self):
        return [seg.t1 for seg in self.segments[:-1]]


def _staircase_speeds(breakpoints, values):
    lengths = np.diff(np.concatenate([[0.0], breakpoints, [1.0]]))
    zeta = np.sign(np.diff(values))          # slope indicator at each jump
    zright = np.concatenate([zeta, [0.0]])   # boundary carries zero flux
    zleft = np.concatenate([[0.0], zeta])
    return (zright - zleft) / lengths


def run_scalar_tv(
    sigma0: PiecewiseConstantCurve, t_max: float
) -> ScalarStaircaseFlow:
    """Exact scalar staircase flow (values move, breakpoints do not).

    Plateau speeds are ``(zeta_right - zeta_left) / length`` with zeta = +-1
    by neighbour ordering and 0 at the boundary; speeds are constant between
    collisions, so merge times solve linear equations exactly.  The mean is
    conserved and the terminal constant equals the mean of the datum.
    """
    if sigma0.manifold.ambient_dim != 1 or sigma0.manifold.kind != "euclidean":
        raise ConfigError("scalar flow expects a curve on euclidean:1")
    if not t_max > 0:
        raise ConfigError("t_max must be positive")
    bp = np.array(sigma0.breakpoints, dtype=float)
    vals = np.array(sigma0.values[:, 0], dtype=float)
    t = 0.0
    diss = 0.0
    segments = []
    extinction = None
    while True:
        if vals.size == 1:
            extinction = t
            if not segments:
                segments.append(
                    _ScalarSegment(t, t_max, bp, vals.copy(), np.zeros(1), diss, 0.0)
                )
            break
        lengths = np.diff(np.concatenate([[0.0], bp, [1.0]]))
        speeds = _staircase_speeds(bp, vals)
        rate = float(np.sum(lengths * speeds * speeds))
        gaps = np.diff(vals)
        closing = np.diff(speeds)
        with np.errstate(divide="ignore", invalid="ignore"):
            t_coll = np.where(gaps * closing < 0, -gaps / closing, np.inf)
        dt_next = float(np.min(t_coll))
        if not math.isfinite(dt_next) or t + dt_next >= t_max:
            end = t_max
            segments.append(
                _ScalarSegment(t, end, bp.copy(), vals.copy(), speeds, diss, rate)
            )
            diss += rate * (end - t)
            t = end
            break
        segments.append(
            _ScalarSegment(t, t + dt_next, bp.copy(), vals.copy(), speeds, diss, rate)
        )
        diss += rate * dt_next
        vals = vals + dt_next * speeds
        t += dt_next
        # merge every pair that collided (simultaneous collisions allowed)
        hit = np.isclose(t_coll, dt_next, rtol=1e-12, atol=1e-15)
        keep_bp = ~hit
        new_vals = []
        group_start = 0
        lengths = np.diff(np.concatenate([[0.0], bp, [1.0]]))
        for i in range(vals.size):
            if i < vals.size - 1 and hit[i]:
                continue
            group = slice(group_start, i + 1)
            w = lengths[group]
            new_vals.append(float(np.sum(w * vals[group]) / np.sum(w)))
            group_start = i + 1
        bp = bp[keep_bp]
        vals = np.array(new_vals)
    mean = float(vals[-1]) if vals.size == 1 else float(np.sum(
        np.diff(np.concatenate([[0.0], bp, [1.0]])) * vals
    ))
    return ScalarStaircaseFlow(segments, extinction, mean, t_max)


def scalar_curve(breakpoints, values) -> PiecewiseConstantCurve:
    """Convenience constructor for scalar staircases on euclidean:1."""
    return PiecewiseConstantCurve(
        Euclidean(1), np.asarray(breakpoints, float), np.asarray(values, float)[:, None]
    )


def scalar_trajectory(
    flow: ScalarStaircaseFlow, sample_times=None
) -> FlowTrajectory:
    """Materialize a scalar flow as a trajectory of euclidean:1 snapshots."""
    man = Euclidean(1)
    times = set(flow.event_times())
    times.add(0.0)
    end = flow.t_max if flow.extinction_time is None else min(
        flow.t_max, flow.extinction_time
    )
    times.add(end)
    if sample_times is not None:
        times.update(float(t) for t in sample_times if 0.0 <= t <= flow.t_max)
    rec = _Recorder()
    for t in sorted(times):
        bp, vals = flow.state_at(t)
        stopped = flow.extinction_time is not None and t >= flow.extinction_time - 1e-15
        rec.add(t, PiecewiseConstantCurve(man, bp, vals[:, None]), flow.dissipation_at(t),
                stopped)
    return rec.build(man, "scalar_tv", dt_nominal=0.0)


def flow_on_geodesic(
    manifold: Manifold,
    p: np.ndarray,
    q: np.ndarray,
    sigma0: PiecewiseConstantCurve,
    t_max: float,
    sample_times=None,
) -> FlowTrajectory:
    """Flow of a datum supported on the geodesic from p to q.

    ``sigma0`` holds geodesic parameters in [0, 1].  The dynamics is the
    scalar staircase flow in arclength units transported through
    ``compose_with_geodesic``; for such data this coincides with the full
    solver.
    """
    from .curves import compose_with_geodesic

    dist_pq = float(manifold.dist(p, q))
    if dist_pq < 1e-15:
        raise DegenerateJump("geodesic endpoints coincide")
    svals = sigma0.values[:, 0]
    if np.any(svals < -1e-12) or np.any(svals > 1 + 1e-12):
        raise ConfigError("geodesic parameters must lie in [0, 1]")
    arc = scalar_curve(sigma0.breakpoints, svals * dist_pq)
    flow = run_scalar_tv(arc, t_max)
    base = scalar_trajectory(flow, sample_times)
    rec = _Recorder()
    for k, t in enumerate(base.times):
        s_curve = base.snapshots[k]
        sigma_unit = scalar_curve(s_curve.breakpoints, s_curve.values[:, 0] / dist_pq)
        rec.add(float(t), compose_with_geodesic(manifold, p, q, sigma_unit),
                float(base.dissipation[k]), bool(base.stopped[k]))
    return rec.build(manifold, "geodesic_graph", dt_nominal=0.0)
