"""Time integrators for the constrained total variation flow of curves.

Three solvers share one trajectory container; :func:`flow` picks between the first two:

* :func:`run_regularized` — grid solver for the epsilon-regularized flow
  ``u_t = P_u (u_x / sqrt(eps^2 + |u_x|^2))_x`` with zero-flux boundary
  conditions, staggered face fluxes and projection retraction;
* :func:`run_exact_pc` — event-driven integrator for piecewise-constant
  data, evolving plateau values by the mutual pull of unit tangents while
  the jump locations stay put.  A small isolated jump closes in pair
  coordinates, its offset on the pursuit curve in closed form, and merges at
  its collision time; any other jump closes under a step guard and merges
  at ``_MERGE_TOL``.  Either way the pair merges at its length-weighted
  centre with its closed-form (pursuit-curve) dissipation;
* :func:`run_scalar_tv` — closed-form staircase dynamics for scalar data:
  plateau speeds are constant between merge events, so the solution is a
  table of segments, one per merge, and a constant terminal one from
  extinction on.

``scalar_trajectory`` records that table as euclidean:1 snapshots;
``flow_on_geodesic`` records it transported along a geodesic, which for
data on a single geodesic is the trajectory ``run_exact_pc`` follows.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .curves import (
    PiecewiseConstantCurve, SampledCurve, _refuse_wide, chord_sizes, compose_with_geodesic, mollify,
    tv_measure,
)
from .errors import CheckNotApplicable, ConfigError, GeometryError, SolverError
from .manifolds import COINCIDENT_TOL, Euclidean, Manifold, _dot, _norm

# one-step TV increase beyond this aborts the run as an unstable step
_TV_INCREASE_TOL = 1e-7
# a sampled state is constant (the flow has stopped) below this chord sum
_FLAT_TV_TOL = 1e-12
# a jump below this size and _PAIR_ISOLATION times smaller than every other
# one takes pair steps (``_pair_rk4``), which its own guard no longer limits;
# setting it to 0 switches pair steps off
_PAIR_JUMP = 1e-3
_PAIR_ISOLATION = 10.0
# the other plateaus' RK4 stages see the pair's turning offset at three times
# only, and it turns fastest just before the collision: a pair step ends at
# the collision only from a jump below _PAIR_CLOSE, and from above it spans
# at most _PAIR_SPAN closing times d / c and stops near _PAIR_CLOSE / 2
_PAIR_CLOSE = 3e-4
_PAIR_SPAN = 3.0
# resolution floor for cadence-recorded piecewise-constant snapshots: while
# any jump sits below this size the state is mid merge-cascade, and unit
# tangent directions at separation d carry O(eps_mach/d) rounding noise that
# would poison the flux reconstructed from the snapshot.  Cadence and merge records
# are deferred until the cascade finishes (a few steps); explicitly requested
# snapshot times and the final record always capture the exact state.
_SNAPSHOT_JUMP_FLOOR = 1e-7
# a jump a guarded step closes to this size or below merges
_MERGE_TOL = 1e-9


@dataclass
class FlowConfig:
    """Solver parameters, checked on construction; a set ``dt`` is at least
    1e-15, so that a step advances the time.  ``dt='auto'`` leaves the step to
    the solver: ``h / 4`` on a grid, ``min(1e-3, t_max / 32)`` in ``run_exact_pc``.
    ``epsilon`` and ``grid_n`` have no default: a set ``epsilon`` makes the run
    a grid run, and ``grid_n``, the grid's node count, needs it."""

    manifold: Manifold
    epsilon: float | None = None
    grid_n: int | None = None
    dt: float | str = "auto"
    t_max: float = 1.0
    snapshot_every: int = 10

    def __post_init__(self):
        if self.epsilon is not None and not 0 < self.epsilon < math.inf:  # NaN fails too
            raise ConfigError("epsilon must be positive and finite")
        if self.epsilon is not None and self.epsilon * self.epsilon == 0.0:
            raise ConfigError(f"epsilon = {self.epsilon:g} is too small: its square is 0")
        if not 0 < self.t_max < math.inf:
            raise ConfigError("t_max must be positive and finite")
        for name in ("grid_n", "snapshot_every"):
            value = getattr(self, name)
            if value is None and name == "grid_n":
                continue
            try:  # numpy integers are integers too
                setattr(self, name, operator.index(value))
            except TypeError:
                raise ConfigError(f"{name} must be an integer, got {value!r}") from None
        if self.grid_n is not None:
            if self.epsilon is None:
                raise ConfigError("grid_n is read by the regularized solver only, "
                                  "which runs when epsilon is set")
            if self.grid_n < 3:
                raise ConfigError("grid_n must be at least 3")
        if self.snapshot_every < 1:
            raise ConfigError("snapshot_every must be at least 1")
        if self.dt != "auto":
            if not isinstance(self.dt, (int, float)) or not 1e-15 <= float(self.dt) < math.inf:
                raise ConfigError("dt must be 'auto' or a finite number of at least 1e-15")
            self.dt = float(self.dt)


# the solver names the library's trajectory builders record
_SOLVERS = ("exact_pc", "regularized", "scalar_tv", "geodesic_graph")


@dataclass(frozen=True)
class FlowTrajectory:
    """Recorded snapshots of one run, with what they cannot give: the
    cumulative dissipation.  The manifold, flux fields and variation are
    functions of the snapshots; the variation is measured once, on first
    read.  The record is frozen: a changed run is a new trajectory
    (``dataclasses.replace``).  Whoever builds it, a record that is not a
    time series of one run is refused on construction (``ConfigError``)."""

    solver: str
    times: np.ndarray
    snapshots: tuple
    dissipation: np.ndarray      # cumulative space-time integral of |u_t|^2
    dt_nominal: float
    epsilon: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "snapshots", tuple(self.snapshots))
        if self.solver not in _SOLVERS:
            raise ConfigError(f"unknown solver {self.solver!r}; the library writes {_SOLVERS}")
        if not len(self.times) == len(self.dissipation) == len(self.snapshots) > 0:
            raise ConfigError("a trajectory needs one time and one dissipation per snapshot")
        if len({(type(s), s.manifold) for s in self.snapshots}) > 1:
            raise ConfigError("snapshots must share one kind and one manifold")
        # epsilon regularizes the grid solver, whose snapshots alone are sampled
        kind = "sampled" if isinstance(self.snapshots[0], SampledCurve) else "pc"
        if (self.epsilon is None) == (kind == "sampled"):
            raise ConfigError(f"a {kind} trajectory cannot have epsilon={self.epsilon}")
        if self.epsilon is not None and not 0.0 < self.epsilon < math.inf:
            raise ConfigError(f"epsilon={self.epsilon} is not positive and finite")
        if not 0.0 <= self.dt_nominal < math.inf:
            raise ConfigError(f"dt_nominal={self.dt_nominal} is not finite and at least 0")
        if not (np.isfinite(self.times).all() and np.all(np.diff(self.times) > 0.0)):
            raise ConfigError("snapshot times must be finite and strictly increasing")
        if not np.isfinite(self.dissipation).all():
            raise ConfigError("dissipation values must be finite")

    def __len__(self) -> int:
        return len(self.times)

    @property
    def manifold(self) -> Manifold:
        return self.snapshots[0].manifold

    @property
    def final_curve(self):
        return self.snapshots[-1]

    def index_at(self, t: float) -> int:
        """Index of the snapshot recorded at time t (within 1e-9 max(1, |t|));
        past the last snapshot, the last one, since a run ends before its
        ``t_max`` only once its state is constant.  Any other time raises
        ``CheckNotApplicable``."""
        hits = np.nonzero(np.abs(self.times - t) <= 1e-9 * max(1.0, abs(t)))[0]
        if hits.size:
            return int(hits[0])
        if t > self.times[-1]:
            return len(self.times) - 1
        raise CheckNotApplicable(f"no snapshot recorded at t={t}")

    @cached_property
    def tv(self) -> np.ndarray:
        """Variation of every snapshot by ``tv_measure``, which refuses a jump
        or chord of twice the convexity radius."""
        tv = np.array([tv_measure(s).total for s in self.snapshots])
        tv.setflags(write=False)
        return tv


class _Recorder:
    """The snapshot schedule of a run and the snapshots it recorded.

    Requested ``snapshot_times`` in (0, t_max] are recorded when a step
    reaches them (a non-finite one is a ``ConfigError``); each ends a step
    of its own, so a time within 1e-14 of the one before it is the same
    snapshot.  Without requested times every ``snapshot_every``-th step is
    recorded.  A step ending in an event (a merge, a state going flat) is
    recorded too.  Cadence and event records wait until the state is
    resolved; requested times do not.  Time 0 goes through ``add``, which
    skips a time already recorded, and the last state through ``end``.  A
    row is a time, its snapshot and the cumulative dissipation.
    """

    def __init__(self, snapshot_times, t_max, snapshot_every=1):
        self.t_max = t_max
        self.every = snapshot_every
        self.steps = 0
        self.wanted = None
        if snapshot_times is not None:
            requested = [float(s) for s in snapshot_times]
            if not all(math.isfinite(s) for s in requested):
                raise ConfigError(f"requested snapshot times must be finite, got {requested}")
            self.wanted = []
            for s in sorted(s for s in requested if 0.0 < s <= t_max):
                if not self.wanted or s - self.wanted[-1] > 1e-14:
                    self.wanted.append(s)
        self.rows = []  # (t, snapshot, cumulative dissipation)

    def horizon(self, t):
        """Longest step from t: to the next requested time, else to t_max."""
        return (self.wanted[0] if self.wanted else self.t_max) - t

    def step(self, t, event=False, resolved=lambda: True) -> bool:
        """Count a step that ended at t; whether to record its state."""
        self.steps += 1
        if self.wanted and t >= self.wanted[0] - 1e-14:
            self.wanted.pop(0)
            return True
        cadence = self.wanted is None and self.steps % self.every == 0
        return (event or cadence) and resolved()

    def add(self, t, snapshot, dissipation):
        """Record a snapshot unless one is already recorded at time t."""
        if not self.rows or abs(self.rows[-1][0] - t) >= 1e-15:
            self.rows.append((t, snapshot, dissipation))

    def end(self, t, snapshot, dissipation):
        """Record the last state unless the last row is at time t itself; unlike
        ``add`` it keeps a state within 1e-15 of that row, which merges changed."""
        if t > self.rows[-1][0]:
            self.rows.append((t, snapshot, dissipation))

    def build(self, solver, dt_nominal, epsilon=None) -> FlowTrajectory:
        times, snapshots, dissipation = zip(*self.rows)
        return FlowTrajectory(solver=solver, times=np.array(times), snapshots=snapshots,
                              dissipation=np.array(dissipation), dt_nominal=dt_nominal,
                              epsilon=epsilon)


# ---------------------------------------------------------------------------
# regularized grid solver
# ---------------------------------------------------------------------------


def _face_slopes(values: np.ndarray, h: float, epsilon: float, out=(None, None)):
    """Difference quotients ``Du`` on interior faces and ``sqrt(eps^2 + |Du|^2)``,
    written into the two arrays of ``out`` where given."""
    du = np.subtract(values[1:], values[:-1], out=out[0])
    du /= h
    g = _dot(du, du, out=out[1])
    g += epsilon * epsilon
    return du, np.sqrt(g, out=g)


def face_flux(values: np.ndarray, h: float, epsilon: float) -> np.ndarray:
    """Regularized flux ``Du / sqrt(eps^2 + |Du|^2)`` on interior faces,
    row i on the face between nodes i and i+1."""
    du, denom = _face_slopes(values, h, epsilon)
    return du / denom[:, None]


def solve_banded(diagonal, off_diagonal, rhs):
    """Solve the symmetric positive definite tridiagonal system by LAPACK
    ``?ptsv`` (LDL^T, no pivoting), leaving its arguments unchanged.  Named for
    ``bench/spans.py``, which wraps ``flows.solve_banded`` to count solves.
    scipy loads with the first solve: the exact solver never needs it."""
    from scipy.linalg.lapack import dptsv

    x, info = dptsv(diagonal, off_diagonal, rhs)[2:]
    if info:
        raise SolverError(f"tridiagonal solve failed: LAPACK ?ptsv info = {info}")
    return x


def _step_arrays(n, dim):
    """Work arrays of the semi-implicit step on an n-node state: face slopes,
    diffusivities, and the diagonal and off-diagonal of its ``?ptsv`` system."""
    return np.empty((n - 1, dim), order="F"), np.empty(n - 1), np.empty(n), np.empty(n - 1)


def _semi_implicit_step(man, u, h, dt, epsilon, out=None, work=None):
    # (I + g L_b) v = u: every row is strictly diagonally dominant, so SPD.
    # Writes the new state into out and its work into work (``_step_arrays``),
    # new arrays where not given; only the solve returns an array of its own.
    du, gb, diagonal, off = work or _step_arrays(*u.shape)
    _face_slopes(u, h, epsilon, (du, gb))
    np.divide(1.0, gb, out=gb)
    gb *= dt / (h * h)
    diagonal.fill(1.0)
    diagonal[:-1] += gb
    diagonal[1:] += gb
    try:
        v = solve_banded(diagonal, np.negative(gb, out=off), u)
    except SolverError as exc:
        # dt / (h^2 sqrt(eps^2 + |Du|^2)) on a flat face swamps the unit
        # diagonal, and the rounded factorization is no longer positive
        raise SolverError(f"{exc}; epsilon = {epsilon:g} is too small for this grid "
                          "and step") from exc
    # project_point(u + tangent_projection(u, v - u)); v is the solve's own array
    out = man.tangent_projection(u, np.subtract(v, u, out=v), out=out)
    out += u
    return man.project_point(out, out=out)


def run_regularized(
    u0: SampledCurve,
    config: FlowConfig,
    snapshot_times=None,
) -> FlowTrajectory:
    """Integrate the epsilon-regularized flow from a sampled datum.

    Each step is semi-implicit (lagged diffusivity): one symmetric positive
    definite tridiagonal solve, then a closest-point retraction.  It is
    unconditionally stable; ``dt='auto'`` takes ``h / 4``.
    ``config.epsilon`` must be set; ``config.grid_n`` is the datum's node
    count, at least 3, or unset.  Stops early once the state is constant; raises
    ``SolverError`` if the chordal variation increases in a single step and
    ``GeometryError`` if a chord reaches twice the convexity radius.
    """
    man = config.manifold
    if not isinstance(u0, SampledCurve):
        raise ConfigError("the grid solver needs a sampled curve; mollify a step curve first")
    if u0.manifold != man:
        raise ConfigError("datum and config disagree on the manifold")
    if config.epsilon is None:
        raise ConfigError("the grid solver needs epsilon")
    if config.grid_n not in (None, u0.grid_n):
        raise ConfigError(f"grid_n = {config.grid_n} but the datum has {u0.grid_n} nodes")
    config = replace(config, grid_n=u0.grid_n)  # FlowConfig refuses a grid below 3 nodes
    h = u0.h
    chords = chord_sizes(u0)
    _refuse_wide(man, chords, lambda i: i * h, "chord")
    dt = 0.25 * h if config.dt == "auto" else config.dt
    eps = config.epsilon
    # chord sums of a constant state sit at a roundoff floor that grows with
    # the face count, so the flat-state detector scales with the grid
    flat_tol = max(_FLAT_TV_TOL, 1e-14 * (u0.grid_n - 1))

    # the run's arrays, allocated once: the state and the next one, column-major
    # as LAPACK reads them without a copy, the step's work arrays, and the
    # chords (the datum's until the first step) and step distances
    u = np.array(u0.values, dtype=float, order="F")
    u_new = np.empty_like(u)
    work = _step_arrays(*u.shape)
    d_step = np.empty(u.shape[0])
    t = 0.0
    diss = 0.0
    rec = _Recorder(snapshot_times, config.t_max, config.snapshot_every)
    tv_prev = float(np.sum(chords))
    flat = tv_prev < flat_tol
    rec.add(t, SampledCurve(man, u), diss)
    while t < config.t_max - 1e-14 and not flat:
        dt_step = min(dt, rec.horizon(t))
        _semi_implicit_step(man, u, h, dt_step, eps, u_new, work)
        man.dist(u_new[:-1], u_new[1:], out=chords)
        tv_new = float(np.sum(chords))
        if tv_new > tv_prev + _TV_INCREASE_TOL:
            raise SolverError(
                f"variation increased by {tv_new - tv_prev:.3g} in one step "
                f"(dt={dt_step:.3g}); reduce the step size"
            )
        man.dist(u, u_new, out=d_step)
        diss += h * float(np.sum(np.square(d_step, out=d_step))) / dt_step
        u, u_new = u_new, u
        t += dt_step
        tv_prev = tv_new
        _refuse_wide(man, chords, lambda i: i * h, "chord")
        flat = tv_new < flat_tol
        if rec.step(t, flat):
            rec.add(t, SampledCurve(man, u), diss)
    rec.add(t, SampledCurve(man, u), diss)
    return rec.build("regularized", dt, eps)


# ---------------------------------------------------------------------------
# exact piecewise-constant solver
# ---------------------------------------------------------------------------


def _jump_tangents(manifold: Manifold, values: np.ndarray):
    """``(t_minus, t_plus)`` of every jump between consecutive plateau values,
    the flux in its one-sided limits at each breakpoint, from one call of the
    target's closed-form kernel.  Coincident neighbours (jump size at most
    ``COINCIDENT_TOL``) have no direction and get zero rows."""
    t_minus, t_plus, d = manifold._tangent_pair(values[:-1], values[1:])
    if d.min() <= COINCIDENT_TOL:
        apart = (d > COINCIDENT_TOL)[:, None]
        t_minus, t_plus = np.where(apart, t_minus, 0.0), np.where(apart, t_plus, 0.0)
    return t_minus, t_plus


def reconstruct_z_pc(curve: PiecewiseConstantCurve) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form flux of a piecewise-constant state, as two ``(m+1, N)``
    arrays ``(left, right)``: its values at the left and right end of every
    plateau, tangent at that plateau's value.

    The flux is linear on every plateau, so these are all of it.  It is zero at
    both domain ends (``left[0]``, ``right[-1]``), and at breakpoint ``i`` its
    one-sided limits ``right[i]`` and ``left[i + 1]`` are the unit tangents of
    that jump.
    """
    if not isinstance(curve, PiecewiseConstantCurve):
        raise ConfigError("the closed-form flux needs a piecewise-constant curve")
    m = curve.num_jumps
    left = np.zeros((m + 1, curve.manifold.ambient_dim))
    right = np.zeros_like(left)
    if m:
        right[:-1], left[1:] = _jump_tangents(curve.manifold, curve.values)
    return left, right


def pc_velocity(manifold: Manifold, lengths: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Plateau velocities: mutual pull of the unit tangents at each jump.

    Plateau i moves with ``(t_minus[i] - t_plus[i-1]) / lengths[i]`` for the
    ``_jump_tangents`` of the state; coincident neighbours exert no pull.
    """
    rhs = np.zeros(values.shape)
    if values.shape[0] == 1:
        return rhs
    t_minus, t_plus = _jump_tangents(manifold, values)
    rhs[:-1] = t_minus
    rhs[1:] -= t_plus
    return rhs / lengths[:, None]


def _pc_rk4(man, lengths, values, diss, dt):
    k1 = pc_velocity(man, lengths, values)
    k2 = pc_velocity(man, lengths, values + 0.5 * dt * k1)
    k3 = pc_velocity(man, lengths, values + 0.5 * dt * k2)
    k4 = pc_velocity(man, lengths, values + dt * k3)
    new_vals = values + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    # dissipation rate of a stage: sum of lengths * |velocity|^2; one matmul
    # per stage, as a stacked one rounds differently
    ks = np.array((k1, k2, k3, k4))
    e1, e2, e3, e4 = (lengths @ sq for sq in _dot(ks, ks))
    new_diss = diss + (dt / 6.0) * (e1 + 2.0 * e2 + 2.0 * e3 + e4)
    return man.project_point(new_vals), float(new_diss)


def _pursuit(r0, w, c, tau):
    """``r(tau)`` of ``r' = -c r/|r| + w`` from r0 for a frozen w, and the
    pair's dissipation ``|r'|^2/c`` over it; None unless |w| < c.

    In the plane of r0 and w, with x along w and y across it and
    kappa = |w|/c, ``|r| - x`` and ``|r| + x`` scale as ``y^(1+kappa)`` and
    ``y^(1-kappa)``, while ``c|r| + <w, r>`` falls at the rate ``c^2 - |w|^2``;
    so r(tau) is one monotone root in log y.  r stays 0 once it has closed.
    While the pair is apart, ``|r'|^2/c = (|w|^2 - c^2)/c - 2 |r|'``.
    """
    rho0, slack = math.sqrt(r0 @ r0), c * c - w @ w
    if slack <= 0.0:
        return None
    s_end = c * rho0 + w @ r0 - slack * tau
    if s_end <= 0.0:
        return np.zeros_like(r0), (rho0 - (w @ r0) / c if rho0 > 0.0 else 0.0)
    big_w = math.sqrt(w @ w)
    w_hat = w / big_w if big_w > 0.0 else w
    x0 = r0 @ w_hat
    across = r0 - x0 * w_hat
    y2 = across @ across
    # rho0 - x0 and rho0 + x0, the smaller one from their product y0^2
    lo, hi = (y2 / (rho0 + x0), rho0 + x0) if x0 >= 0.0 else (rho0 - x0, y2 / (rho0 - x0))
    kappa = big_w / c
    coef_a, coef_b = lo * (c - big_w), hi * (c + big_w)
    # log(coef_a e^{(1+kappa)s} + coef_b e^{(1-kappa)s}) is convex and rises
    # with s = log(y/y0): Newton from s = 0 falls monotonically onto the root
    target, s = math.log(2.0 * s_end), 0.0
    for _ in range(50):
        ga, gb = coef_a * math.exp((1.0 + kappa) * s), coef_b * math.exp((1.0 - kappa) * s)
        step = (math.log(ga + gb) - target) * (ga + gb) / ((1.0 + kappa) * ga + (1.0 - kappa) * gb)
        s -= step
        if step <= 1e-15 * max(1.0, -s):
            break
    x = 0.5 * (hi * math.exp((1.0 - kappa) * s) - lo * math.exp((1.0 + kappa) * s))
    r = x * w_hat + math.exp(s) * across
    return r, 2.0 * (rho0 - math.sqrt(r @ r)) - slack * tau / c


def _pair_rk4(man, lengths, values, diss, dt, k, d, c):
    """RK4 step of the state as (pair centre m, pair offset r, other plateaus).

    The pair is the two plateaus across the small jump k, of size d and
    closing rate c (``run_exact_pc``'s ``rates[k]``).  Its mutual pull, the
    pair's unit tangents from one more kernel call per stage, is taken out
    of their velocities: m moves by the rest, and r, the chord scaled to the
    jump size, by ``r' = -c r/|r| + w`` with w the rest of r'.  The pair is
    flat, as the merge rule treats it, to O(d^3).  m and the other plateaus
    take classical RK4 stages; r takes the commutator-free fourth-order
    stages of Celledoni, Marthinsen and Owren (2003) on frozen-w pursuit
    flows (``_pursuit``), which are the classical ones with no mutual pull,
    and the pair's share of the dissipation is that of the step's two flows.
    Returns None if a frozen w reaches c.
    """
    lo, hi = lengths[k], lengths[k + 1]
    chord = values[k + 1] - values[k]
    scale = math.sqrt(chord @ chord) / d
    r0, m0 = chord / scale, (lo * values[k] + hi * values[k + 1]) / (lo + hi)

    def stage(vals):
        vel = pc_velocity(man, lengths, vals)
        (t_minus,), (t_plus,) = _jump_tangents(man, vals[k:k + 2])
        m_vel = (lo * vel[k] + hi * vel[k + 1] - t_minus + t_plus) / (lo + hi)
        w = vel[k + 1] - vel[k] + t_minus / lo + t_plus / hi
        rate = lengths @ _dot(vel, vel) - lo * vel[k] @ vel[k] - hi * vel[k + 1] @ vel[k + 1]
        return vel, m_vel, w, rate + (lo + hi) * (m_vel @ m_vel)

    def at(vals, centre, flowed):
        r = scale * flowed[0]
        vals[k], vals[k + 1] = centre - (hi / (lo + hi)) * r, centre + (lo / (lo + hi)) * r
        return vals

    k1, m1, w1, e1 = stage(values)
    half = _pursuit(r0, w1, c, 0.5 * dt)
    if half is None:
        return None
    k2, m2, w2, e2 = stage(at(values + 0.5 * dt * k1, m0 + 0.5 * dt * m1, half))
    flowed = _pursuit(r0, w2, c, 0.5 * dt)
    if flowed is None:
        return None
    k3, m3, w3, e3 = stage(at(values + 0.5 * dt * k2, m0 + 0.5 * dt * m2, flowed))
    flowed = _pursuit(half[0], 2.0 * w3 - w1, c, 0.5 * dt)
    if flowed is None:
        return None
    k4, m4, w4, e4 = stage(at(values + dt * k3, m0 + dt * m3, flowed))
    mid = (w2 + w3) / 3.0
    first = _pursuit(r0, 0.5 * w1 + mid - w4 / 6.0, c, 0.5 * dt)
    if first is None:
        return None
    second = _pursuit(first[0], 0.5 * w4 + mid - w1 / 6.0, c, 0.5 * dt)
    if second is None:
        return None
    new_vals = at(values + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4),
                  m0 + (dt / 6.0) * (m1 + 2.0 * m2 + 2.0 * m3 + m4), second)
    new_diss = diss + (dt / 6.0) * (e1 + 2.0 * e2 + 2.0 * e3 + e4) + first[1] + second[1]
    return man.project_point(new_vals), float(new_diss)


def _pair_collision(man, lengths, rates, values, d, k):
    """``(tau or None, pair dissipation)`` of the plateaus across jump k.

    r = u_{k+1} - u_k follows ``r' = -c r/|r| + w`` (c = ``rates[k]``, w the
    outer pull); for a frozen w (a pursuit curve) ``c|r| + <w, r>`` falls at
    the rate ``c^2 - |w|^2`` to 0 at the collision, after tau, and the pair
    dissipates ``|r| - <w, r>/c``.  tau is None if w nearly cancels c.
    """
    t_minus, t_plus = _jump_tangents(man, values)
    # a boundary neighbour's slice is empty and exerts no pull
    w = t_plus[k - 1:k].sum(0) / lengths[k] + t_minus[k + 1:k + 2].sum(0) / lengths[k + 1]
    c, wr = rates[k], w @ (values[k + 1] - values[k])
    slack = c * c - w @ w
    return (None if slack <= 1e-6 * c * c else (c * d[k] + wr) / slack), d[k] - wr / c


def run_exact_pc(
    u0: PiecewiseConstantCurve,
    t_max: float,
    dt: float | str = "auto",
    snapshot_every: int = 10,
    snapshot_times=None,
) -> FlowTrajectory:
    """Integrate the flow of a piecewise-constant datum.

    Jump locations never move; plateau values follow the coupled pull of
    the jump unit tangents (RK4).  A step is at most ``dt`` (``'auto'``:
    ``min(1e-3, t_max / 32)``) and ends at the next requested snapshot time
    and at ``t_max``.  While the smallest jump is below 1e-3 and ten times
    smaller than every other one, and the run goes on past its pursuit
    collision time tau*, the step is a pair step (``_pair_rk4``): the pair's
    offset follows the pursuit curve in closed form, so the step is limited
    by tau* and the guard of every other jump, not by the jump's own guard.
    Otherwise every jump's guard (a quarter of its gap over its closing
    rate; below the 1e-12 step floor, half its gap over its actual closing
    speed) limits the step.  Two plateaus merge by one rule: the pair is
    replaced by its projected length-weighted centre and books its
    closed-form dissipation (``_pair_collision``), at the end of a pair step
    that reaches tau* and for every jump a step closes to ``_MERGE_TOL``, or
    at once for a jump that closes head-on with its actual-speed guard below
    the floor.
    Terminates at ``t_max`` or when a single plateau remains.  Arguments
    follow ``FlowConfig``'s rules and raise ``ConfigError`` otherwise.

    Cadence and merge-event records are deferred while any jump sits below
    the snapshot resolution floor (the state is then mid merge-cascade and
    its unit tangents are numerically meaningless); snapshots at explicitly
    requested ``snapshot_times`` and the final state are always recorded.
    """
    if not isinstance(u0, PiecewiseConstantCurve):
        raise ConfigError("the exact solver needs a piecewise-constant curve: a sampled "
                          "input runs on the regularized solver, set epsilon")
    man = u0.manifold
    config = FlowConfig(man, t_max=t_max, snapshot_every=snapshot_every, dt=dt)
    _refuse_wide(man, chord_sizes(u0), lambda i: u0.breakpoints[i], "jump")
    dt_base = min(1e-3, t_max / 32.0) if config.dt == "auto" else config.dt

    xs = np.array(u0.breakpoints, dtype=float)
    vals = np.array(u0.values, dtype=float)
    t = 0.0
    diss = 0.0
    rec = _Recorder(snapshot_times, t_max, snapshot_every)

    def measure():
        # plateau lengths, the closing-rate bound of each jump (the sum of the
        # two inverse plateau lengths) and the jump sizes
        lengths = np.diff(np.concatenate([[0.0], xs, [1.0]]))
        return lengths, 1.0 / lengths[:-1] + 1.0 / lengths[1:], man.dist(vals[:-1], vals[1:])

    def merge(k):
        # book the pair's closed-form dissipation and put it at its projected
        # length-weighted centre, which its mutual pull does not move
        nonlocal xs, vals, diss, lengths, rates, d
        diss += _pair_collision(man, lengths, rates, vals, d, k)[1]
        centre = man.project_point(lengths[k:k + 2] @ vals[k:k + 2] / lengths[k:k + 2].sum())
        xs, vals = np.delete(xs, k), np.vstack([vals[:k], centre, vals[k + 2:]])
        lengths, rates, d = measure()

    def resolved_state():
        return vals.shape[0] == 1 or d.min() > _SNAPSHOT_JUMP_FLOOR

    rec.add(t, PiecewiseConstantCurve(man, xs, vals), diss)
    # lengths and rates change only at merges
    lengths, rates, d = measure()
    while t < t_max - 1e-14 and vals.shape[0] > 1:
        plateaus = vals.shape[0]
        # cap the step so no jump can close much more than a quarter of its
        # remaining gap: at closing speed at most 2 * rates a guarded step
        # leaves every jump above half its gap, so none crosses zero
        guards = 0.25 * ((d - 0.5 * _MERGE_TOL) / rates)
        dt_step = min(dt_base, rec.horizon(t))
        k = int(d.argmin())
        stepped = None
        if d[k] < _PAIR_JUMP and (np.delete(d, k) > _PAIR_ISOLATION * d[k]).all():
            tau = _pair_collision(man, lengths, rates, vals, d, k)[0]
            # a run that ends before the pair collides ends on guarded steps
            if tau is not None and tau < t_max - t:
                dt_step = min(dt_step, np.delete(guards, k).min(initial=np.inf), tau)
                if d[k] >= _PAIR_CLOSE:
                    dt_step = min(dt_step, tau * (1.0 - 0.5 * _PAIR_CLOSE / d[k]),
                                  _PAIR_SPAN * d[k] / rates[k])
                stepped = _pair_rk4(man, lengths, vals, diss, dt_step, k, d[k], rates[k])
        if stepped is None:
            if guards.min() < 1e-12:
                # a narrow plateau's rates dwarf the closing speed of its jumps
                # once it is pulled both ways: guard by the actual speeds
                vel = pc_velocity(man, lengths, vals)
                rel = vel[1:] - vel[:-1]
                speed = _norm(rel)
                with np.errstate(divide="ignore"):
                    guards = 0.5 * (d - 0.5 * _MERGE_TOL) / speed
                # a floored step would carry such a plateau across a jump that
                # closes head-on and is guarded below the floor: merge the first
                # to close now, and if it was the last, end the run at its
                # closing time.  A plateau pulled aslant heads for the geodesic
                # between its neighbours
                closing = -_dot(rel, _jump_tangents(man, vals)[0])
                head_on = (closing >= (1.0 - 1e-9) * speed) & (guards < 1e-12)
                pace = np.where(head_on, closing / d, 0.0)
                if head_on.any():
                    merge(int(pace.argmax()))
                    if vals.shape[0] == 1:
                        t += 1.0 / pace.max()
                    if rec.step(t, True, resolved_state):
                        rec.add(t, PiecewiseConstantCurve(man, xs, vals), diss)
                    continue
            dt_step = min(dt_step, max(float(guards.min()), 1e-12))
            vals, diss = _pc_rk4(man, lengths, vals, diss, dt_step)
        else:
            vals, diss = stepped
        t += dt_step
        d = man.dist(vals[:-1], vals[1:])
        _refuse_wide(man, d, lambda i: xs[i], "jump")
        if stepped is not None and dt_step == tau:
            merge(k)
        # merge every jump the step closed to _MERGE_TOL, smallest first
        while vals.shape[0] > 1 and d.min() <= _MERGE_TOL:
            merge(int(d.argmin()))
        if rec.step(t, vals.shape[0] < plateaus, resolved_state):
            rec.add(t, PiecewiseConstantCurve(man, xs, vals), diss)
    rec.end(t, PiecewiseConstantCurve(man, xs, vals), diss)
    return rec.build("exact_pc", dt_base)


def flow(curve, config: FlowConfig, snapshot_times=None) -> FlowTrajectory:
    """Flow ``curve`` by ``config``: without ``epsilon`` on the exact solver, a step
    curve only; with it on the grid solver, a sampled curve on its own grid or a step
    curve mollified onto ``grid_n`` nodes.  Each refusal is a ``ConfigError``."""
    if curve.manifold != config.manifold:
        raise ConfigError(f"input curve lives on {curve.manifold.spec_id}, "
                          f"config says {config.manifold.spec_id}")
    if config.epsilon is None:
        return run_exact_pc(curve, t_max=config.t_max, dt=config.dt,
                            snapshot_every=config.snapshot_every, snapshot_times=snapshot_times)
    if isinstance(curve, PiecewiseConstantCurve):
        if config.grid_n is None:
            raise ConfigError("a step input is mollified onto grid_n nodes: set grid_n")
        curve = mollify(curve, config.grid_n)
    return run_regularized(curve, config, snapshot_times)


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
    """Piecewise-linear-in-time solution of the scalar staircase flow: one
    segment per merge, the last ending at ``t_max``, and from extinction on a
    constant terminal segment (one plateau, zero speed, zero dissipation)."""

    segments: list
    extinction_time: float | None
    final_value: float
    t_max: float

    def _at(self, t: float):
        """The segment holding time t and the clamped time into it.  A segment
        holds its closed interval, so a merge time reads the state just before
        the merge; the terminal segment holds every time from extinction on."""
        seg = self.segments[-1]
        if self.extinction_time is None or t < self.extinction_time:
            seg = next((s for s in self.segments if t <= s.t1 + 1e-15), seg)
        return seg, min(max(t - seg.t0, 0.0), seg.t1 - seg.t0)

    def state_at(self, t: float):
        """Breakpoints and plateau values at time t (exact)."""
        seg, tau = self._at(t)
        return np.array(seg.breakpoints, copy=True), seg.values + tau * seg.speeds

    def dissipation_at(self, t: float) -> float:
        seg, tau = self._at(t)
        return seg.diss0 + seg.diss_rate * tau

    def event_times(self):
        """Times of every merge, the last one the extinction when it comes
        before ``t_max``."""
        return [seg.t1 for seg in self.segments[:-1]]


def run_scalar_tv(sigma0: PiecewiseConstantCurve, t_max: float) -> ScalarStaircaseFlow:
    """Exact scalar staircase flow (values move, breakpoints do not).

    Plateau speeds are ``(zeta_right - zeta_left) / length`` with zeta = +-1
    by neighbour ordering and 0 at the boundary; speeds are constant between
    collisions, so merge times solve linear equations exactly.  The mean is
    conserved and the terminal constant equals the mean of the datum.
    """
    if not isinstance(sigma0, PiecewiseConstantCurve) or sigma0.manifold != Euclidean(1):
        raise ConfigError("scalar flow expects a step curve on euclidean:1")
    FlowConfig(sigma0.manifold, t_max=t_max)  # refuses a t_max not positive and finite
    bp = np.array(sigma0.breakpoints, dtype=float)
    vals = np.array(sigma0.values[:, 0], dtype=float)
    t = diss = 0.0
    segments = []
    while vals.size > 1:
        lengths = np.diff(np.concatenate([[0.0], bp, [1.0]]))
        gaps = np.diff(vals)
        # slope indicator at each jump; the boundary carries zero flux
        zeta = np.concatenate([[0.0], np.sign(gaps), [0.0]])
        speeds = np.diff(zeta) / lengths
        rate = float(np.sum(lengths * speeds * speeds))
        closing = np.diff(speeds)
        with np.errstate(divide="ignore", invalid="ignore"):
            t_coll = np.where(gaps * closing < 0, -gaps / closing, np.inf)
        dt = float(np.min(t_coll))
        end = min(t + dt, t_max)
        segments.append(_ScalarSegment(t, end, bp, vals, speeds, diss, rate))
        if end == t_max:
            break
        diss += rate * dt
        t = end
        # merge every collided group (simultaneous collisions allowed) at its
        # length-weighted mean; bincount sums each group left to right.  A tie
        # is relative to dt: an absolute slack would merge a jump that closes
        # later than a tiny dt
        hit = t_coll <= dt * (1.0 + 1e-12)
        group = np.concatenate([[0], np.cumsum(~hit)])
        vals = np.bincount(group, lengths * (vals + dt * speeds)) / np.bincount(group, lengths)
        bp = bp[~hit]
    if vals.size > 1:
        return ScalarStaircaseFlow(segments, None, float(np.sum(lengths * vals)), t_max)
    segments.append(_ScalarSegment(t, t_max, bp, vals, np.zeros(1), diss, 0.0))
    return ScalarStaircaseFlow(segments, t, float(vals[0]), t_max)


def scalar_curve(breakpoints, values) -> PiecewiseConstantCurve:
    """Step curve on euclidean:1 with these breakpoints and plateau values,
    the body of ``synth.staircase`` too."""
    return PiecewiseConstantCurve(Euclidean(1), breakpoints, np.reshape(values, (-1, 1)))


def _staircase_trajectory(flow, sample_times, solver, curve_at) -> FlowTrajectory:
    """Record ``curve_at(breakpoints, values)`` at time 0, every merge, the
    end of the flow and the sample times within ``[0, t_max]``."""
    times = flow.event_times() + ([flow.t_max] if flow.extinction_time is None else [])
    rec = _Recorder(times if sample_times is None else [*times, *sample_times], flow.t_max)
    for t in [0.0, *rec.wanted]:
        rec.add(t, curve_at(*flow.state_at(t)), flow.dissipation_at(t))
    return rec.build(solver, dt_nominal=0.0)


def scalar_trajectory(flow: ScalarStaircaseFlow, sample_times=None) -> FlowTrajectory:
    """Materialize a scalar flow as a trajectory of euclidean:1 snapshots."""
    return _staircase_trajectory(flow, sample_times, "scalar_tv", scalar_curve)


def flow_on_geodesic(
    manifold: Manifold,
    p: np.ndarray,
    q: np.ndarray,
    sigma0: PiecewiseConstantCurve,
    t_max: float,
    sample_times=None,
) -> FlowTrajectory:
    """Flow of a datum supported on the geodesic from p to q.

    ``sigma0`` is a curve on euclidean:1 holding geodesic parameters in
    [0, 1].  The dynamics is the scalar staircase flow in arclength units
    transported through ``compose_with_geodesic``; for such data this
    coincides with the full solver.
    """
    dist_pq = float(manifold.dist(p, q))
    if dist_pq < 1e-15:
        raise GeometryError("geodesic endpoints coincide")
    compose_with_geodesic(manifold, p, q, sigma0)  # refuses sigma0 off euclidean:1 or [0, 1]
    flow = run_scalar_tv(scalar_curve(sigma0.breakpoints, sigma0.values[:, 0] * dist_pq), t_max)
    return _staircase_trajectory(
        flow, sample_times, "geodesic_graph",
        lambda bp, vals: compose_with_geodesic(manifold, p, q, scalar_curve(bp, vals / dist_pq)),
    )
