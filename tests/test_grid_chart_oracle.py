"""Circle and cylinder grid runs against the ambient scheme of the same flow.

Circle and cylinder grid runs step as the euclidean:1 / euclidean:2 data of
their (angle, z) lift, so a test that lifts in plain numpy and compares with
a plain Euclidean loop checks the lift, not the flow.  The oracle here is the
other discretization of the same flow: the semi-implicit step in the
embedding R^2 or R^3, with diffusivities from the secant differences of
neighbouring nodes, one tridiagonal solve per column through scipy's LAPACK
``dptsv`` directly and the closest-point retraction (u + xi) / |u + xi| of the
circle part, z taken from the solve.  It is written out below and imports
nothing from ``mtvf.manifolds``.

Both schemes are first order in the step, so at the same step they differ
by a step error.  The bounds are the measured node-RMS gaps, rounded up: a
chart that moves z, drops an angle or runs its clock fast falls outside them.
"""
import numpy as np
import pytest
from scipy.linalg.lapack import dptsv

from mtvf.flows import FlowConfig, run_regularized
from mtvf.synth import noisy_field

EPSILON = 1e-3
T_MAX = 0.05
# node-RMS gap at T_MAX between a 201-node run and the ambient scheme, measured
# on noisy_field(..., noise=0.15, seed=113): 5.27e-4 and 1.67e-4.  A clock 1 %
# fast triples either gap
GRID_GAP = {"circle": 5.3e-4, "cylinder": 1.7e-4}


def _ambient_run(values, eps, dt, t_max):
    # the semi-implicit step in the embedding, each step to min(dt, what is
    # left), as the solver takes it
    u = np.array(values, dtype=float)
    n = len(u)
    h = 1.0 / (n - 1)
    t = 0.0
    while t < t_max - 1e-14:
        step = min(dt, t_max - t)
        d = u[1:] - u[:-1]
        g = step / (h * h) / np.sqrt(eps * eps + np.sum(d * d, axis=1) / (h * h))
        diagonal = np.ones(n)
        diagonal[:-1] += g
        diagonal[1:] += g
        v = np.empty_like(u)
        for j in range(u.shape[1]):
            _, _, v[:, j], info = dptsv(diagonal, -g, u[:, j])
            assert info == 0
        p = u[:, :2]
        xi = v[:, :2] - np.sum(v[:, :2] * p, axis=1)[:, None] * p
        w = p + xi
        v[:, :2] = w / np.sqrt(np.sum(w * w, axis=1))[:, None]
        u = v
        t += step
    return u


@pytest.mark.parametrize("spec", ["circle", "cylinder"])
def test_chart_run_stays_within_the_step_error_of_the_ambient_scheme(spec):
    u0 = noisy_field(spec, grid_n=201, noise=0.15, seed=113)
    traj = run_regularized(u0, FlowConfig(u0.manifold, epsilon=EPSILON, t_max=T_MAX))
    assert traj.times[-1] == pytest.approx(T_MAX, abs=1e-14)
    reference = _ambient_run(u0.values, EPSILON, traj.dt_nominal, T_MAX)
    gap = np.sqrt(np.mean(np.sum((traj.final_curve.values - reference) ** 2, axis=1)))
    assert gap <= GRID_GAP[spec]
