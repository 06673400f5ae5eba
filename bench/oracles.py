"""Reference computations that share no code with the solvers they check.

Everything here is written against plain numpy: step-function L2 gaps,
angle lifts of circle data, great-circle geometry for the endpoint
stability scan, and a replay of the scan's random stream.  Only the closed
form ``run_scalar_tv`` is taken from ``mtvf``, as the oracle for the
event-driven solver on flat scalar data.
"""
from __future__ import annotations

import hashlib

import numpy as np


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def step_mean(breakpoints, levels) -> float:
    """Length-weighted mean of a scalar step function on [0, 1]."""
    lengths = np.diff(np.concatenate([[0.0], np.asarray(breakpoints, float), [1.0]]))
    return float(lengths @ np.asarray(levels, float))


def _step_values(breakpoints, values, xs):
    return np.asarray(values)[np.searchsorted(np.asarray(breakpoints), xs, side="right")]


def circle_angle_gap(bp_a, angles_a, bp_b, points_b) -> float:
    """L2(0,1) gap between a lifted angle staircase and a step curve on the
    unit circle, measured by arc length."""
    edges = np.unique(np.concatenate([[0.0], bp_a, bp_b, [1.0]]))
    mids = 0.5 * (edges[:-1] + edges[1:])
    th = _step_values(bp_a, angles_a, mids)
    pb = _step_values(bp_b, points_b, mids)
    arc = np.arctan2(np.cos(th) * pb[:, 1] - np.sin(th) * pb[:, 0],
                     np.cos(th) * pb[:, 0] + np.sin(th) * pb[:, 1])
    return float(np.sqrt(np.sum(arc * arc * np.diff(edges))))


def lift_circle(values: np.ndarray) -> np.ndarray:
    """Angles of circle plateau values, unwrapped across each jump."""
    theta = np.arctan2(values[:, 1], values[:, 0])
    steps = np.angle(np.exp(1j * np.diff(theta)))
    return theta[0] + np.concatenate([[0.0], np.cumsum(steps)])


# ---------------------------------------------------------------------------
# geodesic endpoint stability on the unit 2-sphere
# ---------------------------------------------------------------------------


def slerp(p, q, s):
    """Points at parameters ``s`` (shape (k,)) of the minimal arc p -> q."""
    omega = np.arccos(np.clip(p @ q, -1.0, 1.0))
    so = np.sin(omega)
    a = np.sin((1.0 - s) * omega) / so
    b = np.sin(s * omega) / so
    return a[:, None] * p + b[:, None] * q


def _arc(x, y):
    return np.arctan2(np.linalg.norm(np.cross(x, y), axis=-1), np.sum(x * y, axis=-1))


def replay_stability_quadruples(n_samples: int, radius: float, seed: int) -> np.ndarray:
    """Re-draw the (p1, q1, p2, q2) quadruples of the endpoint-stability scan
    from its documented stream: a Philox generator keyed by the seed, a unit
    tangent at (1, 0, 0) from a Gaussian draw (redrawn below norm 1e-8), then
    the geodesic radius ``radius * sqrt(U)``.  Returns shape (n, 4, 3)."""
    rng = np.random.Generator(np.random.Philox(seed))
    center = np.array([1.0, 0.0, 0.0])
    out = np.empty((n_samples, 4, 3))
    for k in range(n_samples):
        for j in range(4):
            while True:
                g = rng.standard_normal(3)
                v = g - (g @ center) * center
                nv = float(np.linalg.norm(v))
                if nv > 1e-8:
                    v = v / nv
                    break
            r = radius * rng.uniform() ** 0.5
            out[k, j] = np.cos(r) * center + np.sin(r) * v
    return out


def _dist_to_arc_brute(xs, p, q, samples: int = 2001) -> np.ndarray:
    """Distance from each row of ``xs`` to the arc p -> q: dense sampling,
    then golden-section refinement around the best sample."""
    s = np.linspace(0.0, 1.0, samples)
    d = _arc(slerp(p, q, s)[None, :, :], xs[:, None, :])        # (m, samples)
    k = np.argmin(d, axis=1)
    lo, hi = s[np.maximum(k - 1, 0)], s[np.minimum(k + 1, samples - 1)]
    g = 0.5 * (np.sqrt(5.0) - 1.0)

    def f(t):
        omega = np.arccos(np.clip(p @ q, -1.0, 1.0))
        pts = (np.sin((1.0 - t) * omega)[:, None] * p + np.sin(t * omega)[:, None] * q) / np.sin(omega)
        return _arc(pts, xs)

    a, b = lo + (1 - g) * (hi - lo), lo + g * (hi - lo)
    fa, fb = f(a), f(b)
    for _ in range(60):
        left = fa < fb
        hi = np.where(left, b, hi)
        lo = np.where(left, lo, a)
        a_new = np.where(left, lo + (1 - g) * (hi - lo), b)
        b_new = np.where(left, a, lo + g * (hi - lo))
        fa_new = np.where(left, f(a_new), fb)
        fb_new = np.where(left, fa, f(b_new))
        a, b, fa, fb = a_new, b_new, fa_new, fb_new
    return np.minimum(d[np.arange(len(xs)), k], np.minimum(fa, fb))


def stability_ratio_brute(quad: np.ndarray, samples: int = 33) -> float:
    """One-sided Hausdorff distance of arc 1 from arc 2 over ``samples``
    points of arc 1, divided by the larger endpoint displacement."""
    p1, q1, p2, q2 = quad
    denom = max(float(_arc(p1, p2)), float(_arc(q1, q2)))
    if denom == 0.0:
        return 0.0
    pts = slerp(p1, q1, np.linspace(0.0, 1.0, samples))
    pts[0], pts[-1] = p1, q1
    return float(np.max(_dist_to_arc_brute(pts, p2, q2))) / denom


def stability_ratios_closed_form(quads: np.ndarray, samples: int = 33) -> np.ndarray:
    """Same ratios for many quadruples at once, with the exact distance to a
    great-circle arc (perpendicular foot if it lies on the arc, otherwise the
    nearer endpoint)."""
    p1, q1, p2, q2 = (quads[:, j] for j in range(4))
    s = np.linspace(0.0, 1.0, samples)
    omega = _arc(p1, q1)[:, None]
    so = np.sin(omega)
    pts = (np.sin((1 - s) * omega) / so)[..., None] * p1[:, None] \
        + (np.sin(s * omega) / so)[..., None] * q1[:, None]       # (n, samples, 3)
    nrm = np.cross(p2, q2)
    nhat = nrm / np.linalg.norm(nrm, axis=-1, keepdims=True)
    off = np.einsum("nsk,nk->ns", pts, nhat)
    foot = pts - off[..., None] * nhat[:, None]
    foot /= np.linalg.norm(foot, axis=-1, keepdims=True)
    span = _arc(p2, q2)[:, None]
    on_arc = (_arc(foot, p2[:, None]) <= span + 1e-12) & (_arc(foot, q2[:, None]) <= span + 1e-12)
    to_ends = np.minimum(_arc(pts, p2[:, None]), _arc(pts, q2[:, None]))
    d = np.where(on_arc, np.abs(np.arcsin(np.clip(off, -1.0, 1.0))), to_ends)
    denom = np.maximum(_arc(p1, p2), _arc(q1, q2))
    return np.where(denom > 0, d.max(axis=1) / np.where(denom > 0, denom, 1.0), 0.0)
