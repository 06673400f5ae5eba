"""Direct-call timings of single kernels, for the traced run.

Each figure is the median over several chunks of back-to-back calls on
seeded inputs, divided by the calls per chunk, in microseconds.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

CHUNKS = 7
CHUNK_S = 0.004


def per_call_us(fn) -> float:
    fn()
    n = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        if time.perf_counter() - t0 >= CHUNK_S or n >= 1 << 16:
            break
        n *= 2
    samples = []
    for _ in range(CHUNKS):
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        samples.append((time.perf_counter() - t0) / n)
    return statistics.median(samples) * 1e6


def _pair(man, rng, size):
    shape = () if size == 1 else (size,)
    p = man.random_point(rng, shape)
    v = man.random_tangent(rng, p)
    v = 0.5 * v / np.linalg.norm(v, axis=-1, keepdims=True)
    return p, man.exp(p, v), v


def manifold_kernels(mtvf, seed: int) -> dict:
    out = {}
    for spec, tag in (("euclidean:2", "euclidean2"), ("sphere:3", "sphere3"),
                      ("circle", "circle"), ("cylinder", "cylinder")):
        man = mtvf.manifolds.parse_manifold(spec)
        rng = np.random.Generator(np.random.Philox([seed, 1000]))
        for size, suffix in ((1, "b1"), (10_000, "b10k")):
            p, q, v = _pair(man, rng, size)
            x = p * 1.25 + 0.01
            calls = {
                "dist": lambda: man.dist(p, q),
                "log": lambda: man.log(p, q),
                "exp": lambda: man.exp(p, v),
                "project_point": lambda: man.project_point(x),
                "unit_tangent_pair": lambda: man.unit_tangent_pair(p, q),
            }
            for op, fn in calls.items():
                out[f"manifolds.{op}.{tag}.{suffix}_us"] = per_call_us(fn)
    return out


def pc_velocity(mtvf, seed: int) -> dict:
    out = {}
    for spec, tag in (("euclidean:2", "euclidean2"), ("sphere:3", "sphere3"),
                      ("circle", "circle"), ("cylinder", "cylinder")):
        man = mtvf.manifolds.parse_manifold(spec)
        rng = np.random.Generator(np.random.Philox([seed, 1001]))
        u0 = mtvf.synth.random_rad_curve(man, rng, n_jumps=4)
        lengths, values = u0.plateau_lengths(), u0.values
        out[f"flows.pc_velocity.{tag}_us"] = per_call_us(
            lambda: mtvf.flows.pc_velocity(man, lengths, values))
    return out


def regularized_steps(mtvf, seed: int, steps: int = 40) -> dict:
    """Wall time of a short run_regularized call divided by its step count."""
    out = {}
    for n in (201, 1001, 10001):
        u = mtvf.synth.noisy_field("sphere:3", grid_n=n, seed=seed)
        t_max = steps * 0.25 / (n - 1)
        cfg = mtvf.flows.FlowConfig(manifold=u.manifold, epsilon=1e-3, grid_n=n, t_max=t_max)
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            mtvf.flows.run_regularized(u, cfg, snapshot_times=[t_max])
            times.append(time.perf_counter() - t0)
        out[f"flows.regularized.step_us.n{n}"] = statistics.median(times) / steps * 1e6
    return out


def all_kernels(mtvf, seed: int) -> dict:
    out = manifold_kernels(mtvf, seed)
    out.update(pc_velocity(mtvf, seed))
    out.update(regularized_steps(mtvf, seed))
    return out
