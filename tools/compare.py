"""How far the outputs of this checkout's ``src/`` moved from another tree's.

    python tools/compare.py BASE_SRC OUT_DIR

Each tree runs the lists below in a child process (one process cannot import two
``mtvf``) and saves to ``base.npz`` or ``head.npz`` in the existing OUT_DIR a sha256
per item, the ``pc_velocity`` calls of the 80 exact runs, and each exact and grid run
again at 24 requested times, a fixed clock.  README.md says what each line means.
"""
import hashlib
import os
import pathlib
import subprocess
import sys

import numpy as np

CLOCK = np.arange(1, 25) / 24.0


def run_tree(src, out):
    """Run every item on the ``mtvf`` in ``src``; save what it gives to ``out`` + ``.npz``."""
    sys.path.insert(0, src)
    import mtvf.flows
    from mtvf import (CheckNotApplicable, FlowConfig, GeometryError, SampledCurve, SolverError,
                      check_energy, check_monotone_variation, check_sphere_equivalence,
                      detect_stopping, mollify, parse_manifold, run_exact_pc, run_regularized,
                      tv_measure)
    from mtvf.io import curve_to_text, write_trajectory
    from mtvf.lab import geodesic_endpoint_stability, hessian_comparison_check
    from mtvf.synth import SUITE_MANIFOLDS, noisy_field, suite, two_jump_sphere_example
    np.set_printoptions(floatmode="unique", threshold=sys.maxsize)  # reprs keep every bit
    items, clock, real, calls = [], {}, mtvf.flows.pc_velocity, []
    mtvf.flows.pc_velocity = lambda *args: calls.append(1) or real(*args)  # where run_exact_pc looks
    def item(label, h):
        items.append((label, h.hexdigest()))
        return len(items) - 1
    def outputs(label, traj):
        h = hashlib.sha256(traj.times.tobytes() + traj.dissipation.tobytes())
        for snap in traj.snapshots:
            h.update((snap.breakpoints.tobytes() if label == "exact" else b"") + snap.values.tobytes())
        return item(label, h)
    def derived(traj, checks):
        # the bytes of the run's CSV files, then its variation and the verifier's reports
        paths = [out + ".trajectory.csv", out + ".diagnostics.csv"]
        write_trajectory(*paths, traj)
        item("csv", hashlib.sha256(curve_to_text(traj.final_curve).encode()
                                   + b"".join(pathlib.Path(path).read_bytes() for path in paths)))
        h = hashlib.sha256(traj.tv.tobytes())
        for check in checks:
            try:
                h.update(repr(check(traj)).encode())
            except CheckNotApplicable as exc:  # sphere identities on a flat target
                h.update(repr(exc).encode())
        item("verify", h)
    def on_clock(j, traj, t_max):
        # item j's run at t_max * CLOCK; past its last record a run's state is constant
        rows = np.searchsorted(traj.times, t_max * CLOCK + 1e-12, side="right") - 1
        clock[f"{j}.kind"] = np.array(f"{traj.solver} {traj.manifold.spec_id}")
        clock[f"{j}.dissipation"] = traj.dissipation[rows]
        for i, r in enumerate(rows):
            clock[f"{j}.values.{i}"] = traj.snapshots[r].values
            if traj.solver == "exact_pc":
                clock[f"{j}.breakpoints.{i}"] = traj.snapshots[r].breakpoints
    def hessians(rngs, radii, directions):
        h = hashlib.sha256()
        for man, rng in zip(map(parse_manifold, SUITE_MANIFOLDS), rngs):
            for r, k in zip(radii, directions):
                p0 = man.random_point(rng)
                v, nv = man.random_direction(rng, p0)
                h.update(repr(hessian_comparison_check(
                    man, p0, man.exp(p0, (r / nv) * v), k, rng=rng)).encode())
        item("lab", h)
    exact = []
    for u0 in (u0 for curves in suite(seed=7).values() for u0 in curves):
        traj = run_exact_pc(u0, t_max=4.0 * tv_measure(u0).total)
        exact.append((outputs("exact", traj), u0))
        derived(traj, [check_energy, check_monotone_variation, check_sphere_equivalence,
                       detect_stopping])
    count = len(calls)
    for j, u0 in exact:  # the clock spans a quarter of the datum's jump sum
        quarter = 0.25 * tv_measure(u0).total
        on_clock(j, run_exact_pc(u0, quarter, snapshot_times=quarter * CLOCK), quarter)
    # a noisy field on each target (three seeds) and the mollified criterion-8 datum
    fields = [noisy_field(m, grid_n=201, seed=s) for m in SUITE_MANIFOLDS for s in range(3)]
    for u in fields + [mollify(two_jump_sphere_example(), 201)]:
        config = FlowConfig(u.manifold, epsilon=1e-2, t_max=0.01)
        traj = run_regularized(u, config)
        j = outputs("grid", traj)
        derived(traj, [check_energy])
        on_clock(j, run_regularized(u, config, 0.01 * CLOCK), 0.01)
    # long steps that take each seed-7 field flat long before t_max, and a
    # datum with an antipodal neighbour pair, which the grid solver refuses
    for m in SUITE_MANIFOLDS:
        for n in (33, 201):
            u = noisy_field(m, grid_n=n, noise=0.15, seed=7)
            config = FlowConfig(u.manifold, epsilon=1.0, dt=1.0, t_max=40.0)
            j = outputs("rules", run_regularized(u, config))
            on_clock(j, run_regularized(u, config, 40.0 * CLOCK), 40.0)
    sphere = parse_manifold("sphere:3")
    p = sphere.random_point(np.random.Generator(np.random.Philox(12)))
    try:
        run_regularized(SampledCurve(sphere, np.array([p, p, -p, -p])), FlowConfig(sphere, epsilon=1e-2))
        item("rules", hashlib.sha256(b"not refused"))
    except GeometryError as exc:
        item("rules", hashlib.sha256(str(exc).encode()))
    # per curved target, 120 data with a neighbour pair at or just short
    # of the half turn: each run's outputs or its refusal message
    for m in ("sphere:3", "circle", "cylinder"):
        man, h = parse_manifold(m), hashlib.sha256()
        for seed in range(30):
            rng = np.random.Generator(np.random.Philox([seed, 9]))
            for n, delta in zip((3, 5, 8, 33), (0.0, 1e-12, 1e-9, 3e-8)):
                p = man.project_point(rng.standard_normal(man.ambient_dim))
                v, _ = man.random_direction(rng, p)
                if m == "cylinder":  # around the circle, at p's height
                    v[2] = 0.0
                antipode = p * [-1.0, -1.0, 1.0] if m == "cylinder" else -p
                q = man.exp(p, (np.pi - delta) / np.linalg.norm(v) * v) if delta else antipode
                u = SampledCurve(man, np.array([p, p, q] + [q] * (n - 3)))
                try:
                    traj = run_regularized(u, FlowConfig(man, epsilon=1e-2, t_max=4 * u.h))
                    h.update(traj.times.tobytes() + traj.snapshots[-1].values.tobytes())
                except (GeometryError, SolverError) as exc:
                    h.update(repr(exc).encode())
        item("rules", h)
    # the pinned seed-0 scan and three more; 50 Hessian checks on each target from
    # one generator, and ten 64-direction checks on each, as mtvf lab hessian draws them
    for n, radius, seed in [(10_000, 1.0, 0), (300, 0.8, 3), (300, 0.3, 5), (300, 1.2, 7)]:
        item("lab", hashlib.sha256(geodesic_endpoint_stability(n, radius, seed).ratios.tobytes()))
    hessians([np.random.Generator(np.random.Philox(9))] * 4, [0.6] * 50, [1 + i % 16 for i in range(50)])
    hessians([np.random.Generator(np.random.Philox([10, 2])) for _ in SUITE_MANIFOLDS],
             np.linspace(0.1, 1.0, 10), [64] * 10)
    labels, digests = zip(*items)
    np.savez(out, labels=labels, digests=digests, calls=count, **clock)


def l2_gap(base, head, j, i):
    """Ambient L² distance between the trees' item-j states at clock time i."""
    va, vb = base[f"{j}.values.{i}"], head[f"{j}.values.{i}"]
    if f"{j}.breakpoints.{i}" not in head:  # sampled: the trapezoid rule on the nodes
        return np.sqrt(np.trapezoid(np.sum((va - vb) ** 2, axis=1), dx=1.0 / (len(va) - 1)))
    xa, xb = base[f"{j}.breakpoints.{i}"], head[f"{j}.breakpoints.{i}"]
    x = np.union1d(np.concatenate([xa, xb]), [0.0, 1.0])  # the merged partition
    mid = 0.5 * (x[:-1] + x[1:])
    diff = va[np.searchsorted(xa, mid, side="right")] - vb[np.searchsorted(xb, mid, side="right")]
    return np.sqrt(np.diff(x) @ np.sum(diff ** 2, axis=1))


def report(base_path, head_path):
    """The summary lines of two saved trees, base first."""
    base, head = dict(np.load(base_path)), dict(np.load(head_path))
    lines, worst = [], {}
    # the items with a clock array that moved; item j's are saved as "j.<name>"
    moved = {key.partition(".")[0] for key in head if not np.array_equal(base.get(key), head[key])}
    for label in ("exact", "grid", "rules", "csv", "verify", "lab"):
        js = [j for j, name in enumerate(head["labels"]) if name == label]
        k = sum(base["digests"][j] != head["digests"][j] or str(j) in moved for j in js)
        lines.append(f"{label}: " + (f"differs in {k} of {len(js)}" if k else "identical"))
    lines.append(f"pc_velocity calls: base {base['calls']}, head {head['calls']}")
    for j in (j for j in range(len(head["labels"])) if f"{j}.kind" in head):
        gaps = worst.setdefault(str(head[f"{j}.kind"]), ([0.0], [0.0]))
        gaps[0].extend(l2_gap(base, head, j, i) for i in range(len(CLOCK)))
        gaps[1].extend(np.abs(head[f"{j}.dissipation"] - base[f"{j}.dissipation"]))
    return lines + ["Largest gap between the trees on the fixed clock:", "",
                    "| solver | target | L² | abs. dissipation |", "|---|---|---|---|"] + [
        f"| {kind.replace(' ', ' | ')} | {max(l2):.2g} | {max(diss):.2g} |"
        for kind, (l2, diss) in sorted(worst.items())]


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    here = os.path.dirname(os.path.abspath(__file__))
    child = f"import sys; sys.path.insert(0, {here!r}); import compare; compare.run_tree(*sys.argv[1:])"
    outs = [os.path.join(sys.argv[2], name) for name in ("base", "head")]
    runs = [subprocess.Popen([sys.executable, "-c", child, os.path.abspath(src), out])
            for src, out in zip((sys.argv[1], os.path.join(os.path.dirname(here), "src")), outs)]
    base_failed, head_failed = [run.wait() for run in runs]
    if head_failed:
        sys.exit("the comparison did not run on this checkout's src/")
    print("Solver and lab outputs: not compared, the base tree's src/ did not run the script"
          if base_failed else "\n".join(report(*(out + ".npz" for out in outs))))
