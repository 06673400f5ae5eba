"""Command-line interface.

Exit codes: 0 success, 2 configuration/usage errors, 3 geometry violations
(inadmissible jumps, out-of-range constructions), 4 failed verification
checks.
"""
from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

import numpy as np

from . import __version__
from .curves import (
    PiecewiseConstantCurve,
    auto_ramp,
    mollify,
    tv_measure,
)
from .errors import ConfigError, GeometryError, MtvfError, VerificationError
from .flows import FlowConfig, run_exact_pc, run_regularized
from .io import (
    config_to_text,
    flow_config_from_mapping,
    fmt,
    parse_config_text,
    parse_dt,
    read_curve,
    read_trajectory,
    write_curve,
    write_manifest,
    write_reports,
    write_trajectory,
    _atomic_write_text,
)
from .lab import (
    first_positive_gap,
    geodesic_endpoint_stability,
    hessian_comparison_check,
    midpoint_separation,
    semiconvexity_gap,
)
from .manifolds import parse_manifold
from .synth import noisy_field, staircase, two_jump_square
from .verify import (
    CheckReport,
    check_energy,
    check_monotone_variation,
    check_sphere_equivalence,
    detect_stopping,
)


def _emit(text: str, out: str | None) -> None:
    if out:
        _atomic_write_text(out, text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# flow / denoise
# ---------------------------------------------------------------------------


# config keys each solver reads; a run given any other key is refused
_EXACT_KEYS = ("manifold", "dt", "t_max", "merge_tol", "snapshot_every")
_REGULARIZED_KEYS = ("manifold", "epsilon", "grid_n", "dt", "t_max", "snapshot_every", "scheme")
# option name -> FlowConfig field
_OVERRIDES = {"eps": "epsilon", "grid": "grid_n", "dt": "dt", "t_max": "t_max",
              "manifold": "manifold"}


def cmd_flow(args) -> int:
    with open(args.config) as handle:
        given = parse_config_text(handle.read())
    given.update((field, getattr(args, opt)) for opt, field in _OVERRIDES.items()
                 if getattr(args, opt) is not None)
    cfg = flow_config_from_mapping(given)
    curve = read_curve(args.input)
    if curve.manifold != cfg.manifold:
        raise ConfigError(
            f"input curve lives on {curve.manifold.spec_id}, "
            f"config says {cfg.manifold.spec_id}"
        )
    solver = args.solver
    if solver == "auto":
        solver = "exact" if isinstance(curve, PiecewiseConstantCurve) else "regularized"
    if solver == "exact":
        read = _EXACT_KEYS
        if not isinstance(curve, PiecewiseConstantCurve):
            raise ConfigError("the exact solver needs piecewise-constant input")
    else:
        # cfl_factor only sets the explicit scheme's automatic step
        explicit_auto = cfg.scheme == "explicit" and cfg.dt == "auto"
        read = _REGULARIZED_KEYS + (("cfl_factor",) if explicit_auto else ())
        if "epsilon" not in given:
            raise ConfigError(
                "the regularized solver needs 'epsilon' in the config file or --eps"
            )
    unread = sorted(set(given) - set(read))
    if unread:
        raise ConfigError(f"the {solver} solver does not read {', '.join(unread)}")
    if solver == "exact":
        traj = run_exact_pc(
            curve,
            t_max=cfg.t_max,
            merge_tol=cfg.merge_tol,
            dt=None if cfg.dt == "auto" else cfg.dt,
            snapshot_every=cfg.snapshot_every,
        )
    else:
        if isinstance(curve, PiecewiseConstantCurve):
            curve = mollify(curve, cfg.grid_n, auto_ramp(curve, cfg.grid_n))
        elif "grid_n" not in given:  # a sampled input sets the grid
            cfg = replace(cfg, grid_n=curve.grid_n)
        traj = run_regularized(curve, cfg)
    os.makedirs(args.out, exist_ok=True)
    traj_path = os.path.join(args.out, "trajectory.csv")
    diag_path = os.path.join(args.out, "diagnostics.csv")
    cfg_path = os.path.join(args.out, "config.txt")
    write_trajectory(traj_path, diag_path, traj)
    _atomic_write_text(cfg_path, config_to_text(cfg, read))
    write_manifest(
        os.path.join(args.out, "manifest.json"),
        "flow",
        {"solver": solver, "config_file": os.path.basename(args.config)},
        [args.config, args.input],
        [traj_path, diag_path, cfg_path],
    )
    stop = detect_stopping(traj)
    status = f"stopped at t={fmt(stop[0])}" if stop else "not stopped"
    print(f"{solver} run: {len(traj)} snapshots, final TV {fmt(traj.tv[-1])}, {status}")
    return 0


def cmd_denoise(args) -> int:
    curve = read_curve(args.input)
    man = curve.manifold
    if args.manifold is not None and parse_manifold(args.manifold) != man:
        raise ConfigError("input curve does not match --manifold")
    if isinstance(curve, PiecewiseConstantCurve):
        raise ConfigError("denoise expects a sampled curve")
    tv0 = tv_measure(curve).total
    t_stop = args.t_stop
    t_max = t_stop if t_stop is not None else max(4.0 * tv0, 1e-6)
    cfg = FlowConfig(
        manifold=man,
        epsilon=args.eps,
        grid_n=curve.grid_n,
        t_max=t_max,
    )
    traj = run_regularized(curve, cfg)
    pick = len(traj) - 1
    if t_stop is None:
        target = args.tv_fraction * tv0
        below = np.nonzero(traj.tv <= target)[0]
        if below.size:
            pick = int(below[0])
    out_curve = traj.snapshots[pick]
    os.makedirs(args.out, exist_ok=True)
    out_path = os.path.join(args.out, "denoised.csv")
    write_curve(out_path, out_curve)
    write_manifest(
        os.path.join(args.out, "manifest.json"),
        "denoise",
        {
            "epsilon": args.eps,
            "t_stop": t_stop,
            "tv_fraction": args.tv_fraction,
            "picked_t": float(traj.times[pick]),
        },
        [args.input],
        [out_path],
    )
    print(
        f"denoised at t={fmt(traj.times[pick])}: TV {fmt(tv0)} -> {fmt(traj.tv[pick])}"
    )
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _stopping_report(traj) -> CheckReport:
    stop = detect_stopping(traj)
    final_tv = tv_measure(traj.final_curve).total
    if stop is None:
        return CheckReport("stopping", False, float(final_tv), 1e-10, ())
    return CheckReport("stopping", True, 0.0, 1e-10, (stop[0],))


_CHECKS = {
    "energy": check_energy,
    "monotone": check_monotone_variation,
    "sphere": check_sphere_equivalence,
    "stopping": _stopping_report,
}


def cmd_verify(args) -> int:
    diag = args.diagnostics
    if diag is None:
        diag = os.path.join(os.path.dirname(args.input), "diagnostics.csv")
    traj = read_trajectory(args.input, diag)
    names = [c.strip() for c in args.checks.split(",") if c.strip()]
    if not names:
        raise ConfigError("no checks requested")
    unknown = [c for c in names if c not in _CHECKS]
    if unknown:
        raise ConfigError(
            f"unknown checks {unknown}; available: {sorted(_CHECKS)}"
        )
    reports = [_CHECKS[name](traj) for name in names]
    for rep in reports:
        print(str(rep))
    if args.out:
        write_reports(args.out, reports)
    if all(r.passed for r in reports):
        return 0
    raise VerificationError("one or more checks failed")


# ---------------------------------------------------------------------------
# lab
# ---------------------------------------------------------------------------


def cmd_lab(args) -> int:
    if args.experiment == "semiconvexity":
        n0 = first_positive_gap(args.n_max)
        lines = ["n,gap,first_positive"]
        for n in range(1, args.n_max + 1):
            lines.append(f"{n},{fmt(semiconvexity_gap(n))},{int(n == n0)}")
        _emit("\n".join(lines) + "\n", args.out)
        return 0
    if args.experiment == "hessian":
        man = parse_manifold(args.manifold)
        if not 0.0 < args.r < man.injectivity_radius:
            raise ConfigError(f"--r must lie in (0, {man.injectivity_radius:g}) on {man.spec_id}")
        rng = np.random.Generator(np.random.Philox([args.seed, 2]))
        center = man.random_point(rng)
        direction = man.random_tangent(rng, center)
        nd = float(np.linalg.norm(direction))
        if nd < 1e-12:
            raise GeometryError("degenerate direction draw")
        p = man.exp(center, (args.r / nd) * direction)
        res = hessian_comparison_check(man, center, p, n_dirs=args.dirs, rng=rng)
        text = "r,min_estimate,bound,passed\n" + ",".join(
            [fmt(res.distance), fmt(res.min_estimate), fmt(res.bound), str(int(res.passed))]
        ) + "\n"
        _emit(text, args.out)
        return 0
    if args.experiment == "stability":
        scan = geodesic_endpoint_stability(
            args.samples, radius=args.radius, seed=args.seed
        )
        edges = np.linspace(0.0, max(scan.max_ratio, 1e-12), 21)
        counts, _ = np.histogram(scan.ratios, bins=edges)
        lines = [f"# max_ratio={fmt(scan.max_ratio)} samples={scan.n_samples} seed={scan.seed}"]
        lines.append("bin_lo,bin_hi,count")
        for lo, hi, c in zip(edges[:-1], edges[1:], counts):
            lines.append(f"{fmt(lo)},{fmt(hi)},{int(c)}")
        _emit("\n".join(lines) + "\n", args.out)
        return 0
    if args.experiment == "midpoint":
        sep = midpoint_separation(args.side)
        _emit(
            "side,separation,excess\n"
            f"{fmt(args.side)},{fmt(sep)},{fmt(sep - args.side)}\n",
            args.out,
        )
        return 0
    raise ConfigError(f"unknown lab experiment {args.experiment!r}")


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------


def cmd_generate(args) -> int:
    if args.kind == "staircase":
        try:
            levels = [float(tok) for tok in args.levels.split(",")]
            bp = [float(tok) for tok in args.breakpoints.split(",")] if args.breakpoints else None
        except (AttributeError, ValueError) as exc:
            raise ConfigError("staircase needs --levels v0,v1,... and optional "
                              "--breakpoints x1,x2,...") from exc
        curve = staircase(levels, bp)
    elif args.kind == "noisy_field":
        curve = noisy_field(
            args.manifold, grid_n=args.grid, noise=args.noise, seed=args.seed
        )
    elif args.kind == "two_jump_square":
        curve = two_jump_square(side=args.side, eps=args.ramp_eps, variant=args.variant)
    else:
        raise ConfigError(f"unknown generator kind {args.kind!r}")
    write_curve(args.out, curve)
    print(f"wrote {args.kind} curve to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mtvf",
        description="Total-variation gradient flow for manifold-valued curves",
    )
    parser.add_argument("--version", action="version", version=f"mtvf {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_flow = sub.add_parser("flow", help="run a flow described by a config file")
    p_flow.add_argument("--config", required=True)
    p_flow.add_argument("--input", required=True)
    p_flow.add_argument("--out", required=True)
    p_flow.add_argument("--solver", choices=("auto", "exact", "regularized"),
                        default="auto")
    p_flow.add_argument("--eps", type=float)
    p_flow.add_argument("--grid", type=int)
    p_flow.add_argument("--dt", type=parse_dt)
    p_flow.add_argument("--t-max", dest="t_max", type=float)
    p_flow.add_argument("--manifold")
    p_flow.set_defaults(func=cmd_flow)

    p_den = sub.add_parser("denoise", help="smooth a sampled curve")
    p_den.add_argument("--input", required=True)
    p_den.add_argument("--out", required=True)
    p_den.add_argument("--manifold")
    p_den.add_argument("--eps", type=float, default=1e-3)
    p_den.add_argument("--t-stop", dest="t_stop", type=float)
    p_den.add_argument("--tv-fraction", dest="tv_fraction", type=float, default=0.5)
    p_den.set_defaults(func=cmd_denoise)

    p_ver = sub.add_parser("verify", help="run invariant checks on a trajectory")
    p_ver.add_argument("--input", required=True, help="trajectory CSV")
    p_ver.add_argument("--diagnostics", help="sidecar CSV (default: alongside input)")
    p_ver.add_argument("--checks", default="energy,monotone")
    p_ver.add_argument("--out", help="write the report CSV here")
    p_ver.set_defaults(func=cmd_verify)

    p_lab = sub.add_parser("lab", help="closed-form geometry experiments")
    p_lab.add_argument(
        "experiment", choices=("semiconvexity", "hessian", "stability", "midpoint")
    )
    p_lab.add_argument("--n-max", dest="n_max", type=int, default=40)
    p_lab.add_argument("--r", type=float, default=1.0)
    p_lab.add_argument("--dirs", type=int, default=64)
    p_lab.add_argument("--samples", type=int, default=1000)
    p_lab.add_argument("--radius", type=float, default=1.0)
    p_lab.add_argument("--side", type=float, default=0.5)
    p_lab.add_argument("--seed", type=int, default=0)
    p_lab.add_argument("--manifold", default="sphere:3")
    p_lab.add_argument("--out")
    p_lab.set_defaults(func=cmd_lab)

    p_gen = sub.add_parser("generate", help="write synthetic curves")
    p_gen.add_argument("kind", choices=("staircase", "noisy_field", "two_jump_square"))
    p_gen.add_argument("--out", required=True)
    p_gen.add_argument("--levels")
    p_gen.add_argument("--breakpoints")
    p_gen.add_argument("--manifold", default="sphere:3")
    p_gen.add_argument("--grid", type=int, default=257)
    p_gen.add_argument("--noise", type=float, default=0.15)
    p_gen.add_argument("--side", type=float, default=0.5)
    p_gen.add_argument("--eps", dest="ramp_eps", type=float, default=0.1)
    p_gen.add_argument("--variant", choices=("u", "veps", "midpoint"), default="veps")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.set_defaults(func=cmd_generate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except GeometryError as exc:
        print(f"geometry error: {exc}", file=sys.stderr)
        return 3
    except VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 4
    except FileNotFoundError as exc:
        print(f"missing file: {exc}", file=sys.stderr)
        return 2
    except MtvfError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
