"""Command-line interface: each command, lab experiment and generator kind
parses only the options its handler reads and refuses any other (exit 2).

Exit codes: 0 success, 2 configuration/usage errors and paths that cannot
be read or written (a missing file, a directory, undecodable text), 3
geometry violations (inadmissible jumps, out-of-range constructions), 4
verification checks that fail or do not apply to the trajectory.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import os
import sys
from dataclasses import replace

import numpy as np

from . import __version__
from .curves import (
    PiecewiseConstantCurve,
    tv_measure,
)
from .errors import ConfigError, GeometryError, MtvfError, VerificationError
from .flows import FlowConfig, flow
from .io import (
    config_to_text,
    flow_config_from_mapping,
    fmt,
    parse_config_text,
    read_curve,
    read_text,
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
    STOP_TV_TOL,
    CheckReport,
    check_energy,
    check_monotone_variation,
    check_sphere_equivalence,
    detect_stopping,
)


# ---------------------------------------------------------------------------
# flow / denoise
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def _out_dir(path):
    """Create the run directory before the solve, so an unusable path is refused
    first; if the solve raises, remove a directory made here that is still empty."""
    made = not os.path.isdir(path)
    os.makedirs(path, exist_ok=True)
    try:
        yield
    except BaseException:
        if made and not os.listdir(path):
            os.rmdir(path)
        raise


def cmd_flow(args) -> int:
    cfg = flow_config_from_mapping(parse_config_text(read_text(args.config)))
    curve = read_curve(args.input)
    with _out_dir(args.out):
        traj = flow(curve, cfg)
    if cfg.epsilon is not None:  # config.txt records the grid, which a sampled input sets
        cfg = replace(cfg, grid_n=traj.final_curve.grid_n)
    traj_path = os.path.join(args.out, "trajectory.csv")
    diag_path = os.path.join(args.out, "diagnostics.csv")
    cfg_path = os.path.join(args.out, "config.txt")
    write_trajectory(traj_path, diag_path, traj)
    _atomic_write_text(cfg_path, config_to_text(cfg))
    write_manifest(
        os.path.join(args.out, "manifest.json"),
        "flow",
        {"solver": traj.solver, "config_file": os.path.basename(args.config)},
        [args.config, args.input],
        [traj_path, diag_path, cfg_path],
    )
    stop = detect_stopping(traj)
    status = f"stopped at t={fmt(stop[0])}" if stop else "not stopped"
    print(f"{traj.solver} run: {len(traj)} snapshots, final TV {fmt(traj.tv[-1])}, {status}")
    return 0


def cmd_denoise(args) -> int:
    if not 0.0 < args.tv_fraction < 1.0:
        raise ConfigError("--tv-fraction must lie in (0, 1)")
    if args.t_stop is not None and not 0.0 < args.t_stop < np.inf:
        raise ConfigError("--t-stop must be positive and finite")
    if not 0.0 < args.eps < np.inf:
        raise ConfigError("--eps must be positive and finite")
    curve = read_curve(args.input)
    man = curve.manifold
    if isinstance(curve, PiecewiseConstantCurve):
        raise ConfigError("denoise expects a sampled curve")
    tv0 = tv_measure(curve).total
    t_stop = args.t_stop
    t_max = t_stop if t_stop is not None else max(4.0 * tv0, 1e-6)
    cfg = FlowConfig(manifold=man, epsilon=args.eps, t_max=t_max)
    with _out_dir(args.out):
        # a fixed stop records only the state it writes; the steps are the same
        traj = flow(curve, cfg, None if t_stop is None else [t_max])
    pick = len(traj) - 1
    if t_stop is None:
        target = args.tv_fraction * tv0
        below = np.nonzero(traj.tv <= target)[0]
        if below.size:
            pick = int(below[0])
    out_path = os.path.join(args.out, "denoised.csv")
    write_curve(out_path, traj.snapshots[pick])
    write_manifest(
        os.path.join(args.out, "manifest.json"),
        "denoise",
        {
            "epsilon": args.eps,
            **({"tv_fraction": args.tv_fraction} if t_stop is None else {"t_stop": t_stop}),
            "picked_t": float(traj.times[pick]),
        },
        [args.input],
        [out_path],
    )
    print(f"denoised at t={fmt(traj.times[pick])}: TV {fmt(tv0)} -> {fmt(traj.tv[pick])}")
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _stopping_report(traj) -> CheckReport:
    stop = detect_stopping(traj)
    if stop is None:
        return CheckReport("stopping", False, float(traj.tv[-1]), STOP_TV_TOL, ())
    return CheckReport("stopping", True, 0.0, STOP_TV_TOL, (stop[0],))


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
    checks = args.checks
    if checks is None:  # monotone takes piecewise-constant snapshots only
        pc = isinstance(traj.final_curve, PiecewiseConstantCurve)
        checks = "energy,monotone" if pc else "energy"
    names = [c.strip() for c in checks.split(",") if c.strip()]
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
# lab: each experiment returns its CSV report
# ---------------------------------------------------------------------------


def _semiconvexity_report(args) -> str:
    n0 = first_positive_gap(args.n_max)
    lines = ["n,gap,first_positive"]
    for n in range(1, args.n_max + 1):
        lines.append(f"{n},{fmt(semiconvexity_gap(n))},{int(n == n0)}")
    return "\n".join(lines) + "\n"


def _hessian_report(args) -> str:
    man = parse_manifold(args.manifold)
    if not 0.0 < args.r < man.injectivity_radius:
        raise ConfigError(f"--r must lie in (0, {man.injectivity_radius:g}) on {man.spec_id}")
    rng = np.random.Generator(np.random.Philox([args.seed, 2]))
    center = man.random_point(rng)
    direction, nd = man.random_direction(rng, center)
    p = man.exp(center, (args.r / nd) * direction)
    res = hessian_comparison_check(man, center, p, n_dirs=args.dirs, rng=rng)
    return "r,min_estimate,bound,passed\n" + ",".join(
        [fmt(res.distance), fmt(res.min_estimate), fmt(res.bound), str(int(res.passed))]
    ) + "\n"


def _stability_report(args) -> str:
    scan = geodesic_endpoint_stability(
        args.samples, radius=args.radius, seed=args.seed
    )
    edges = np.linspace(0.0, max(scan.max_ratio, 1e-12), 21)
    counts, _ = np.histogram(scan.ratios, bins=edges)
    lines = [f"# max_ratio={fmt(scan.max_ratio)} samples={args.samples} seed={args.seed}"]
    lines.append("bin_lo,bin_hi,count")
    for lo, hi, c in zip(edges[:-1], edges[1:], counts):
        lines.append(f"{fmt(lo)},{fmt(hi)},{int(c)}")
    return "\n".join(lines) + "\n"


def _midpoint_report(args) -> str:
    sep = midpoint_separation(args.side)
    return f"side,separation,excess\n{fmt(args.side)},{fmt(sep)},{fmt(sep - args.side)}\n"


def cmd_lab(args) -> int:
    text = args.report(args)
    if args.out:
        _atomic_write_text(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# generate: each kind returns its curve
# ---------------------------------------------------------------------------


def _staircase_curve(args):
    try:
        levels = [float(tok) for tok in args.levels.split(",")]
        bp = [float(tok) for tok in args.breakpoints.split(",")] if args.breakpoints else None
    except (AttributeError, ValueError) as exc:
        raise ConfigError("staircase needs --levels v0,v1,... and optional "
                          "--breakpoints x1,x2,...") from exc
    return staircase(levels, bp)


def cmd_generate(args) -> int:
    write_curve(args.out, args.make_curve(args))
    print(f"wrote {args.kind} curve to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _int_at_least(low: int):
    """argparse type: an integer no smaller than ``low``, else exit 2."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return parse


# every --seed keys a Philox generator, which takes no negative key
_SEED = _int_at_least(0)


# looked up per call rather than bound into the cached parser, so that a wrapper
# installed on a command later (as the benchmark's tracer does) is the one run
_COMMANDS = {"flow": cmd_flow, "denoise": cmd_denoise, "verify": cmd_verify,
             "lab": cmd_lab, "generate": cmd_generate}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``mtvf`` parser; built once, since one process may call ``main`` often."""
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

    p_den = sub.add_parser("denoise", help="smooth a sampled curve")
    p_den.add_argument("--input", required=True)
    p_den.add_argument("--out", required=True)
    p_den.add_argument("--eps", type=float, default=1e-3)
    stop_rule = p_den.add_mutually_exclusive_group()
    stop_rule.add_argument("--t-stop", dest="t_stop", type=float)
    stop_rule.add_argument("--tv-fraction", dest="tv_fraction", type=float, default=0.5)

    p_ver = sub.add_parser("verify", help="run invariant checks on a trajectory")
    p_ver.add_argument("--input", required=True, help="trajectory CSV")
    p_ver.add_argument("--diagnostics", help="sidecar CSV (default: alongside input)")
    p_ver.add_argument("--checks", help="default: energy,monotone; energy for sampled snapshots")
    p_ver.add_argument("--out", help="write the report CSV here")

    # one parser per experiment and per kind, with only the options it reads;
    # no abbreviations, or stability would read a sibling's --r as --radius
    def leaf(group, name, out_required, **handler):
        p = group.add_parser(name, allow_abbrev=False)
        p.add_argument("--out", required=out_required)
        p.set_defaults(**handler)
        return p

    labs = sub.add_parser("lab", help="closed-form geometry experiments").add_subparsers(
        dest="experiment", required=True)
    p = leaf(labs, "semiconvexity", out_required=False, report=_semiconvexity_report)
    p.add_argument("--n-max", dest="n_max", type=_int_at_least(1), default=40)
    p = leaf(labs, "hessian", out_required=False, report=_hessian_report)
    p.add_argument("--r", type=float, default=1.0)
    p.add_argument("--dirs", type=int, default=64)
    p.add_argument("--seed", type=_SEED, default=0)
    p.add_argument("--manifold", default="sphere:3")
    p = leaf(labs, "stability", out_required=False, report=_stability_report)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--radius", type=float, default=1.0)
    p.add_argument("--seed", type=_SEED, default=0)
    p = leaf(labs, "midpoint", out_required=False, report=_midpoint_report)
    p.add_argument("--side", type=float, default=0.5)

    kinds = sub.add_parser("generate", help="write synthetic curves").add_subparsers(
        dest="kind", required=True)
    p = leaf(kinds, "staircase", out_required=True, make_curve=_staircase_curve)
    p.add_argument("--levels")
    p.add_argument("--breakpoints")
    p = leaf(kinds, "noisy_field", out_required=True, make_curve=lambda a: noisy_field(
        a.manifold, grid_n=a.grid, noise=a.noise, seed=a.seed))
    p.add_argument("--manifold", default="sphere:3")
    p.add_argument("--grid", type=int, default=257)
    p.add_argument("--noise", type=float, default=0.15)
    p.add_argument("--seed", type=_SEED, default=0)
    p = leaf(kinds, "two_jump_square", out_required=True, make_curve=lambda a: two_jump_square(
        side=a.side, eps=a.ramp_eps, variant=a.variant))
    p.add_argument("--side", type=float, default=0.5)
    p.add_argument("--eps", dest="ramp_eps", type=float, default=0.1)
    p.add_argument("--variant", choices=("u", "veps", "midpoint"), default="veps")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except GeometryError as exc:
        print(f"geometry error: {exc}", file=sys.stderr)
        return 3
    except VerificationError as exc:
        # its subclasses are checks that do not apply to the trajectory
        what = "verification failed" if type(exc) is VerificationError else "check does not apply"
        print(f"{what}: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:  # a path that cannot be read or written
        print(f"file error: {exc}", file=sys.stderr)
        return 2
    except MtvfError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
