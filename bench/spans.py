"""Span recording around the public functions of each ``mtvf`` layer.

Wrappers are installed from outside the package: every module attribute of
``mtvf`` that *is* one of the traced functions is replaced by the same
wrapper, so a call is recorded whichever name the caller bound (for example
``mtvf.cli.run_regularized`` and ``mtvf.verify.run_exact_pc``).  Spans are
kept in memory as ``[name, start, end, parent]`` and written once, when the
run ends.  Hot inner functions (``pc_velocity``, ``solve_banded``) are only
counted, since a span per call would dominate what it measures.
"""
from __future__ import annotations

import functools
import json
import os
import time
from collections import Counter, defaultdict

# layer -> public functions that get a span
SPANNED = {
    "flows": ("run_exact_pc", "run_regularized", "run_scalar_tv", "flow_on_geodesic"),
    "curves": ("tv_measure", "mollify", "l2_distance"),
    "verify": ("check_energy", "check_monotone_variation", "check_sphere_equivalence",
               "check_variational_inequality", "detect_stopping", "cross_solver_compare"),
    "lab": ("geodesic_endpoint_stability", "hessian_comparison_check", "first_positive_gap"),
    "synth": ("noisy_field", "random_rad_curve", "staircase", "suite",
              "two_jump_sphere_example"),
    "io": ("write_trajectory", "read_trajectory", "write_curve", "read_curve",
           "write_manifest"),
    "cli": ("main", "cmd_generate", "cmd_flow", "cmd_verify", "cmd_denoise"),
}
MODULES = ("flows", "curves", "verify", "lab", "synth", "io", "cli")


def _bytes(kind: str, n_paths: int):
    """Counter update for an io call whose first ``n_paths`` arguments are
    the files it wrote or read."""
    return lambda args, out: {f"io.bytes_{kind}": sum(os.path.getsize(p) for p in args[:n_paths])}


def _failed(args, out):
    return {"verify.checks_failed": int(not out.passed)}


# counts read off a traced call's arguments and result, by function name
_COUNTS = {
    "run_exact_pc": lambda args, out: {"flows.exact.merges": args[0].num_jumps - out.final_curve.num_jumps},
    "geodesic_endpoint_stability": lambda args, out: {"lab.stability.samples": len(out.ratios)},
    "write_trajectory": _bytes("written", 2),
    "write_curve": _bytes("written", 1),
    "write_manifest": _bytes("written", 1),
    "read_trajectory": _bytes("read", 2),
    "read_curve": _bytes("read", 1),
    "check_energy": _failed,
    "check_monotone_variation": _failed,
    "check_sphere_equivalence": _failed,
    "check_variational_inequality": _failed,
}


def _span_name(layer: str, func: str) -> str:
    return f"{layer}.{func.removeprefix('cmd_')}"


SPAN_NAMES = {_span_name(layer, f) for layer, funcs in SPANNED.items() for f in funcs}


class Tracer:
    """In-memory span and counter store for one traced run."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self._patched: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def current(self) -> str:
        return self.spans[self.stack[-1]][0] if self.stack else ""

    def _spanned(self, name: str, fn):
        tracer = self
        count = _COUNTS.get(fn.__name__)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if count is not None:
                tracer.counts.update(count(args, out))
            return out

        return wrapper

    def _pc_velocity(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.counts["flows.pc_velocity.calls"] += 1
            if tracer.current() == "flows.run_exact_pc":
                tracer.counts["flows.exact.velocity_evals"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _solve_banded(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(l_and_u, ab, b, *args, **kwargs):
            tracer.counts["flows.regularized.linear_solves"] += 1
            tracer.counts["flows.regularized.node_steps"] += len(b)
            return fn(l_and_u, ab, b, *args, **kwargs)

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self, mtvf) -> None:
        """Wrap every binding of the traced functions inside ``mtvf``: module
        attributes, and values of module-level dicts (such as the CLI's table
        of verifier checks)."""
        wrappers = {}
        for layer, funcs in SPANNED.items():
            home = getattr(mtvf, layer)
            for func in funcs:
                original = getattr(home, func)
                wrappers[id(original)] = (original, self._spanned(_span_name(layer, func), original))
        for name, make in (("pc_velocity", self._pc_velocity), ("solve_banded", self._solve_banded)):
            original = getattr(mtvf.flows, name)
            wrappers[id(original)] = (original, make(original))
        namespaces = [vars(mtvf)] + [vars(getattr(mtvf, m)) for m in MODULES]
        namespaces += [v for ns in list(namespaces) for v in ns.values() if type(v) is dict]
        for ns in namespaces:
            for key, value in list(ns.items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((ns, key, value))
                    ns[key] = hit[1]

    def uninstall(self) -> None:
        for ns, key, value in reversed(self._patched):
            ns[key] = value
        self._patched.clear()

    # -- aggregation -------------------------------------------------------

    def summarize(self, root: int) -> dict:
        """Total and self seconds per span name below (and including) ``root``.

        Self time is a span's duration minus that of its direct children;
        calls are single-threaded, so children never overlap.
        """
        inside = {root}
        child_time = defaultdict(float)
        total = defaultdict(float)
        calls = Counter()
        for idx in range(root, len(self.spans)):
            name, start, end, parent = self.spans[idx]
            if idx != root and parent not in inside:
                break
            inside.add(idx)
            total[name] += end - start
            calls[name] += 1
            if idx != root:
                child_time[parent] += end - start
        self_time = defaultdict(float)
        for idx in sorted(inside):
            name, start, end, _ = self.spans[idx]
            self_time[name] += (end - start) - child_time[idx]
        return {"total": dict(total), "self": dict(self_time), "calls": dict(calls)}

    def dump(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans,
                       "counts": dict(self.counts)}, handle)
