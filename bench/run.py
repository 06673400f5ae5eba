"""mtvf benchmark: one workload, one seed, one process.

    python3 bench/run.py --workload pc_suite --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1      # every workload, one table
    python3 bench/run.py --selftest

Run from the repository root.  The program is imported from ``src/`` of the
checkout this file sits in, never from an installed copy; metric names and
units come from ``BENCHMARK.json`` at the root.  With ``--trace 0`` the batch
runs as PASSES passes of the same shape on different inputs, and the last
stdout line carries the end-to-end metrics, every time among them scaled
to a reference machine speed by probe readings taken between items
(``speed.py``); the measured times are in the record.  With ``--trace 1``
one pass of half the seconds runs twice, untraced and then traced, and the
last line carries the per-layer metrics, in measured time.  The line
before it is a JSON record with provenance, item counts and every failed
operation.  The exit code is 1 when any operation failed.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# single process, single thread: set before numpy is first imported
THREAD_CAPS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "MTVF_THREADS")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
PASSES = 3
SETUP_REPS = 3
TAIL_BEYOND = 10


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args(argv)
    if not (args.selftest or args.workload):
        ap.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def load_spec() -> dict:
    with open(SPEC) as handle:
        return json.load(handle)


def import_mtvf():
    """Import the package from this checkout's ``src/``; exit 1 without it."""
    if not os.path.isfile(os.path.join(SRC, "mtvf", "__init__.py")):
        sys.exit(f"bench: no mtvf sources at {os.path.relpath(SRC)}/mtvf")
    for name in THREAD_CAPS:
        os.environ[name] = "1"
    sys.path.insert(0, SRC)
    import mtvf
    import mtvf.cli  # noqa: F401  (not imported by the package itself)
    if os.path.dirname(os.path.dirname(os.path.abspath(mtvf.__file__))) != SRC:
        sys.exit(f"bench: imported mtvf from {mtvf.__file__}, not from this checkout")
    return mtvf


def import_seconds() -> float:
    """Time ``import mtvf`` in a fresh interpreter, as each user process pays it."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t0 = time.perf_counter(); "
            "import mtvf, mtvf.cli; print(time.perf_counter() - t0)")
    return float(subprocess.run([sys.executable, "-c", code, SRC], capture_output=True, text=True,
                                timeout=120, check=True).stdout)


def source_digest() -> str:
    """sha256 over the package sources, for checkouts without git metadata."""
    import hashlib

    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "mtvf")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as handle:
                digest.update(name.encode() + b"\0" + handle.read())
    return digest.hexdigest()


def provenance(mtvf, args) -> dict:
    import numpy
    import scipy

    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {
        "commit": commit,
        "src_sha256": source_digest(),
        "mtvf_version": mtvf.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {k: os.environ.get(k) for k in THREAD_CAPS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# ---------------------------------------------------------------------------
# running a batch
# ---------------------------------------------------------------------------


def run_batch(items, tracer=None, speed=None):
    """Time each item back to back; returns (wall_s, item_s, item starts,
    outcomes, root span index or None).  With a speedometer, a probe reading
    is taken before the first item, before any item that starts ``EVERY_S``
    after the last reading, and after the last item; ``wall_s`` leaves the
    readings out."""
    item_s, starts, outcomes = [], [], []
    root = tracer.open("bench.batch") if tracer else None
    if speed:
        speed.read()
    spent = speed.spent_s if speed else 0.0
    start = time.perf_counter()
    for item in items:
        if speed and speed.due():
            speed.read()
        t0 = time.perf_counter()
        try:
            outcomes.append((item.run(), None))
        except Exception as exc:  # a raising solver call is a failed operation
            outcomes.append((None, exc))
        item_s.append(time.perf_counter() - t0)
        starts.append(t0)
    if speed:
        speed.read()
    wall = time.perf_counter() - start - (speed.spent_s - spent if speed else 0.0)
    if tracer:
        tracer.close(root)
    return wall, item_s, starts, outcomes, root


def run_passes(passes, tally, speed):
    """Run the passes one after another, checking each pass's outputs
    between passes; returns each pass's wall time, raw item times and item
    times at reference speed (see ``speed.py``)."""
    walls, times, scaled = [], [], []
    for items in passes:
        wall, item_s, starts, outcomes, _ = run_batch(items, speed=speed)
        tally.check_batch(items, outcomes)
        walls.append(wall)
        times.append(item_s)
        scaled.append([s * speed.scale(t0, s) for s, t0 in zip(item_s, starts)])
    return walls, times, scaled


class Tally:
    """Attempted and failed operations, with the names of the failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def add(self, label: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 50:
                self.failures.append(label)

    def check_batch(self, items, outcomes) -> None:
        for item, (out, err) in zip(items, outcomes):
            self.add(f"{item.label}:call" + (f" raised {type(err).__name__}: {err}" if err else ""),
                     err is None)
            if err is not None:
                continue
            try:
                results = item.check(out)
            except Exception as exc:  # a check that cannot read the output fails it
                results = [(f"check raised {type(exc).__name__}: {exc}", False)]
            for name, ok in results:
                self.add(f"{item.label}:{name}", ok)


def item_stats(per_pass: list[list[float]]) -> dict:
    """Median item time and the highest percentile with TAIL_BEYOND items
    beyond it (nearest rank), with the percentile and the count.  An item's
    time is its mean over the passes: taken over every timed run instead,
    the tail lands between the copies of one or two items, and moves with
    their noise."""
    means = sorted(statistics.fmean(slot) for slot in zip(*per_pass, strict=True))
    n = len(means)
    if n <= TAIL_BEYOND:
        raise RuntimeError(f"{n} items per pass leave no tail beyond {TAIL_BEYOND}")
    k = n - TAIL_BEYOND - 1
    return {
        "items": n,
        "p50_ms": statistics.median(means) * 1e3,
        "tail_ms": means[k] * 1e3,
        "tail_percentile": 100.0 * (k + 1) / n,
        "tail_items_beyond": n - k - 1,
    }


def setup(workload, speed) -> tuple[list, list]:
    """SETUP_REPS fresh-interpreter imports and SETUP_REPS rounds of input
    generation and warm-up; returns both lists of (raw_s, scaled_s)."""
    imports, rounds = [], []
    for _ in range(SETUP_REPS):
        speed.read()
        t0 = time.perf_counter()
        took = import_seconds()
        speed.read()
        imports.append((took, took * speed.scale(t0, time.perf_counter() - t0)))
    for _ in range(SETUP_REPS):
        raw, scaled, _ = speed.timed(lambda: (workload.generate(), workload.warm_up()))
        rounds.append((raw, scaled))
    return imports, rounds


def metric(value, unit):
    return {"value": float(value), "unit": unit}


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------


def untraced_run(spec, workload, tally, record):
    """Every time metric is taken at reference speed (see ``speed.py``); the
    raw times are in the record.  wall_s is the time of all passes' items,
    p50 and tail are as in ``item_stats``, and setup_s is the median import
    time plus the median generate + warm-up time."""
    from speed import REF_MS, Speedometer

    speed = Speedometer()
    imports, rounds = setup(workload, speed)
    walls, times, scaled = run_passes(workload.items(), tally, speed)
    for name, ok in workload.run_checks():
        tally.add(f"run:{name}", ok)

    def setup_s(k):  # k = 0: raw, 1: scaled
        return statistics.median(r[k] for r in imports) + statistics.median(r[k] for r in rounds)

    stats = item_stats(scaled)
    raw_stats = item_stats(times)
    readings = speed.readings
    record.update(
        raw={"wall_s": sum(walls), "item_ms_p50": raw_stats["p50_ms"], "item_ms_tail": raw_stats["tail_ms"],
             "setup_s": setup_s(0), "pass_wall_s": walls},
        item_stats=stats, import_reps_s=imports, setup_reps_s=rounds,
        probe={"ref_ms": REF_MS, "readings": len(readings), "median_ms": statistics.median(readings),
               "min_ms": min(readings), "max_ms": max(readings), "spent_s": speed.spent_s})
    values = {
        "wall_s": sum(map(sum, scaled)),
        "item_ms_p50": stats["p50_ms"],
        "item_ms_tail": stats["tail_ms"],
        "setup_s": setup_s(1),
        "pass_frac": 1.0 - tally.failed / max(tally.attempted, 1),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {m["name"]: metric(values[m["name"]], m["unit"]) for m in spec["end_to_end"]}


def traced_run(mtvf, args, spec, workload, tally, record):
    import micro
    from metrics import moves
    from spans import SPAN_NAMES, Tracer

    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    unmapped = sorted(name for name in units if moves(name) is None)
    if unmapped:
        raise RuntimeError(f"per-layer metrics with no entry in metrics.MOVES: {unmapped}")
    workload.generate()
    workload.warm_up()
    (items,) = workload.items()
    wall_plain, _, _, outcomes, _ = run_batch(items)
    tally.check_batch(items, outcomes)

    tracer = Tracer()
    tracer.install(mtvf)
    try:
        setup_root = tracer.open("bench.setup")
        workload.generate()
        workload.warm_up()
        tracer.close(setup_root)
        (items,) = workload.items()
        workload.exit_nonzero = 0
        wall, _, _, outcomes, root = run_batch(items, tracer)
    finally:
        tracer.uninstall()
    tally.check_batch(items, outcomes)
    for name, ok in workload.run_checks():
        tally.add(f"run:{name}", ok)

    counts = dict(tracer.counts)
    batch = tracer.summarize(root)
    total, self_s, calls = batch["total"], batch["self"], batch["calls"]
    # <span>.s, <span>.self_s and <span>.calls come straight from the spans
    values = {}
    for name in units:
        span, _, kind = name.rpartition(".")
        if span in SPAN_NAMES and kind in ("s", "self_s", "calls"):
            values[name] = {"s": total, "self_s": self_s, "calls": calls}[kind].get(span, 0)
    values.update({k: counts.get(k, 0) for k in (
        "flows.pc_velocity.calls", "flows.exact.merges", "flows.regularized.linear_solves",
        "flows.regularized.node_steps", "verify.checks_failed", "io.bytes_written", "io.bytes_read")})

    def ratio(num, den):
        return num / den if den else 0.0

    values["flows.exact.velocity_evals_per_merge"] = ratio(
        counts.get("flows.exact.velocity_evals", 0), counts.get("flows.exact.merges", 0))
    values["flows.regularized.node_steps_per_s"] = ratio(
        counts.get("flows.regularized.node_steps", 0), total.get("flows.run_regularized", 0.0))
    values["lab.stability.samples_per_s"] = ratio(
        counts.get("lab.stability.samples", 0), total.get("lab.geodesic_endpoint_stability", 0.0))
    for kind, moved in (("write", "io.bytes_written"), ("read", "io.bytes_read")):
        busy = sum(v for k, v in total.items() if k.startswith(f"io.{kind}_"))
        values[f"io.{kind}_MBps"] = ratio(values[moved], busy) / 1e6
    values["cli.exit_nonzero"] = workload.exit_nonzero
    values["synth.s"] = sum(v for k, v in tracer.summarize(setup_root)["self"].items()
                            if k.startswith("synth."))
    layer_self = {name.split(".")[1]: 0.0 for name in units if name.startswith("layer.")}
    for name, s in self_s.items():
        layer_self[name.split(".", 1)[0]] += s
    for layer, s in layer_self.items():
        values[f"layer.{layer}.self_s"] = s
    values["trace.wall_s"] = wall
    values["trace.untraced_wall_s"] = wall_plain
    values["trace.overhead_s"] = wall - wall_plain
    values["trace.self_sum_gap_s"] = wall - sum(s for k, s in layer_self.items() if k != "bench")

    values.update(micro.all_kernels(mtvf, args.seed))

    missing = sorted(set(units) - set(values))
    if missing:
        raise RuntimeError(f"per-layer metrics not produced: {missing}")
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    tracer.dump(os.path.join(HERE, "out", f"trace-{args.workload}-{args.seed}.json"))
    record.update(counts=counts, span_calls=calls,
                  self_times_add_up=abs(values["trace.self_sum_gap_s"])
                  <= abs(values["trace.overhead_s"]))
    return {name: metric(values[name], units[name]) for name in units}


def run_all(args) -> int:
    """Run every workload in its own process and print its metrics."""
    all_correct = True
    for name in (w["name"] for w in load_spec()["workloads"]):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT)
        if proc.returncode != 0:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}")
            all_correct = False
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        all_correct &= result["correct"]
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for metric_name, m in result["metrics"].items():
            print(f"  {metric_name:44s} {m['value']:16.6g} {m['unit']}")
    return 0 if all_correct else 1


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if args.workload == "all":
        return run_all(args)
    mtvf = import_mtvf()
    sys.path.insert(0, HERE)
    if args.selftest:
        import selftest
        return selftest.main(mtvf)

    import shutil

    from workloads import WORKLOADS

    spec = load_spec()
    if args.workload not in WORKLOADS:
        sys.exit(f"bench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workdir = os.path.join(HERE, "out", f"work-{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    make = WORKLOADS[args.workload]
    tally = Tally()
    record = {"provenance": provenance(mtvf, args)}
    try:
        if args.trace:
            workload = make(mtvf, args.seed, args.seconds / 2, workdir)
            metrics = traced_run(mtvf, args, spec, workload, tally, record)
        else:
            workload = make(mtvf, args.seed, args.seconds / PASSES, workdir, passes=PASSES)
            metrics = untraced_run(spec, workload, tally, record)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record.update(attempted=tally.attempted, failed=tally.failed,
                  fail_frac=tally.failed / max(tally.attempted, 1), failures=tally.failures)
    print(json.dumps({"record": record}, default=str))
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 1 if tally.failed else 0


if __name__ == "__main__":
    sys.exit(main())
