"""Shows that the benchmark's correctness gate bites.

    python3 bench/run.py --selftest

Two outputs are spoiled on purpose and fed through the same item checks and
failure tally the workloads use: a trajectory whose recorded dissipation is
raised halfway through (``check_energy`` must fail), and a trajectory CSV
with one cell rewritten in a non-canonical form (the read/write round trip
must stop being byte-identical).  Each spoiled output must raise the failed
count, and each unspoiled control must leave it at zero.  Exit code 0 means
the gate works.
"""
from __future__ import annotations

import dataclasses
import os
import shutil

import numpy as np

from run import Tally
from workloads import CliRoundtrip, PcSuite, _rng


def _tally(item, out) -> Tally:
    tally = Tally()
    tally.check_batch([item], [(out, None)])
    return tally


def energy_gate(mtvf) -> tuple[bool, str]:
    suite = PcSuite(mtvf, seed=0, seconds=1, workdir="")
    u0 = mtvf.synth.random_rad_curve("sphere:3", _rng(0, 1), n_jumps=3)
    item = suite._flow_item("selftest", u0)
    out = item.run()
    control = _tally(item, out)
    tr, _, stop, t_max = out
    bump = np.where(np.arange(len(tr)) >= len(tr) // 2, 0.5, 0.0)
    spoiled = dataclasses.replace(tr, dissipation=tr.dissipation + bump)
    bad = _tally(item, (spoiled, [mtvf.verify.check_energy(spoiled)], stop, t_max))
    ok = control.failed == 0 and bad.failed >= 1 and any("energy" in f for f in bad.failures)
    return ok, f"control failed={control.failed}, perturbed failed={bad.failed} {bad.failures}"


def roundtrip_gate(mtvf, workdir) -> tuple[bool, str]:
    cli = CliRoundtrip(mtvf, seed=0, seconds=1, workdir=workdir)
    results = []
    for spoil in (False, True):
        d = os.path.join(workdir, f"spoil{int(spoil)}")
        os.makedirs(d)
        item = cli._noisy_chain(d, "sphere:3", seed=3)
        codes = item.run()
        if spoil:
            path = os.path.join(d, "run", "trajectory.csv")
            with open(path) as handle:
                lines = handle.read().split("\n")
            first, rest = lines[2].split(",", 1)
            lines[2] = f"{float(first)!r},{rest}"   # "0" becomes "0.0": same value, new bytes
            with open(path, "w") as handle:
                handle.write("\n".join(lines))
        results.append(_tally(item, codes))
    control, bad = results
    ok = control.failed == 0 and bad.failed >= 1 and any("roundtrip" in f for f in bad.failures)
    return ok, f"control failed={control.failed}, corrupted failed={bad.failed} {bad.failures}"


def main(mtvf) -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    workdir = os.path.join(here, "out", f"selftest-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        checks = [("perturbed trajectory fails check_energy", energy_gate(mtvf)),
                  ("corrupted CSV fails the round trip", roundtrip_gate(mtvf, workdir))]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name, (ok, detail) in checks:
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return 0 if all(ok for _, (ok, _) in checks) else 1
