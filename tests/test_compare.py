"""tools/compare.py, the comparison of two source trees: this checkout against a
copy of its own src/ reads identical with every gap 0, and its compare step
reads a 1e-9 move of one saved value as a difference and as that gap."""
import importlib.util
import pathlib
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "compare.py"
LABELS = ("exact", "grid", "rules", "csv", "verify", "lab")


@pytest.fixture(scope="module")
def self_comparison(tmp_path_factory):
    """The script's stdout and output directory with BASE_SRC a copy of src/."""
    base = tmp_path_factory.mktemp("base") / "src"
    shutil.copytree(ROOT / "src", base, ignore=shutil.ignore_patterns("__pycache__"))
    out = tmp_path_factory.mktemp("out")
    run = subprocess.run([sys.executable, str(TOOL), str(base), str(out)],
                         capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr
    return run.stdout.splitlines(), out


def _table(lines):
    # {(solver, target): (L² gap, dissipation gap)} from the markdown rows
    rows = [line.strip("|").split("|") for line in lines if re.match(r"\| (exact_pc|regularized) ", line)]
    return {(s.strip(), t.strip()): (l2.strip(), d.strip()) for s, t, l2, d in rows}


def test_a_tree_compared_with_a_copy_of_itself_reads_identical_with_every_gap_zero(self_comparison):
    lines, _ = self_comparison
    assert lines[:len(LABELS)] == [f"{label}: identical" for label in LABELS]
    base, head = re.fullmatch(r"pc_velocity calls: base (\d+), head (\d+)", lines[len(LABELS)]).groups()
    assert base == head and int(head) > 0
    table = _table(lines)
    targets = ("circle", "cylinder", "euclidean:2", "sphere:3")
    assert set(table) == {(s, t) for s in ("exact_pc", "regularized") for t in targets}
    assert set(table.values()) == {("0", "0")}


def test_a_saved_value_moved_by_1e_9_reads_as_a_difference_and_as_its_gap(self_comparison, tmp_path):
    # the compare step alone, on the self-comparison's head output and a copy of
    # it with one plateau value of one sphere:3 exact run moved: no tree runs
    _, out = self_comparison
    spec = importlib.util.spec_from_file_location("compare", TOOL)
    compare = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(compare)
    saved = dict(np.load(out / "head.npz"))
    j = next(key.partition(".")[0] for key in saved
             if key.endswith(".kind") and saved[key] == "exact_pc sphere:3")
    breakpoints, values = saved[f"{j}.breakpoints.0"], saved[f"{j}.values.0"].copy()
    assert breakpoints.size  # the plateau moved is [0, breakpoints[0])
    values[0, 2] += 1e-9
    np.savez(tmp_path / "moved.npz", **{**saved, f"{j}.values.0": values})
    lines = compare.report(out / "head.npz", tmp_path / "moved.npz")
    assert lines[:len(LABELS)] == ["exact: differs in 1 of 80"] + [
        f"{label}: identical" for label in LABELS[1:]]
    gap = 1e-9 * np.sqrt(breakpoints[0])  # ambient L² of the move over its plateau
    table = _table(lines)
    assert table.pop(("exact_pc", "sphere:3")) == (f"{gap:.2g}", "0")
    assert set(table.values()) == {("0", "0")}
