"""Damaged files: every reader either parses the text or raises ConfigError.

Written curve, trajectory, diagnostics and config text is truncated or has
characters replaced, inserted or deleted at random offsets; no other
exception may escape, since the command line maps ConfigError to exit code 2
and anything else to a traceback.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtvf import ConfigError, Euclidean, Sphere, run_exact_pc, tv_measure
from mtvf.flows import FlowConfig, run_regularized
from mtvf.io import (
    config_to_text,
    curve_from_text,
    curve_to_text,
    flow_config_from_mapping,
    parse_config_text,
    read_trajectory,
    write_trajectory,
)
from mtvf.synth import noisy_field, random_rad_curve

# characters that matter to the formats, plus arbitrary text
_CHARS = st.one_of(st.sampled_from(list(",\n#= .-+e0123456789naifx:")),
                   st.characters(blacklist_categories=("Cs",)))
# an offset: a character index among the metadata and header lines, or a
# fraction of the whole text
_WHERE = st.one_of(st.integers(0, 100), st.floats(0.0, 1.0))
_EDITS = st.lists(
    st.tuples(st.sampled_from(["truncate", "replace", "insert", "delete"]), _WHERE, _CHARS),
    min_size=1, max_size=3)


def _damage(text: str, edits) -> str:
    for kind, where, char in edits:
        k = where if isinstance(where, int) else int(where * len(text))
        k = min(k, max(len(text) - 1, 0))
        if kind == "truncate":
            text = text[:k]
        elif kind == "replace":
            text = text[:k] + char + text[k + 1:]
        elif kind == "insert":
            text = text[:k] + char + text[k:]
        else:
            text = text[:k] + text[k + 1:]
    return text


def _parses_or_config_error(read, *args) -> None:
    try:
        read(*args)
    except ConfigError:
        pass


@pytest.fixture(scope="module")
def intact(tmp_path_factory):
    """Written text of a step run on euclidean:2 and a grid run on sphere:3."""
    d = tmp_path_factory.mktemp("intact")
    u0 = random_rad_curve(Euclidean(2), np.random.Generator(np.random.Philox([64, 0])))
    field = noisy_field("sphere:3", grid_n=9, noise=0.1, seed=5)
    cfg = FlowConfig(manifold=Sphere(3), epsilon=1e-2, grid_n=9, t_max=0.01)
    out = {"curve": [curve_to_text(u0), curve_to_text(field)],
           "config": [config_to_text(cfg)], "trajectory": [], "diagnostics": []}
    for name, traj in (("exact", run_exact_pc(u0, t_max=0.05 * tv_measure(u0).total)),
                       ("grid", run_regularized(field, cfg))):
        write_trajectory(str(d / f"{name}.t"), str(d / f"{name}.d"), traj)
        out["trajectory"].append((d / f"{name}.t").read_text())
        out["diagnostics"].append((d / f"{name}.d").read_text())
    return out


@given(which=st.integers(0, 1), edits=_EDITS)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_damaged_curve_parses_or_is_config_error(intact, which, edits):
    _parses_or_config_error(curve_from_text, _damage(intact["curve"][which], edits))


@given(text=st.text(max_size=40))
@settings(max_examples=100, deadline=None, derandomize=True)
def test_arbitrary_curve_text_parses_or_is_config_error(text):
    _parses_or_config_error(curve_from_text, "# curve kind=pc manifold=sphere:3\n" + text)


@given(which=st.integers(0, 1), damage_diagnostics=st.booleans(), edits=_EDITS)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_damaged_trajectory_parses_or_is_config_error(
        intact, tmp_path_factory, which, damage_diagnostics, edits):
    d = tmp_path_factory.mktemp("damaged")
    traj, diag = intact["trajectory"][which], intact["diagnostics"][which]
    if damage_diagnostics:
        diag = _damage(diag, edits)
    else:
        traj = _damage(traj, edits)
    (d / "t.csv").write_text(traj)
    (d / "d.csv").write_text(diag)
    _parses_or_config_error(read_trajectory, str(d / "t.csv"), str(d / "d.csv"))


@given(edits=_EDITS)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_damaged_config_parses_or_is_config_error(intact, edits):
    text = _damage(intact["config"][0], edits)
    _parses_or_config_error(lambda: flow_config_from_mapping(parse_config_text(text)))
