"""Misused curve constructors: every call builds a curve or raises an MtvfError.

``PiecewiseConstantCurve`` and ``SampledCurve`` get values with NaN, +-inf,
the wrong width, 0 or 1 rows, integer or object dtype, or points off the
target, and breakpoints that are nested, unsorted, duplicated, outside
(0, 1) or NaN.  A refusal is a ``ConfigError`` with one of the messages
below; any other exception escapes to the command line as a traceback.  A
curve that is built holds the constructors' promises.
"""
import re

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mtvf import ConfigError, PiecewiseConstantCurve, SampledCurve, parse_manifold

_TARGETS = ("euclidean:1", "euclidean:2", "sphere:3", "circle", "cylinder")
_REFUSALS = {
    PiecewiseConstantCurve: (
        r"breakpoints must be one-dimensional, got shape \(\d+(, \d+)+\)",
        r"breakpoints must be an array of real numbers: .+",
        r"plateau values must be an array of real numbers: .+",
        r"plateau values must have shape \(m\+1, \d\)",
        r"need exactly one more plateau than breakpoints",
        r"breakpoints must be strictly increasing inside \(0, 1\)",
        r"plateau values must be finite",
        r"plateau values are off the manifold( by [-+.e\d]+|: .+)",
    ),
    SampledCurve: (
        r"sampled values must be an array of real numbers: .+",
        r"sampled values must have shape \(n, \d\)",
        r"a sampled curve needs at least two nodes",
        r"sampled values must be finite",
        r"sampled values are off the manifold( by [-+.e\d]+|: .+)",
    ),
}

# how a valid array is spoiled: (name, where, amount)
_VALUE_EDITS = st.tuples(
    st.sampled_from(["none", "nan", "inf", "-inf", "wide", "narrow", "rows0", "rows1",
                     "int", "object", "scale", "nudge", "ragged"]),
    st.floats(0.0, 1.0), st.sampled_from([1e-12, 1e-9, 1e-6, 0.5, 2.0]))
_BREAKPOINT_EDITS = st.tuples(
    st.sampled_from(["none", "nested", "ragged", "unsorted", "duplicated", "zero", "one",
                     "below", "above", "nan", "fewer", "more"]),
    st.floats(0.0, 1.0))


def _spoil_values(vals, edit):
    kind, where, amount = edit
    i = min(int(where * vals.size), vals.size - 1)
    flat = vals.ravel()
    if kind in ("nan", "inf", "-inf"):
        flat[i] = float(kind)
    elif kind in ("wide", "narrow"):
        return np.column_stack([vals, vals[:, :1]]) if kind == "wide" else vals[:, :-1]
    elif kind in ("rows0", "rows1"):
        return vals[:int(kind[-1])]
    elif kind == "int":
        return np.round(vals).astype(int)
    elif kind == "object":
        return vals.astype(object)
    elif kind == "scale":
        return vals * amount
    elif kind == "nudge":
        flat[i] += amount
    elif kind == "ragged":
        return [list(row) for row in vals[:-1]] + [list(vals[-1, :-1])]
    return vals


def _spoil_breakpoints(bp, edit):
    kind, where = edit
    i = min(int(where * bp.size), max(bp.size - 1, 0))
    if kind == "nested":
        return bp[:, None]
    if kind == "ragged":
        return [[x] for x in bp[:-1]] + list(bp[-1:])
    if kind == "unsorted":
        return bp[::-1]
    if kind == "duplicated":
        return np.insert(bp, i, bp[i]) if bp.size else bp
    if kind in ("zero", "one", "below", "above", "nan") and bp.size:
        bp[i] = {"zero": 0.0, "one": 1.0, "below": -0.25, "above": 1.25, "nan": np.nan}[kind]
    if kind == "fewer":
        return bp[1:]
    if kind == "more":
        return np.sort(np.append(bp, 0.5 * where))
    return bp


def _built_or_refused(make, cls):
    try:
        return make()
    except ConfigError as exc:
        assert any(re.fullmatch(r, str(exc)) for r in _REFUSALS[cls]), str(exc)
        return None


@given(target=st.sampled_from(_TARGETS), seed=st.integers(0, 2**16), jumps=st.integers(0, 5),
       value_edit=_VALUE_EDITS, breakpoint_edit=_BREAKPOINT_EDITS)
@settings(max_examples=400, deadline=None, derandomize=True)
def test_step_curve_is_built_or_refused_with_a_config_error(
        target, seed, jumps, value_edit, breakpoint_edit):
    man = parse_manifold(target)
    rng = np.random.Generator(np.random.Philox([seed, 4]))
    bp = _spoil_breakpoints(np.sort(rng.uniform(0.05, 0.95, jumps)), breakpoint_edit)
    vals = _spoil_values(man.random_point(rng, size=(jumps + 1,)), value_edit)
    curve = _built_or_refused(lambda: PiecewiseConstantCurve(man, bp, vals), PiecewiseConstantCurve)
    if curve is not None:
        assert curve.breakpoints.ndim == 1 and curve.values.shape == (curve.num_jumps + 1,
                                                                        man.ambient_dim)
        assert ((curve.breakpoints > 0) & (curve.breakpoints < 1)).all()
        assert (np.diff(curve.breakpoints) > 0).all() and np.isfinite(curve.values).all()
        assert man.constraint_residual(curve.values) <= 1e-9


@given(target=st.sampled_from(_TARGETS), seed=st.integers(0, 2**16), nodes=st.integers(2, 9),
       value_edit=_VALUE_EDITS)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_sampled_curve_is_built_or_refused_with_a_config_error(target, seed, nodes, value_edit):
    man = parse_manifold(target)
    rng = np.random.Generator(np.random.Philox([seed, 5]))
    vals = _spoil_values(man.random_point(rng, size=(nodes,)), value_edit)
    curve = _built_or_refused(lambda: SampledCurve(man, vals), SampledCurve)
    if curve is not None:
        assert curve.values.shape == (curve.grid_n, man.ambient_dim) and curve.grid_n >= 2
        assert np.isfinite(curve.values).all()
        assert man.constraint_residual(curve.values) <= 1e-9
