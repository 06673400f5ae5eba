"""File formats: curve/trajectory CSV, config files, manifests, reports.

Every cell is written as ``%.17g``, so write->read round-trips reproduce IEEE
doubles bit-exactly.  A table is written block by block, each by one line
template filled by one ``%``; a trajectory's blocks are its snapshots, so a
snapshot's time is formatted once and repeated on its rows.  Every write is
atomic (temp file in the target directory, then rename).

A curve row is a plateau's right end and value (``x_right_end,c0..``) or a
grid node's value alone (``c0..``): the nodes of a sampled curve are its
rows' order on the uniform grid over [0, 1].  A trajectory row is ``t``
and then a curve row.  Curve, trajectory and diagnostics files share one
reader: the metadata line must set exactly the keys the writer writes, and
the column header must be the one the writer writes for that kind, so a
file in any other layout is a ``ConfigError``.
"""
from __future__ import annotations

import hashlib
import json
import os
import tempfile

import numpy as np

from .curves import PiecewiseConstantCurve, SampledCurve
from .errors import ConfigError
from .flows import FlowConfig, FlowTrajectory
from .manifolds import parse_manifold

_FMT = "%.17g"


def fmt(x: float) -> str:
    return _FMT % float(x)


def _atomic_write_text(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def read_text(path: str) -> str:
    """An input file as UTF-8 text; undecodable bytes are a ``ConfigError``."""
    with open(path, encoding="utf-8") as handle:
        try:
            return handle.read()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path} is not UTF-8 text: {exc}") from exc


def _table_text(tag: str, meta: dict, names, blocks) -> str:
    """A '# <tag> key=value ...' line, the column header ``names``, and a line
    per row of each block ``(lead, rows)``: the lead's cells, then the row's."""
    parts = [" ".join([f"# {tag}", *(f"{k}={v}" for k, v in meta.items())]) + "\n"
             + ",".join(names) + "\n"]
    for lead, rows in blocks:
        # the lead text is fmt output, which holds no '%', so the template
        # keeps exactly one conversion per cell of ``rows``
        line = "".join(fmt(x) + "," for x in lead) + ",".join([_FMT] * rows.shape[1]) + "\n"
        parts.append((line * len(rows)) % tuple(rows.ravel().tolist()))
    return "".join(parts)


def _split_file(text: str, tag: str, keys):
    """Metadata of a '# <tag> ...' file, which must set exactly ``keys``, and
    the lines below it."""
    lines = [ln for ln in text.splitlines() if ln.strip()] or [""]
    tokens = lines[0].lstrip("#").split()
    if not tokens or tokens[0] != tag:
        raise ConfigError(f"expected a '# {tag} ...' metadata line, got {lines[0]!r}")
    if any("=" not in tok for tok in tokens[1:]):
        raise ConfigError(f"malformed metadata line {lines[0]!r}")
    meta = dict(tok.split("=", 1) for tok in tokens[1:])
    if sorted(meta) != sorted(keys):
        wanted = ", ".join(keys) or "no key"
        raise ConfigError(f"{tag} metadata must set {wanted}; got {lines[0]!r}")
    return meta, lines[1:]


def _read_rows(lines, names) -> np.ndarray:
    """The rows below a column header, which must be ``names``, one cell per name."""
    got = lines[0].strip() if lines else ""
    if got != ",".join(names):
        raise ConfigError(f"expected the columns {','.join(names)!r}, got {got!r}")
    if len(lines) < 2:
        raise ConfigError("no data rows")
    try:
        data = np.loadtxt(lines[1:], delimiter=",", comments=None, ndmin=2)
    except ValueError as exc:
        raise ConfigError(f"malformed data rows: {exc}") from exc
    if data.shape[1] != len(names):
        raise ConfigError(f"rows have {data.shape[1]} columns, expected {len(names)}")
    return data


# ---------------------------------------------------------------------------
# curves
# ---------------------------------------------------------------------------


# the columns of a curve row before its value: a plateau's right end; a grid
# node is the row's place on the uniform grid over [0, 1], so it has none
_X_COLUMNS = {"pc": ["x_right_end"], "sampled": []}


def _header(kind: str, man) -> list[str]:
    return [*_X_COLUMNS[kind], *(f"c{i}" for i in range(man.ambient_dim))]


def _layout(curve):
    """File kind and rows of a curve: (plateau right end, value) or value."""
    if isinstance(curve, PiecewiseConstantCurve):
        return "pc", np.column_stack([np.append(curve.breakpoints, 1.0), curve.values])
    if isinstance(curve, SampledCurve):
        return "sampled", curve.values
    raise ConfigError(f"not a curve: {type(curve).__name__}")


def _curve_from_rows(man, kind, data):
    """Inverse of ``_layout``: one curve from its rows."""
    if kind == "sampled":
        return SampledCurve(man, data)
    if not abs(data[-1, 0] - 1.0) <= 1e-12:
        raise ConfigError("last plateau must end at x=1")
    return PiecewiseConstantCurve(man, data[:-1, 0], data[:, 1:])


def _curve_rows(text: str, tag: str, keys, lead):
    """Metadata, kind, manifold and rows of a curve or trajectory file, whose
    columns are ``lead`` and then the curve header of its kind."""
    meta, lines = _split_file(text, tag, keys)
    kind = meta["kind"]
    if kind not in _X_COLUMNS:
        raise ConfigError(f"unknown curve kind {kind!r}")
    man = parse_manifold(meta["manifold"])
    return meta, kind, man, _read_rows(lines, [*lead, *_header(kind, man)])


def curve_to_text(curve) -> str:
    kind, rows = _layout(curve)
    man = curve.manifold
    return _table_text("curve", {"kind": kind, "manifold": man.spec_id}, _header(kind, man),
                       [((), rows)])


def curve_from_text(text: str):
    _, kind, man, data = _curve_rows(text, "curve", ("kind", "manifold"), ())
    return _curve_from_rows(man, kind, data)


def write_curve(path: str, curve) -> None:
    _atomic_write_text(path, curve_to_text(curve))


def read_curve(path: str):
    return curve_from_text(read_text(path))


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------

_TRAJECTORY_KEYS = ("kind", "manifold", "solver", "dt_nominal", "epsilon")


def write_trajectory(traj_path: str, diag_path: str, traj: FlowTrajectory) -> None:
    man = traj.manifold
    kind = _layout(traj.snapshots[0])[0]
    meta = {"kind": kind, "manifold": man.spec_id, "solver": traj.solver,
            "dt_nominal": fmt(traj.dt_nominal),
            "epsilon": "none" if traj.epsilon is None else fmt(traj.epsilon)}
    blocks = [((t,), _layout(snap)[1]) for t, snap in zip(traj.times, traj.snapshots)]
    text = _table_text("trajectory", meta, ["t", *_header(kind, man)], blocks)
    _atomic_write_text(traj_path, text)
    # the sidecar holds what the snapshots cannot give
    diag = [((), np.column_stack([traj.times, traj.dissipation]))]
    _atomic_write_text(diag_path, _table_text("diagnostics", {}, ["t", "dissipation"], diag))


def read_trajectory(traj_path: str, diag_path: str) -> FlowTrajectory:
    meta, kind, man, data = _curve_rows(read_text(traj_path), "trajectory",
                                        _TRAJECTORY_KEYS, ("t",))
    try:
        dt_nominal = float(meta["dt_nominal"])
        epsilon = None if meta["epsilon"] == "none" else float(meta["epsilon"])
    except ValueError as exc:
        raise ConfigError(f"bad trajectory metadata: {exc}") from exc
    # split rows into snapshots at changes of t (bit-exact after round-trip)
    tcol = data[:, 0]
    starts = np.concatenate([[0], np.nonzero(np.diff(tcol) != 0.0)[0] + 1, [len(tcol)]])
    times = tcol[starts[:-1]]
    snapshots = [_curve_from_rows(man, kind, data[a:b, 1:])
                 for a, b in zip(starts[:-1], starts[1:])]

    _, lines = _split_file(read_text(diag_path), "diagnostics", ())
    dtimes, dissipation = _read_rows(lines, ("t", "dissipation")).T
    if not np.array_equal(dtimes, times, equal_nan=True):
        # a sidecar from another run is a bad input, not a failed check
        raise ConfigError("diagnostics do not match the trajectory times")
    return FlowTrajectory(solver=meta["solver"], times=times, snapshots=snapshots,
                          dissipation=dissipation, dt_nominal=dt_nominal, epsilon=epsilon)


# ---------------------------------------------------------------------------
# configs
# ---------------------------------------------------------------------------

# every FlowConfig field a config file may set: (parse its text, write its value);
# a time step is a float, or ``auto`` for the solver's own choice
_CONFIG_KEYS = {
    "manifold": (str, lambda man: man.spec_id),
    "epsilon": (float, fmt),
    "grid_n": (int, str),
    "dt": (lambda text: text if text == "auto" else float(text),
           lambda dt: "auto" if dt == "auto" else fmt(dt)),
    "t_max": (float, fmt),
}


def parse_config_text(text: str) -> dict:
    """key = value lines; '#' comments; keys are the FlowConfig fields."""
    out: dict = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            out[key] = _CONFIG_KEYS[key][0](value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key}: {value!r}") from exc
    return out


def flow_config_from_mapping(mapping: dict) -> FlowConfig:
    if "manifold" not in mapping:
        raise ConfigError("config must set 'manifold'")
    return FlowConfig(**{**mapping, "manifold": parse_manifold(mapping["manifold"])})


def config_to_text(cfg: FlowConfig) -> str:
    """``key = value`` lines for every field that is set (not None)."""
    return "".join(f"{key} = {text(getattr(cfg, key))}\n"
                   for key, (_, text) in _CONFIG_KEYS.items() if getattr(cfg, key) is not None)


# ---------------------------------------------------------------------------
# reports, manifests
# ---------------------------------------------------------------------------


def reports_to_csv(reports) -> str:
    lines = ["check,pass,worst,at_t,at_x,tol"]
    for r in reports:
        loc = list(r.location) + ["", ""]
        at_t = fmt(loc[0]) if loc[0] != "" else ""
        xs = loc[1] if isinstance(loc[1], tuple) else (loc[1],)  # a point or an interval
        at_x = ":".join(fmt(x) for x in xs if isinstance(x, (int, float)))
        lines.append(",".join([r.name, str(int(r.passed)), fmt(r.worst), at_t, at_x,
                               fmt(r.tolerance)]))
    return "\n".join(lines) + "\n"


def write_reports(path: str, reports) -> None:
    _atomic_write_text(path, reports_to_csv(reports))


def sha256_of(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_manifest(path: str, command: str, config: dict | None,
                   inputs: list[str], outputs: list[str]) -> None:
    from . import __version__

    payload = {
        "tool": "mtvf",
        "version": __version__,
        "command": command,
        "config": config,
        "inputs": {os.path.basename(p): sha256_of(p) for p in inputs},
        "output_digests": {os.path.basename(p): sha256_of(p) for p in outputs},
    }
    _atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")
