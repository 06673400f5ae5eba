"""File formats: curve/trajectory CSV, config files, manifests, reports.

All floats are serialized with 17 significant digits so that write->read
round-trips reproduce IEEE doubles bit-exactly, and every write is atomic
(temp file in the target directory, then rename).
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


def _meta_line(tag: str, **fields) -> str:
    parts = " ".join(f"{k}={v}" for k, v in fields.items())
    return f"# {tag} {parts}"


def _parse_meta(line: str, tag: str) -> dict:
    body = line.lstrip("#").strip()
    tokens = body.split()
    if not tokens or tokens[0] != tag:
        raise ConfigError(f"expected a '# {tag} ...' metadata line, got {line!r}")
    out = {}
    for tok in tokens[1:]:
        if "=" not in tok:
            raise ConfigError(f"malformed metadata token {tok!r}")
        k, v = tok.split("=", 1)
        out[k] = v
    return out


# ---------------------------------------------------------------------------
# curves
# ---------------------------------------------------------------------------


# abscissa column of each curve kind: plateau right ends, grid nodes
_X_COLUMN = {"pc": "x_right_end", "sampled": "x"}


def _layout(curve):
    """File kind and abscissae of a curve."""
    if isinstance(curve, PiecewiseConstantCurve):
        return "pc", np.concatenate([curve.breakpoints, [1.0]])
    if isinstance(curve, SampledCurve):
        return "sampled", curve.xs
    raise ConfigError(f"not a curve: {type(curve).__name__}")


def _curve_from_columns(man, kind, xs, values):
    """Inverse of ``_layout``: one curve from its abscissae and values."""
    if kind == "pc":
        if not abs(xs[-1] - 1.0) <= 1e-12:
            raise ConfigError("last plateau must end at x=1")
        return PiecewiseConstantCurve(man, xs[:-1], values)
    if kind == "sampled":
        expected = np.linspace(0.0, 1.0, len(xs))
        if len(xs) < 2 or not np.max(np.abs(xs - expected)) <= 1e-9:
            raise ConfigError("sampled curve must sit on a uniform grid over [0,1]")
        return SampledCurve(man, values)
    raise ConfigError(f"unknown curve kind {kind!r}")


def _csv_lines(data: np.ndarray) -> list[str]:
    """One line per row, every cell written with ``_FMT``."""
    row = ",".join([_FMT] * data.shape[1])
    return [row % tuple(cells) for cells in data.tolist()]


def curve_to_text(curve) -> str:
    man = curve.manifold
    kind, xs = _layout(curve)
    cols = ",".join(f"c{i}" for i in range(man.ambient_dim))
    lines = [_meta_line("curve", kind=kind, manifold=man.spec_id), f"{_X_COLUMN[kind]},{cols}"]
    lines += _csv_lines(np.column_stack([xs, curve.values]))
    return "\n".join(lines) + "\n"


def write_curve(path: str, curve) -> None:
    _atomic_write_text(path, curve_to_text(curve))


def _read_rows(lines, n_cols: int) -> np.ndarray:
    try:
        data = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
    except ValueError as exc:
        raise ConfigError(f"malformed data rows: {exc}") from exc
    if data.shape[1] != n_cols:
        raise ConfigError(f"rows have {data.shape[1]} columns, expected {n_cols}")
    return data


def _split_file(text: str, tag: str):
    """Metadata, column names and data lines of a '# <tag> ...' CSV file."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if len(lines) < 2:
        raise ConfigError(f"{tag} file needs a '# {tag} ...' line and a column header")
    meta = _parse_meta(lines[0], tag)
    if len(lines) < 3:
        raise ConfigError(f"{tag} file has no data rows")
    return meta, lines[1].strip().split(","), lines[2:]


def curve_from_text(text: str):
    meta, header, rows = _split_file(text, "curve")
    man = parse_manifold(meta.get("manifold", ""))
    kind = meta.get("kind")
    if len(header) != 1 + man.ambient_dim:
        raise ConfigError(
            f"curve for {man.spec_id} needs {1 + man.ambient_dim} columns, "
            f"header has {len(header)}"
        )
    data = _read_rows(rows, 1 + man.ambient_dim)
    if kind in _X_COLUMN and header[0] != _X_COLUMN[kind]:
        raise ConfigError(f"{kind} curve must use the {_X_COLUMN[kind]} column")
    return _curve_from_columns(man, kind, data[:, 0], data[:, 1:])


def read_curve(path: str):
    return curve_from_text(read_text(path))


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------


def write_trajectory(traj_path: str, diag_path: str, traj: FlowTrajectory) -> None:
    man = traj.manifold
    eps = "none" if traj.epsilon is None else fmt(traj.epsilon)
    lines = [
        _meta_line(
            "trajectory",
            kind=_layout(traj.snapshots[0])[0],
            manifold=man.spec_id,
            solver=traj.solver,
            dt_nominal=fmt(traj.dt_nominal),
            epsilon=eps,
        ),
        "t,x," + ",".join(f"c{i}" for i in range(man.ambient_dim)),
    ]
    blocks = []
    for t, snap in zip(traj.times, traj.snapshots):
        xs = _layout(snap)[1]
        blocks.append(np.column_stack([np.full(xs.size, t), xs, snap.values]))
    lines += _csv_lines(np.vstack(blocks))
    _atomic_write_text(traj_path, "\n".join(lines) + "\n")

    # the sidecar holds what the snapshots cannot give
    diag = ["# diagnostics", "t,dissipation"]
    diag += _csv_lines(np.column_stack([traj.times, traj.dissipation]))
    _atomic_write_text(diag_path, "\n".join(diag) + "\n")


def read_trajectory(traj_path: str, diag_path: str) -> FlowTrajectory:
    meta, _, rows = _split_file(read_text(traj_path), "trajectory")
    man = parse_manifold(meta.get("manifold", ""))
    data = _read_rows(rows, 2 + man.ambient_dim)
    # split rows into snapshots at changes of t (bit-exact after round-trip)
    tcol = data[:, 0]
    starts = np.concatenate([[0], np.nonzero(np.diff(tcol) != 0.0)[0] + 1, [len(tcol)]])
    times, snapshots = [], []
    for a, b in zip(starts[:-1], starts[1:]):
        times.append(data[a, 0])
        snapshots.append(_curve_from_columns(man, meta.get("kind"), data[a:b, 1], data[a:b, 2:]))

    # t and dissipation by name, ignoring any other column, so that sidecars
    # that also carry tv, max_jump and stopped still read
    _, header, drows = _split_file(read_text(diag_path), "diagnostics")
    missing = [name for name in ("t", "dissipation") if name not in header]
    if missing:
        raise ConfigError(f"diagnostics have no {' or '.join(missing)} column")
    ddata = _read_rows(drows, len(header))
    dtimes, dissipation = ddata[:, header.index("t")], ddata[:, header.index("dissipation")]
    if dtimes.size != len(times) or np.any(dtimes != np.array(times)):
        # a sidecar from another run is a bad input, not a failed check
        raise ConfigError("diagnostics do not match the trajectory times")
    eps_raw = meta.get("epsilon", "none")
    try:
        dt_nominal = float(meta.get("dt_nominal", 0.0))
        epsilon = None if eps_raw == "none" else float(eps_raw)
    except ValueError as exc:
        raise ConfigError(f"bad trajectory metadata: {exc}") from exc
    return FlowTrajectory(
        solver=meta.get("solver", "unknown"),
        times=np.array(times),
        snapshots=snapshots,
        dissipation=dissipation,
        dt_nominal=dt_nominal,
        epsilon=epsilon,
    )


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
    "snapshot_every": (int, str),
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
    manifold = parse_manifold(mapping["manifold"])
    try:
        return FlowConfig(**{**mapping, "manifold": manifold})
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


def config_to_text(cfg: FlowConfig, keys=tuple(_CONFIG_KEYS)) -> str:
    """``key = value`` lines for the given keys (every field by default)."""
    return "".join(f"{key} = {text(getattr(cfg, key))}\n"
                   for key, (_, text) in _CONFIG_KEYS.items() if key in keys)


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
        lines.append(
            ",".join(
                [r.name, str(int(r.passed)), fmt(r.worst), at_t, at_x, fmt(r.tolerance)]
            )
        )
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
