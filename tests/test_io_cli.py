"""Serialization round trips and the command-line surface."""
import dataclasses
import glob
import json
import warnings

import numpy as np
import pytest

import mtvf.cli
from mtvf import (
    ConfigError,
    Euclidean,
    PiecewiseConstantCurve,
    SampledCurve,
    SolverError,
    Sphere,
    flow_on_geodesic,
    mollify,
    run_exact_pc,
    run_scalar_tv,
    scalar_curve,
    scalar_trajectory,
    tv_measure,
)
from mtvf.cli import main
from mtvf.curves import chord_sizes
from mtvf.flows import FlowConfig, FlowTrajectory, run_regularized, solve_banded
from mtvf.io import (
    _CONFIG_KEYS,
    config_to_text,
    curve_from_text,
    curve_to_text,
    flow_config_from_mapping,
    fmt,
    parse_config_text,
    read_curve,
    read_trajectory,
    reports_to_csv,
    sha256_of,
    write_curve,
    write_manifest,
    write_trajectory,
)
from mtvf.synth import noisy_field, random_rad_curve, two_jump_square
from mtvf.verify import CheckReport, check_energy

SPH = Sphere(3)


# ---------------------------------------------------------------------------
# round trips: every float is printed with 17 significant digits, so a
# write/read cycle must reproduce the same doubles bit for bit
# ---------------------------------------------------------------------------


def test_pc_curve_round_trip_bit_exact(tmp_path):
    u = random_rad_curve(SPH, np.random.Generator(np.random.Philox([60, 0])))
    path = tmp_path / "curve.csv"
    write_curve(str(path), u)
    back = read_curve(str(path))
    assert back.manifold == u.manifold
    assert np.array_equal(back.breakpoints, u.breakpoints)
    assert np.array_equal(back.values, u.values)


def test_sampled_curve_round_trip_bit_exact(tmp_path):
    w = noisy_field("sphere:3", grid_n=64, seed=4)
    path = tmp_path / "field.csv"
    write_curve(str(path), w)
    back = read_curve(str(path))
    assert np.array_equal(back.values, w.values)


def test_exact_trajectory_round_trip(tmp_path):
    u0 = random_rad_curve(Euclidean(2), np.random.Generator(np.random.Philox([61, 0])))
    traj = run_exact_pc(u0, t_max=4 * tv_measure(u0).total)
    tp, dp = str(tmp_path / "t.csv"), str(tmp_path / "d.csv")
    write_trajectory(tp, dp, traj)
    back = read_trajectory(tp, dp)
    assert np.array_equal(back.times, traj.times)
    assert np.array_equal(back.tv, traj.tv)
    assert np.array_equal(back.dissipation, traj.dissipation)
    assert np.array_equal([chord_sizes(s).max(initial=0.0) for s in back.snapshots],
                          [chord_sizes(s).max(initial=0.0) for s in traj.snapshots])
    assert [s.num_jumps == 0 for s in back.snapshots] == [s.num_jumps == 0 for s in traj.snapshots]
    assert back.solver == traj.solver
    assert back.dt_nominal == traj.dt_nominal
    assert back.epsilon is None
    for a, b in zip(back.snapshots, traj.snapshots):
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.breakpoints, b.breakpoints)
    # energy check must still pass on the reloaded run
    assert check_energy(back).passed


def test_regularized_trajectory_round_trip_keeps_epsilon(tmp_path):
    w = noisy_field("circle", grid_n=48, noise=0.05, seed=2)
    cfg = FlowConfig(manifold=w.manifold, epsilon=1e-2, grid_n=48, t_max=0.05)
    traj = run_regularized(w, cfg)
    tp, dp = str(tmp_path / "t.csv"), str(tmp_path / "d.csv")
    write_trajectory(tp, dp, traj)
    back = read_trajectory(tp, dp)
    assert back.epsilon == 1e-2
    assert np.array_equal(back.snapshots[-1].values, traj.snapshots[-1].values)


def test_config_round_trip():
    cfg = FlowConfig(manifold=SPH, epsilon=3e-4, grid_n=129, dt=1.25e-4, t_max=0.7)
    back = flow_config_from_mapping(parse_config_text(config_to_text(cfg)))
    assert back == cfg
    auto = FlowConfig(manifold=Euclidean(1))
    assert flow_config_from_mapping(parse_config_text(config_to_text(auto))) == auto


def test_a_float32_config_reruns_bit_for_bit_from_its_config_text():
    # the run computes with the doubles config.txt records, not in float32
    field = noisy_field("sphere:3", grid_n=65, seed=1)
    cfg = FlowConfig(manifold=SPH, epsilon=np.float32(0.01), t_max=np.float32(0.01))
    rerun = flow_config_from_mapping(parse_config_text(config_to_text(cfg)))
    assert rerun == cfg
    first, second = run_regularized(field, cfg), run_regularized(field, rerun)
    assert first.times.tobytes() == second.times.tobytes()
    assert first.dissipation.tobytes() == second.dissipation.tobytes()
    assert all(a.values.tobytes() == b.values.tobytes()
               for a, b in zip(first.snapshots, second.snapshots, strict=True))


def test_config_keys_are_the_flow_config_fields():
    # a config file may set every FlowConfig field and nothing else
    assert set(_CONFIG_KEYS) == {f.name for f in dataclasses.fields(FlowConfig)}


def test_parse_config_reports_line_numbers():
    with pytest.raises(Exception, match="line 2"):
        parse_config_text("manifold = sphere:3\nwhat even is this\n")
    with pytest.raises(Exception, match="line 3.*unknown"):
        parse_config_text("manifold = sphere:3\n\nplumage = blue\n")
    with pytest.raises(Exception, match="line 2.*duplicate"):
        parse_config_text("t_max = 1.0\nt_max = 2.0\n")
    with pytest.raises(Exception, match="line 1.*bad value"):
        parse_config_text("grid_n = soon\n")
    # comments and blank lines are invisible
    assert parse_config_text("# hi\n\nt_max = 2.0  # trailing\n") == {"t_max": 2.0}


def test_curve_text_rejects_malformed_input():
    with pytest.raises(Exception, match="metadata"):
        curve_from_text("x,c0\n0.5,1.0\n")
    with pytest.raises(Exception, match="columns"):
        curve_from_text("# curve kind=pc manifold=sphere:3\nx,c0\n0.5,1.0\n")


def test_reports_csv_shape():
    reports = [
        CheckReport("energy", True, 1e-9, 1e-6, (0.5,)),
        CheckReport("monotone", False, 2e-3, 1e-6, (0.25, 0.5)),
        CheckReport("monotone_variation", False, 3e-3, 1e-6, (0.75, (0.25, 0.5))),
    ]
    text = reports_to_csv(reports)
    lines = text.strip().splitlines()
    assert lines[0] == "check,pass,worst,at_t,at_x,tol"
    assert lines[1].startswith("energy,1,")
    assert lines[2].startswith("monotone,0,")
    # a dyadic-interval location is written lo:hi
    assert lines[3].split(",")[4] == f"{fmt(0.25)}:{fmt(0.5)}"


def test_atomic_write_leaves_no_scraps(tmp_path):
    u = scalar_curve([0.5], [0.0, 1.0])
    path = tmp_path / "c.csv"
    write_curve(str(path), u)
    write_curve(str(path), u)  # overwrite via replace
    assert glob.glob(str(tmp_path / ".tmp-*")) == []
    assert read_curve(str(path)).num_jumps == 1


def test_manifest_digests_inputs(tmp_path):
    src = tmp_path / "in.csv"
    write_curve(str(src), scalar_curve([0.5], [0.0, 1.0]))
    out = tmp_path / "out.csv"
    out.write_text("payload\n")
    mpath = tmp_path / "manifest.json"
    write_manifest(str(mpath), "flow", {"solver": "exact"}, [str(src)], [str(out)])
    payload = json.loads(mpath.read_text())
    assert payload["tool"] == "mtvf"
    assert payload["command"] == "flow"
    assert "seed" not in payload and "outputs" not in payload
    assert payload["inputs"]["in.csv"] == sha256_of(str(src))
    assert payload["output_digests"] == {"out.csv": sha256_of(str(out))}


# ---------------------------------------------------------------------------
# CLI end to end (exit codes are the contract: 0 ok, 2 config, 3 geometry,
# 4 failed verification)
# ---------------------------------------------------------------------------


def _write_config(path, **kv):
    lines = [f"{k} = {v}" for k, v in kv.items()]
    path.write_text("\n".join(lines) + "\n")


def _staircase_on_x_axis(tmp_path, x_axis):
    """The file of ``generate staircase --levels 0,0.8,0.3,1.1``, rewritten as the
    same steps on the x-axis of euclidean:2, which the exact solver steps (it flows
    euclidean:1 data in closed form)."""
    generated, curve_path = tmp_path / "generated.csv", tmp_path / "stairs.csv"
    assert main(["generate", "staircase", "--levels", "0,0.8,0.3,1.1",
                 "--out", str(generated)]) == 0
    write_curve(str(curve_path), x_axis(read_curve(str(generated))))
    return curve_path


def test_cli_generate_flow_verify_pipeline(tmp_path, capsys, x_axis):
    curve_path = _staircase_on_x_axis(tmp_path, x_axis)
    cfg = tmp_path / "run.cfg"
    _write_config(cfg, manifold="euclidean:2", t_max=4.0)
    outdir = tmp_path / "run"
    assert main(["flow", "--config", str(cfg), "--input", str(curve_path),
                 "--out", str(outdir)]) == 0
    assert (outdir / "manifest.json").exists()
    report = tmp_path / "checks.csv"
    assert main(["verify", "--input", str(outdir / "trajectory.csv"),
                 "--checks", "energy,monotone,stopping",
                 "--out", str(report)]) == 0
    assert "stopping,1," in report.read_text()
    # nothing grew, so the passing monotone check locates nothing
    monotone = next(line for line in report.read_text().splitlines()
                    if line.startswith("monotone_variation,"))
    assert monotone.split(",")[1] == "1" and monotone.split(",")[3:5] == ["", ""]
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["inputs"]["stairs.csv"] == sha256_of(str(curve_path))
    # with no --checks an exact run gets energy and monotone
    capsys.readouterr()
    assert main(["verify", "--input", str(outdir / "trajectory.csv")]) == 0
    assert [line.split(":")[0] for line in capsys.readouterr().out.splitlines()] == [
        "[pass] energy_inequality", "[pass] monotone_variation"]


@pytest.mark.parametrize("keys", [{}, {"epsilon": 1e-2, "grid_n": 65}], ids=["exact", "grid"])
def test_cli_flow_names_its_solver_as_the_trajectory_does(tmp_path, capsys, keys):
    # one name per solver: the manifest and the printed line use the header's
    curve_path = tmp_path / "stairs.csv"
    assert main(["generate", "staircase", "--levels", "0,0.8,0.3,1.1",
                 "--out", str(curve_path)]) == 0
    _write_config(tmp_path / "run.cfg", manifold="euclidean:1", t_max=0.05, **keys)
    run = tmp_path / "run"
    capsys.readouterr()
    assert main(["flow", "--config", str(tmp_path / "run.cfg"), "--input", str(curve_path),
                 "--out", str(run)]) == 0
    solver = read_trajectory(str(run / "trajectory.csv"), str(run / "diagnostics.csv")).solver
    assert solver == ("regularized" if keys else "exact_pc")
    assert json.loads((run / "manifest.json").read_text())["config"]["solver"] == solver
    assert capsys.readouterr().out.startswith(f"{solver} run: ")


def test_cli_verify_fails_on_corrupted_trajectory(tmp_path):
    u0 = random_rad_curve(SPH, np.random.Generator(np.random.Philox([62, 0])))
    traj = run_exact_pc(u0, t_max=4 * tv_measure(u0).total)
    snaps = list(traj.snapshots)
    snaps[len(snaps) // 2] = snaps[0]  # resurrect old state
    traj = dataclasses.replace(traj, snapshots=snaps)
    tp, dp = str(tmp_path / "t.csv"), str(tmp_path / "d.csv")
    write_trajectory(tp, dp, traj)
    assert main(["verify", "--input", tp, "--diagnostics", dp,
                 "--checks", "energy"]) == 4


def test_cli_verify_sidecar_from_another_run_is_config_error(tmp_path, capsys):
    for name, levels in (("a", "0,0.8,0.3,1.1"), ("b", "0,1")):
        curve_path = tmp_path / f"{name}.csv"
        assert main(["generate", "staircase", "--levels", levels,
                     "--out", str(curve_path)]) == 0
        _write_config(tmp_path / "run.cfg", manifold="euclidean:1", t_max=4.0)
        assert main(["flow", "--config", str(tmp_path / "run.cfg"), "--input",
                     str(curve_path), "--out", str(tmp_path / f"run{name}")]) == 0
    capsys.readouterr()
    assert main(["verify", "--input", str(tmp_path / "runa" / "trajectory.csv"),
                 "--diagnostics", str(tmp_path / "runb" / "diagnostics.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "Traceback" not in err


def _edit_rows(path, edit):
    """Rewrite the data rows of a written trajectory or sidecar file: ``edit``
    changes the cell texts of the rows, a list of lists, in place."""
    head, columns, *rows = path.read_text().splitlines()
    cells = [row.split(",") for row in rows]
    edit(cells)
    path.write_text("\n".join([head, columns, *(",".join(row) for row in cells)]) + "\n")


def _relabel(*paths, labels):
    """Give every row of the files whose t cell is a key of ``labels`` its value."""
    def edit(cells):
        for row in cells:
            row[0] = labels.get(row[0], row[0])

    for path in paths:
        _edit_rows(path, edit)


def _swap_first_two_times(tp, dp):
    a, b = (fmt(t) for t in read_trajectory(str(tp), str(dp)).times[:2])
    _relabel(tp, dp, labels={a: b, b: a})


@pytest.mark.parametrize("case,match", [
    ("swapped", "strictly increasing"),
    ("inf_time", "finite and strictly increasing"),
    ("nan_dissipation", "dissipation values must be finite"),
])
def test_read_trajectory_refuses_bad_times_and_dissipation(tmp_path, case, match):
    # the times label the snapshots in both files, so both carry the fault
    traj = run_exact_pc(scalar_curve([0.25, 0.5, 0.75], [0.0, 0.8, 0.3, 1.1]), t_max=4.0)
    tp, dp = tmp_path / "t.csv", tmp_path / "d.csv"
    write_trajectory(str(tp), str(dp), traj)
    if case == "swapped":
        _swap_first_two_times(tp, dp)
    elif case == "inf_time":
        _relabel(tp, dp, labels={fmt(traj.times[-1]): "inf"})
    else:
        def nan_last_dissipation(cells):
            cells[-1][1] = "nan"

        _edit_rows(dp, nan_last_dissipation)
    with pytest.raises(ConfigError, match=match):
        read_trajectory(str(tp), str(dp))


def test_cli_verify_refuses_snapshot_times_out_of_order(tmp_path, capsys):
    assert main(["generate", "staircase", "--levels", "0,0.8,0.3,1.1",
                 "--out", str(tmp_path / "u0.csv")]) == 0
    _write_config(tmp_path / "flow.cfg", manifold="euclidean:1", dt="auto", t_max=4.0)
    run = tmp_path / "run"
    assert main(["flow", "--config", str(tmp_path / "flow.cfg"),
                 "--input", str(tmp_path / "u0.csv"), "--out", str(run)]) == 0
    _swap_first_two_times(run / "trajectory.csv", run / "diagnostics.csv")
    capsys.readouterr()
    assert main(["verify", "--input", str(run / "trajectory.csv"),
                 "--checks", "energy,monotone,stopping"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("config error:") and "strictly increasing" in err


def test_cli_flow_dt_sets_exact_solver_base_step(tmp_path, x_axis):
    curve_path = _staircase_on_x_axis(tmp_path, x_axis)
    runs = {}
    for dt in (0.5, 1e-5):
        _write_config(tmp_path / "run.cfg", manifold="euclidean:2", t_max=0.02, dt=repr(dt))
        outdir = tmp_path / f"run{dt}"
        assert main(["flow", "--config", str(tmp_path / "run.cfg"), "--input",
                     str(curve_path), "--out", str(outdir)]) == 0
        recorded = flow_config_from_mapping(
            parse_config_text((outdir / "config.txt").read_text()))
        assert recorded.dt == dt
        runs[dt] = read_trajectory(str(outdir / "trajectory.csv"),
                                   str(outdir / "diagnostics.csv"))
        assert runs[dt].dt_nominal == dt
    # the coarse step is cut only by the collision guard; the fine one is not
    assert len(runs[0.5]) < len(runs[1e-5])
    assert not np.array_equal(runs[0.5].times, runs[1e-5].times[:len(runs[0.5])])


def test_cli_verify_monotone_refuses_grid_run(tmp_path, capsys):
    # a correct regularized run: the law face by face is not its guarantee, so the
    # monotone check does not apply (exit 4) while the energy check passes, and
    # with no --checks it gets the energy check alone
    assert main(["generate", "staircase", "--levels", "0,1,0.4", "--breakpoints", "0.3,0.6",
                 "--out", str(tmp_path / "u0.csv")]) == 0
    _write_config(tmp_path / "run.cfg", manifold="euclidean:1", epsilon=1e-3, grid_n=201,
                  t_max=0.3)
    assert main(["flow", "--config", str(tmp_path / "run.cfg"),
                 "--input", str(tmp_path / "u0.csv"), "--out", str(tmp_path / "run")]) == 0
    trajectory = str(tmp_path / "run" / "trajectory.csv")
    capsys.readouterr()
    assert main(["verify", "--input", trajectory, "--checks", "monotone"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("check does not apply:") and "piecewise-constant" in err
    assert "Traceback" not in err
    assert main(["verify", "--input", trajectory, "--checks", "energy"]) == 0
    capsys.readouterr()
    assert main(["verify", "--input", trajectory]) == 0
    out, err = capsys.readouterr()
    assert [line.split(":")[0] for line in out.splitlines()] == ["[pass] energy_inequality"]
    assert err == ""


def test_cli_verify_unknown_check_is_config_error(tmp_path):
    u0 = scalar_curve([0.5], [0.0, 1.0])
    traj = run_exact_pc(u0, t_max=1.0)
    tp, dp = str(tmp_path / "t.csv"), str(tmp_path / "d.csv")
    write_trajectory(tp, dp, traj)
    assert main(["verify", "--input", tp, "--checks", "energy,vibes"]) == 2


def test_cli_flow_antipodal_jump_is_geometry_error(tmp_path):
    from mtvf import PiecewiseConstantCurve

    bad = PiecewiseConstantCurve(
        SPH, [0.5], np.array([[1.0, 0, 0], [-1.0, 0, 0]])
    )
    curve_path = tmp_path / "bad.csv"
    write_curve(str(curve_path), bad)
    cfg = tmp_path / "run.cfg"
    _write_config(cfg, manifold="sphere:3", t_max=1.0)
    assert main(["flow", "--config", str(cfg), "--input", str(curve_path),
                 "--out", str(tmp_path / "out")]) == 3


def test_cli_verify_antipodal_jump_is_geometry_error(tmp_path, capsys):
    # measuring a step snapshot's variation refuses a jump of twice the convexity
    # radius, by the solvers' rule, and names its size and place
    (tmp_path / "trajectory.csv").write_text(
        "# trajectory kind=pc manifold=sphere:3 solver=exact_pc dt_nominal=0.001 epsilon=none\n"
        "t,x_right_end,c0,c1,c2\n0,0.5,1,0,0\n0,1,-1,0,0\n")
    (tmp_path / "diagnostics.csv").write_text("# diagnostics\nt,dissipation\n0,0\n")
    assert main(["verify", "--input", str(tmp_path / "trajectory.csv")]) == 3
    assert capsys.readouterr().err == ("geometry error: jump of size 3.14159 at x=0.5 reaches "
                                       "twice the convexity radius 1.5708\n")


def test_cli_regularized_needs_explicit_epsilon(tmp_path, capsys):
    # a sampled input runs on the grid solver, which no default epsilon selects
    field = noisy_field("sphere:3", grid_n=33, noise=0.05, seed=1)
    curve_path = tmp_path / "field.csv"
    write_curve(str(curve_path), field)
    for cfg, kv in (("run.cfg", {}), ("eps.cfg", {"epsilon": 1e-3, "grid_n": 33})):
        _write_config(tmp_path / cfg, manifold="sphere:3", t_max=0.01, **kv)
    args = ["flow", "--input", str(curve_path), "--out", str(tmp_path / "out")]
    assert main(args + ["--config", str(tmp_path / "run.cfg")]) == 2
    assert "set epsilon" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    assert main(args + ["--config", str(tmp_path / "eps.cfg")]) == 0


def test_cli_flow_rejects_manifold_mismatch(tmp_path):
    curve_path = tmp_path / "stairs.csv"
    write_curve(str(curve_path), scalar_curve([0.5], [0.0, 1.0]))
    cfg = tmp_path / "run.cfg"
    _write_config(cfg, manifold="sphere:3", t_max=1.0)
    assert main(["flow", "--config", str(cfg), "--input", str(curve_path),
                 "--out", str(tmp_path / "out")]) == 2


def test_cli_denoise_reduces_variation(tmp_path):
    field = noisy_field("sphere:3", grid_n=65, noise=0.2, seed=9)
    curve_path = tmp_path / "noisy.csv"
    write_curve(str(curve_path), field)
    outdir = tmp_path / "den"
    assert main(["denoise", "--input", str(curve_path), "--eps", "1e-2",
                 "--tv-fraction", "0.4", "--out", str(outdir)]) == 0
    smoothed = read_curve(str(outdir / "denoised.csv"))
    assert tv_measure(smoothed).total <= 0.5 * tv_measure(field).total
    # refuses piecewise-constant input
    pc_path = tmp_path / "pc.csv"
    write_curve(str(pc_path), scalar_curve([0.5], [0.0, 1.0]))
    assert main(["denoise", "--input", str(pc_path),
                 "--out", str(tmp_path / "den2")]) == 2


@pytest.mark.parametrize("variant", ["u", "veps"])
def test_cli_generate_two_jump_square_variant(tmp_path, variant):
    path = tmp_path / "sq.csv"
    assert main(["generate", "two_jump_square", "--variant", variant, "--out", str(path)]) == 0
    ref = two_jump_square(variant=variant)
    curve = read_curve(str(path))
    assert np.array_equal(curve.breakpoints, ref.breakpoints)
    assert np.array_equal(curve.values, ref.values)


def test_two_jump_square_refuses_an_unknown_variant():
    with pytest.raises(ConfigError, match="unknown variant 'bogus'"):
        two_jump_square(variant="bogus")


def test_write_curve_refuses_a_non_curve_and_writes_nothing(tmp_path):
    path = tmp_path / "c.csv"
    with pytest.raises(ConfigError, match="not a curve: ndarray"):
        write_curve(str(path), np.zeros((4, 1)))
    assert not path.exists()


def test_cli_generate_two_jump_square_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        assert main(["generate", "two_jump_square", "--side", "0.6",
                     "--eps", "0.2", "--variant", "midpoint",
                     "--out", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()
    curve = read_curve(str(a))
    assert curve.num_jumps == 3
    ref = two_jump_square(side=0.6, eps=0.2, variant="midpoint")
    assert np.array_equal(curve.values, ref.values)


def test_cli_generate_staircase_needs_levels(tmp_path):
    assert main(["generate", "staircase", "--out", str(tmp_path / "s.csv")]) == 2


def test_cli_lab_semiconvexity_table(tmp_path):
    out = tmp_path / "gap.csv"
    assert main(["lab", "semiconvexity", "--n-max", "25", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "n,gap,first_positive"
    flagged = [ln for ln in lines[1:] if ln.endswith(",1")]
    assert len(flagged) == 1
    assert flagged[0].startswith("19,")


def test_cli_lab_midpoint_and_stability(tmp_path, capsys):
    mid = tmp_path / "mid.csv"
    assert main(["lab", "midpoint", "--side", "0.5", "--out", str(mid)]) == 0
    row = mid.read_text().strip().splitlines()[1].split(",")
    assert float(row[2]) > 0
    # without --out the report goes to stdout
    capsys.readouterr()
    assert main(["lab", "midpoint", "--side", "0.5"]) == 0
    assert capsys.readouterr().out == mid.read_text()
    stab = tmp_path / "stab.csv"
    assert main(["lab", "stability", "--samples", "50", "--radius", "0.8",
                 "--out", str(stab)]) == 0
    assert stab.read_text().startswith("# max_ratio=")
    assert main(["lab", "hessian", "--dirs", "4", "--r", "0.7",
                 "--out", str(tmp_path / "h.csv")]) == 0
    assert (tmp_path / "h.csv").read_text().strip().endswith(",1")


def test_cli_missing_input_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    _write_config(cfg, manifold="euclidean:1", t_max=1.0)
    assert main(["flow", "--config", str(cfg),
                 "--input", str(tmp_path / "nope.csv"),
                 "--out", str(tmp_path / "out")]) == 2


_BAD_INPUTS = {
    "stability_zero_samples": ["lab", "stability", "--samples", "0"],
    "stability_negative_samples": ["lab", "stability", "--samples", "-3"],
    "stability_negative_radius": ["lab", "stability", "--samples", "5", "--radius", "-1"],
    "hessian_zero_dirs": ["lab", "hessian", "--dirs", "0"],
    "hessian_r_beyond_injectivity": ["lab", "hessian", "--r", "3.5"],
    "hessian_r_zero": ["lab", "hessian", "--r", "0"],
    "staircase_bad_breakpoints": ["generate", "staircase", "--levels", "0,1",
                                  "--breakpoints", "x", "--out", "{tmp}/s.csv"],
    "noisy_field_grid_one": ["generate", "noisy_field", "--grid", "1", "--out", "{tmp}/g.csv"],
    "two_jump_square_ramp_too_wide": ["generate", "two_jump_square", "--eps", "0.7",
                                      "--out", "{tmp}/g.csv"],
    # a stop fraction outside (0, 1) would stop at once, run to the end, or write NaN
    "denoise_nan_tv_fraction": ["denoise", "--input", "{tmp}/field.csv", "--out", "{tmp}/den",
                                "--tv-fraction", "nan"],
    "denoise_tv_fraction_above_one": ["denoise", "--input", "{tmp}/field.csv",
                                      "--out", "{tmp}/den", "--tv-fraction", "1.5"],
    # a stop time must be positive and finite; inf would ask for an unbounded run
    "denoise_nan_t_stop": ["denoise", "--input", "{tmp}/field.csv", "--out", "{tmp}/den",
                           "--t-stop", "nan"],
    "denoise_zero_t_stop": ["denoise", "--input", "{tmp}/field.csv", "--out", "{tmp}/den",
                            "--t-stop", "0"],
    "denoise_inf_t_stop": ["denoise", "--input", "{tmp}/field.csv", "--out", "{tmp}/den",
                           "--t-stop", "inf"],
    # epsilon must be positive and finite; inf would leave the field where it is
    "denoise_inf_eps": ["denoise", "--input", "{tmp}/field.csv", "--out", "{tmp}/den",
                        "--eps", "inf"],
    "denoise_nan_eps": ["denoise", "--input", "{tmp}/field.csv", "--out", "{tmp}/den",
                        "--eps", "nan"],
    "flow_empty_curve": ["flow", "--config", "{tmp}/run.cfg", "--input", "{tmp}/empty.csv",
                         "--out", "{tmp}/run"],
    "flow_header_only_curve": ["flow", "--config", "{tmp}/run.cfg", "--input",
                               "{tmp}/meta.csv", "--out", "{tmp}/run"],
    "flow_non_numeric_cell": ["flow", "--config", "{tmp}/run.cfg", "--input",
                              "{tmp}/nan.csv", "--out", "{tmp}/run"],
    "flow_bad_dt_in_config": ["flow", "--config", "{tmp}/dt.cfg", "--input", "{tmp}/ok.csv",
                              "--out", "{tmp}/run"],
    "flow_nan_dt_option": ["flow", "--config", "{tmp}/nan_dt.cfg", "--input", "{tmp}/ok.csv",
                           "--out", "{tmp}/run"],
    "flow_nan_t_max_option": ["flow", "--config", "{tmp}/nan_t_max.cfg", "--input",
                              "{tmp}/ok.csv", "--out", "{tmp}/run"],
    # t_max must be finite, as for denoise's --t-stop: inf asks for an unbounded run
    "flow_inf_t_max_option": ["flow", "--config", "{tmp}/inf_t_max.cfg", "--input",
                              "{tmp}/ok.csv", "--out", "{tmp}/run"],
    "flow_inf_dt_in_config": ["flow", "--config", "{tmp}/inf_dt.cfg", "--input", "{tmp}/ok.csv",
                              "--out", "{tmp}/run"],
    "verify_empty_trajectory": ["verify", "--input", "{tmp}/empty.csv",
                                "--diagnostics", "{tmp}/empty.csv"],
    "verify_empty_diagnostics": ["verify", "--input", "{tmp}/run/trajectory.csv",
                                 "--diagnostics", "{tmp}/empty.csv"],
    "verify_trajectory_without_manifold": ["verify", "--input", "{tmp}/traj.csv",
                                           "--diagnostics", "{tmp}/empty.csv"],
    # files in the layout that wrote x on every sampled row, and a sidecar
    # that also carries tv, max_jump and stopped
    "flow_sampled_curve_with_x_column": ["flow", "--config", "{tmp}/reg.cfg", "--input",
                                         "{tmp}/field_x.csv", "--out", "{tmp}/run"],
    "verify_step_trajectory_with_x_column": ["verify", "--input", "{tmp}/step_x.csv",
                                             "--diagnostics", "{tmp}/sidecar.csv"],
    "verify_sampled_trajectory_with_x_column": ["verify", "--input", "{tmp}/sampled_x.csv",
                                                "--diagnostics", "{tmp}/sidecar.csv"],
    "verify_five_column_sidecar": ["verify", "--input", "{tmp}/run/trajectory.csv",
                                   "--diagnostics", "{tmp}/five_column_sidecar.csv"],
    # every config key and option is read by the chosen solver or refused
    "flow_seed_in_config": ["flow", "--config", "{tmp}/seed.cfg", "--input", "{tmp}/ok.csv",
                            "--out", "{tmp}/run"],
    "flow_exact_given_epsilon": ["flow", "--config", "{tmp}/eps.cfg", "--input", "{tmp}/ok.csv",
                                 "--out", "{tmp}/run"],
    "flow_exact_given_grid_n": ["flow", "--config", "{tmp}/grid.cfg", "--input", "{tmp}/ok.csv",
                                "--out", "{tmp}/run"],
    "flow_exact_given_removed_scheme_key": ["flow", "--config", "{tmp}/scheme.cfg", "--input",
                                            "{tmp}/ok.csv", "--out", "{tmp}/run"],
    "flow_exact_given_cfl_factor": ["flow", "--config", "{tmp}/cfl.cfg", "--input",
                                    "{tmp}/ok.csv", "--out", "{tmp}/run"],
    "flow_exact_given_merge_tol": ["flow", "--config", "{tmp}/merge.cfg", "--input",
                                   "{tmp}/ok.csv", "--out", "{tmp}/run"],
    "flow_regularized_given_merge_tol": ["flow", "--config", "{tmp}/reg_merge.cfg", "--input",
                                         "{tmp}/field.csv", "--out", "{tmp}/run"],
    "flow_regularized_cfl_without_explicit": ["flow", "--config", "{tmp}/reg_cfl.cfg",
                                              "--input", "{tmp}/field.csv", "--out", "{tmp}/run"],
    "flow_regularized_removed_scheme_key_explicit": ["flow", "--config",
                                                     "{tmp}/reg_scheme_explicit.cfg", "--input",
                                                     "{tmp}/field.csv", "--out", "{tmp}/run"],
    "flow_regularized_removed_scheme_key_semi_implicit": ["flow", "--config",
                                                          "{tmp}/reg_scheme_semi_implicit.cfg",
                                                          "--input", "{tmp}/field.csv",
                                                          "--out", "{tmp}/run"],
    "flow_regularized_grid_n_not_node_count": ["flow", "--config", "{tmp}/reg_grid.cfg",
                                               "--input", "{tmp}/field.csv", "--out", "{tmp}/run"],
    # curve values that are not finite or sit where the projection is singular
    "flow_nan_plateau_value": ["flow", "--config", "{tmp}/sphere.cfg", "--input",
                               "{tmp}/nan_plateau.csv", "--out", "{tmp}/run"],
    "flow_inf_cell": ["flow", "--config", "{tmp}/plane.cfg", "--input", "{tmp}/inf.csv",
                      "--out", "{tmp}/run"],
    "flow_origin_on_sphere": ["flow", "--config", "{tmp}/sphere.cfg", "--input",
                              "{tmp}/origin.csv", "--out", "{tmp}/run"],
    "flow_point_on_cylinder_axis": ["flow", "--config", "{tmp}/cylinder.cfg", "--input",
                                    "{tmp}/axis.csv", "--out", "{tmp}/run"],
    "flow_nan_breakpoint": ["flow", "--config", "{tmp}/run.cfg", "--input",
                            "{tmp}/nan_breakpoint.csv", "--out", "{tmp}/run"],
    "flow_nan_last_x": ["flow", "--config", "{tmp}/run.cfg", "--input", "{tmp}/nan_end.csv",
                        "--out", "{tmp}/run"],
    "flow_nan_sampled_x": ["flow", "--config", "{tmp}/reg.cfg", "--input", "{tmp}/nan_x.csv",
                           "--out", "{tmp}/run"],
    "flow_grid_n_two_in_config": ["flow", "--config", "{tmp}/grid_two.cfg", "--input",
                                  "{tmp}/ok.csv", "--out", "{tmp}/run"],
    "flow_euclidean_zero_in_config": ["flow", "--config", "{tmp}/euclidean_zero.cfg", "--input",
                                      "{tmp}/ok.csv", "--out", "{tmp}/run"],
    "flow_regularized_removed_scheme_key_bogus": ["flow", "--config",
                                                  "{tmp}/reg_scheme_bogus.cfg", "--input",
                                                  "{tmp}/field.csv", "--out", "{tmp}/run"],
    "verify_no_checks": ["verify", "--input", "{tmp}/run/trajectory.csv", "--checks", ","],
    "verify_unknown_check": ["verify", "--input", "{tmp}/run/trajectory.csv",
                             "--checks", "bogus"],
}

# curve, trajectory and sidecar files the bad-input cases read
_BAD_CURVES = {
    "nan_plateau": "# curve kind=pc manifold=sphere:3\nx_right_end,c0,c1,c2\n0.5,0,0,1\n1,nan,0,1\n",
    "inf": "# curve kind=pc manifold=euclidean:2\nx_right_end,c0,c1\n0.5,0,0\n1,inf,0\n",
    "origin": "# curve kind=pc manifold=sphere:3\nx_right_end,c0,c1,c2\n1,0,0,0\n",
    "axis": "# curve kind=sampled manifold=cylinder\nc0,c1,c2\n1,0,0\n0,0,0.5\n",
    "nan_breakpoint": "# curve kind=pc manifold=euclidean:1\nx_right_end,c0\nnan,0\n1,1\n",
    "nan_end": "# curve kind=pc manifold=euclidean:1\nx_right_end,c0\nnan,0\n",
    "nan_x": "# curve kind=sampled manifold=euclidean:1\nx,c0\n0,0\nnan,1\n1,0\n",
    "field_x": "# curve kind=sampled manifold=euclidean:1\nx,c0\n0,0\n0.5,1\n1,0\n",
    "step_x": "# trajectory kind=pc manifold=euclidean:1 solver=exact_pc dt_nominal=0.001 "
              "epsilon=none\nt,x,c0\n0,1,0.5\n",
    "sampled_x": "# trajectory kind=sampled manifold=euclidean:1 solver=regularized "
                 "dt_nominal=0.001 epsilon=0.001\nt,x,c0\n0,0,0\n0,0.5,1\n0,1,0\n",
    "sidecar": "# diagnostics\nt,dissipation\n0,0\n",
    "five_column_sidecar": "# diagnostics\nt,tv,dissipation,max_jump,stopped\n0,0,0,0,0\n",
}

# config files the bad-input cases read, beside run.cfg
_BAD_CONFIGS = {
    "seed": {"manifold": "euclidean:1", "t_max": 1.0, "seed": 3},
    "nan_dt": {"manifold": "euclidean:1", "t_max": 1.0, "dt": "nan"},
    "nan_t_max": {"manifold": "euclidean:1", "t_max": "nan"},
    "inf_t_max": {"manifold": "euclidean:1", "t_max": "inf"},
    "merge": {"manifold": "euclidean:1", "t_max": 1.0, "merge_tol": 1e-9},
    "eps": {"manifold": "euclidean:1", "t_max": 1.0, "epsilon": 1e-3},
    "grid": {"manifold": "euclidean:1", "t_max": 1.0, "grid_n": 101},
    "scheme": {"manifold": "euclidean:1", "t_max": 1.0, "scheme": "explicit"},
    "cfl": {"manifold": "euclidean:1", "t_max": 1.0, "cfl_factor": 0.3},
    "reg": {"manifold": "euclidean:1", "t_max": 0.01, "epsilon": 0.1},
    "reg_merge": {"manifold": "euclidean:1", "t_max": 0.01, "epsilon": 0.1,
                  "merge_tol": 1e-9},
    "reg_cfl": {"manifold": "euclidean:1", "t_max": 0.01, "epsilon": 0.1, "cfl_factor": 0.3},
    "reg_scheme_explicit": {"manifold": "euclidean:1", "t_max": 0.01, "epsilon": 0.1,
                            "scheme": "explicit", "cfl_factor": 0.3, "dt": 1e-6},
    "reg_scheme_semi_implicit": {"manifold": "euclidean:1", "t_max": 0.01, "epsilon": 0.1,
                                 "scheme": "semi_implicit"},
    "reg_grid": {"manifold": "euclidean:1", "t_max": 0.01, "epsilon": 0.1, "grid_n": 5},
    "sphere": {"manifold": "sphere:3", "t_max": 1.0},
    "plane": {"manifold": "euclidean:2", "t_max": 1.0},
    "cylinder": {"manifold": "cylinder", "t_max": 1.0, "epsilon": 0.1},
    "grid_two": {"manifold": "euclidean:1", "t_max": 1.0, "grid_n": 2},
    "euclidean_zero": {"manifold": "euclidean:0", "t_max": 1.0},
    "reg_scheme_bogus": {"manifold": "euclidean:1", "t_max": 0.01, "epsilon": 0.1,
                         "scheme": "bogus"},
}


@pytest.mark.parametrize("case", sorted(_BAD_INPUTS))
def test_cli_bad_input_is_config_error(tmp_path, capsys, case):
    _write_config(tmp_path / "run.cfg", manifold="euclidean:1", t_max=1.0)
    (tmp_path / "empty.csv").write_text("")
    (tmp_path / "meta.csv").write_text("# curve kind=pc manifold=euclidean:1\n")
    (tmp_path / "traj.csv").write_text("# trajectory kind=pc\nt,x,c0\n0,1,0.5\n")
    (tmp_path / "ok.csv").write_text("# curve kind=pc manifold=euclidean:1\nx_right_end,c0\n1,0\n")
    _write_config(tmp_path / "dt.cfg", manifold="euclidean:1", dt="soon")
    _write_config(tmp_path / "inf_dt.cfg", manifold="euclidean:1", dt="inf")
    (tmp_path / "nan.csv").write_text(
        "# curve kind=pc manifold=euclidean:1\nx_right_end,c0\n0.5,zero\n1,1\n")
    (tmp_path / "field.csv").write_text(
        "# curve kind=sampled manifold=euclidean:1\nc0\n0\n1\n0\n")
    for name, kv in _BAD_CONFIGS.items():
        _write_config(tmp_path / f"{name}.cfg", **kv)
    for name, text in _BAD_CURVES.items():
        (tmp_path / f"{name}.csv").write_text(text)
    assert main(["flow", "--config", str(tmp_path / "run.cfg"),
                 "--input", str(tmp_path / "ok.csv"), "--out", str(tmp_path / "run")]) == 0
    capsys.readouterr()
    argv = [a.format(tmp=tmp_path) for a in _BAD_INPUTS[case]]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "Traceback" not in err
    if case.startswith("denoise_"):
        # the message names the option given, not the config key it feeds
        assert argv[-2] in err


# paths that cannot be read or written, and input bytes that are not UTF-8:
# case -> (error prefix, argv)
_UNUSABLE_PATHS = {
    "generate_out_is_directory": ("file error:", ["generate", "staircase", "--levels", "0,1",
                                                  "--out", "{tmp}/dir"]),
    "lab_out_is_directory": ("file error:", ["lab", "midpoint", "--out", "{tmp}/dir"]),
    "verify_out_is_directory": ("file error:", ["verify", "--input", "{tmp}/run/trajectory.csv",
                                                "--out", "{tmp}/dir"]),
    "flow_out_is_file": ("file error:", ["flow", "--config", "{tmp}/run.cfg", "--input",
                                         "{tmp}/ok.csv", "--out", "{tmp}/ok.csv"]),
    "flow_regularized_out_is_file": ("file error:", ["flow", "--config", "{tmp}/reg.cfg",
                                                     "--input", "{tmp}/field.csv",
                                                     "--out", "{tmp}/field.csv"]),
    "denoise_out_is_file": ("file error:", ["denoise", "--input", "{tmp}/field.csv",
                                            "--out", "{tmp}/field.csv"]),
    "flow_config_is_directory": ("file error:", ["flow", "--config", "{tmp}/dir", "--input",
                                                 "{tmp}/ok.csv", "--out", "{tmp}/out"]),
    "flow_input_is_directory": ("file error:", ["flow", "--config", "{tmp}/run.cfg",
                                                "--input", "{tmp}/dir", "--out", "{tmp}/out"]),
    "denoise_input_is_directory": ("file error:", ["denoise", "--input", "{tmp}/dir",
                                                   "--out", "{tmp}/out"]),
    "verify_input_is_directory": ("file error:", ["verify", "--input", "{tmp}/dir"]),
    "flow_curve_not_utf8": ("config error:", ["flow", "--config", "{tmp}/run.cfg", "--input",
                                              "{tmp}/latin1.csv", "--out", "{tmp}/out"]),
    "flow_config_not_utf8": ("config error:", ["flow", "--config", "{tmp}/latin1.cfg",
                                               "--input", "{tmp}/ok.csv", "--out", "{tmp}/out"]),
    "verify_trajectory_not_utf8": ("config error:", ["verify", "--input", "{tmp}/latin1.traj",
                                                     "--diagnostics",
                                                     "{tmp}/run/diagnostics.csv"]),
}


@pytest.mark.parametrize("case", sorted(_UNUSABLE_PATHS))
def test_cli_unusable_path_exits_2(tmp_path, capsys, monkeypatch, case):
    _write_config(tmp_path / "run.cfg", manifold="euclidean:1", t_max=1.0)
    _write_config(tmp_path / "reg.cfg", manifold="euclidean:1", t_max=1.0, epsilon=0.1)
    (tmp_path / "ok.csv").write_text("# curve kind=pc manifold=euclidean:1\nx_right_end,c0\n1,0\n")
    (tmp_path / "field.csv").write_text(
        "# curve kind=sampled manifold=euclidean:1\nc0\n0\n1\n0\n")
    (tmp_path / "dir").mkdir()
    (tmp_path / "latin1.csv").write_bytes(
        b"# curve kind=pc manifold=euclidean:1\nx_right_end,c0\n1,0\xe9\n")
    (tmp_path / "latin1.cfg").write_bytes(b"manifold = euclidean:1  # caf\xe9\n")
    (tmp_path / "latin1.traj").write_bytes(
        b"# trajectory kind=pc manifold=euclidean:1\nt,x_right_end,c0\n0,1,0\xe9\n")
    assert main(["flow", "--config", str(tmp_path / "run.cfg"),
                 "--input", str(tmp_path / "ok.csv"), "--out", str(tmp_path / "run")]) == 0
    capsys.readouterr()

    def solver(*args, **kwargs):  # an unusable path is refused before any solve
        raise AssertionError("a solver ran before the path was refused")

    monkeypatch.setattr(mtvf.cli, "flow", solver)
    prefix, argv = _UNUSABLE_PATHS[case]
    assert main([a.format(tmp=tmp_path) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith(prefix)
    assert "Traceback" not in err
    # an atomic write that cannot land leaves no temporary file behind
    assert not glob.glob(str(tmp_path / ".tmp-*"))


def test_every_path_refuses_a_grid_below_3_nodes_before_the_solve(tmp_path, capsys, monkeypatch):
    # a 2-node sampled input sets a grid that FlowConfig refuses, whether the
    # config names it or not: mtvf denoise and run_regularized flowed it
    def solve(*args):
        raise AssertionError("a grid below 3 nodes reached the solve")

    monkeypatch.setattr(mtvf.flows, "solve_banded", solve)
    two = SampledCurve(Euclidean(1), [[0.0], [1.0]])
    cfg = FlowConfig(Euclidean(1), epsilon=0.1, t_max=0.01)
    with pytest.raises(ConfigError, match="grid_n must be at least 3"):
        run_regularized(two, cfg)
    with pytest.raises(ConfigError, match="grid_n must be at least 3"):
        mtvf.flows.flow(two, cfg)
    write_curve(str(tmp_path / "two.csv"), two)
    _write_config(tmp_path / "reg.cfg", manifold="euclidean:1", t_max=0.01, epsilon=0.1)
    for argv in (["flow", "--config", str(tmp_path / "reg.cfg")], ["denoise"]):
        assert main(argv + ["--input", str(tmp_path / "two.csv"),
                            "--out", str(tmp_path / "run")]) == 2
        assert "config error: grid_n must be at least 3" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", ["flow", "denoise"])
def test_cli_refused_datum_leaves_no_run_directory(tmp_path, capsys, command):
    # an antipodal jump has no unique geodesic: the solver refuses it after
    # --out is claimed, and the directory the command made goes again, while
    # a directory that was there before stays
    antipodal = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
    if command == "flow":
        write_curve(str(tmp_path / "u0.csv"), PiecewiseConstantCurve(SPH, [0.5], antipodal))
        _write_config(tmp_path / "run.cfg", manifold="sphere:3", t_max=1.0)
        argv = ["flow", "--config", str(tmp_path / "run.cfg"), "--input", str(tmp_path / "u0.csv")]
    else:
        (tmp_path / "u0.csv").write_text(
            "# curve kind=sampled manifold=sphere:3\nc0,c1,c2\n1,0,0\n-1,0,0\n-1,0,0\n")
        argv = ["denoise", "--input", str(tmp_path / "u0.csv")]
    (tmp_path / "kept").mkdir()
    for out in ("run", "kept"):
        assert main(argv + ["--out", str(tmp_path / out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("geometry error:") and "Traceback" not in err
    assert not (tmp_path / "run").exists()
    assert (tmp_path / "kept").is_dir()


def test_cli_two_jump_square_side_beyond_range_is_geometry_error(tmp_path, capsys):
    # a geodesic square of side 2 does not fit the comparison range (0, pi/2)
    out = tmp_path / "square.csv"
    assert main(["generate", "two_jump_square", "--side", "2", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("geometry error: side 2.0 outside (0, pi/2)")
    assert "Traceback" not in err
    assert not out.exists() and not glob.glob(str(tmp_path / ".tmp-*"))


def test_cli_solver_error_exits_2_and_leaves_no_run_directory(tmp_path, capsys, monkeypatch):
    # a failed linear solve (a non-zero LAPACK info) is a generic solver
    # error: exit 2 with one line, and the run directory made for it goes
    def failed_solve(diagonal, off_diagonal, rhs):
        raise SolverError("tridiagonal solve failed: LAPACK ?ptsv info = 2")

    monkeypatch.setattr(mtvf.flows, "solve_banded", failed_solve)
    write_curve(str(tmp_path / "field.csv"),
                noisy_field("circle", grid_n=33, noise=0.05, seed=3))
    _write_config(tmp_path / "run.cfg", manifold="circle", t_max=0.01, epsilon=1e-2)
    assert main(["flow", "--config", str(tmp_path / "run.cfg"), "--input",
                 str(tmp_path / "field.csv"), "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: tridiagonal solve failed")
    assert "Traceback" not in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("eps,outcome", [("1e-200", "config error"), ("1e-150", "error"),
                                         ("1e-18", "error")])
def test_cli_denoise_refuses_a_tiny_epsilon_by_name(tmp_path, capsys, monkeypatch, eps, outcome):
    # epsilon^2 underflows to 0 at 1e-200, so FlowConfig refuses it before a
    # division by zero; at 1e-150 and 1e-18, dt / (h^2 epsilon) reaches 2^52,
    # where a flat face's row loses its unit diagonal, and the run is refused
    # by that rule before any solve, not when a rounded factorization fails
    solves = []

    def counted(*args):
        solves.append(1)
        return solve_banded(*args)

    monkeypatch.setattr("mtvf.flows.solve_banded", counted)
    field = str(tmp_path / "field.csv")
    assert main(["generate", "noisy_field", "--manifold", "sphere:3", "--grid", "33",
                 "--out", field]) == 0
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["denoise", "--input", field, "--eps", eps,
                     "--out", str(tmp_path / "den")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"{outcome}:") and f"epsilon = {eps} is too small" in err
    assert "Traceback" not in err
    assert not (tmp_path / "den").exists()
    assert not solves
    # dt / (h^2 epsilon) = 8e13 on this 33-node grid: the run goes on to the end
    assert main(["denoise", "--input", field, "--eps", "1e-13",
                 "--out", str(tmp_path / "den")]) == 0
    assert solves


# each case is named for the solver its config selects; "auto", with no epsilon, is the exact one
@pytest.mark.parametrize("solver,keys", [("auto", {}),
                                         ("regularized", {"epsilon": 0.1, "grid_n": 33})])
def test_cli_step_underflow_exits_2_and_leaves_no_run_directory(tmp_path, capsys, solver, keys):
    # a step below 1e-15 cannot advance the time, so FlowConfig refuses such a
    # dt before either solver runs
    write_curve(str(tmp_path / "u0.csv"), scalar_curve([0.5], [0.0, 1.0]))
    _write_config(tmp_path / "run.cfg", manifold="euclidean:1", t_max=1.0, dt=1e-16, **keys)
    assert main(["flow", "--config", str(tmp_path / "run.cfg"),
                 "--input", str(tmp_path / "u0.csv"), "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: dt must be") and "Traceback" not in err
    assert not (tmp_path / "run").exists()


# case -> (config file, the key refused): the exact solver's merge tolerance
# is a constant, so no config sets it, whichever solver the config selects
# ("auto", with no epsilon, is the exact one); nor does one set the recording
# cadence, which a config.txt written while it was a setting still holds
_UNKNOWN_KEYS = {
    "auto": ("manifold = euclidean:1\nt_max = 1.0\nmerge_tol = 1e-9\n", "merge_tol"),
    "regularized": ("manifold = euclidean:1\nt_max = 1.0\nmerge_tol = 1e-9\n"
                    "epsilon = 0.1\ngrid_n = 33\n", "merge_tol"),
    "old_config_txt": ("manifold = euclidean:1\ndt = auto\nt_max = 1\nsnapshot_every = 10\n",
                       "snapshot_every"),
}


@pytest.mark.parametrize("case", list(_UNKNOWN_KEYS))
def test_cli_unknown_config_key_is_refused_before_the_run_directory(tmp_path, capsys, case):
    text, key = _UNKNOWN_KEYS[case]
    write_curve(str(tmp_path / "u0.csv"), scalar_curve([0.5], [0.0, 1.0]))
    (tmp_path / "run.cfg").write_text(text)
    assert main(["flow", "--config", str(tmp_path / "run.cfg"),
                 "--input", str(tmp_path / "u0.csv"), "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert f"unknown config key '{key}'" in err and "Traceback" not in err
    assert not (tmp_path / "run").exists()


def test_cli_removed_sources_leave_no_run_directory(tmp_path, capsys):
    # flow reads its settings from the config file and denoise from the input
    # header; a flag that would repeat one, or names a solver, is a usage
    # error before any directory is made
    write_curve(str(tmp_path / "u0.csv"), scalar_curve([0.5], [0.0, 1.0]))
    _write_config(tmp_path / "run.cfg", manifold="euclidean:1", t_max=1.0)
    flow = ["flow", "--config", str(tmp_path / "run.cfg"), "--input", str(tmp_path / "u0.csv")]
    denoise = ["denoise", "--input", str(tmp_path / "u0.csv")]
    for argv, option, value in [(flow, "--eps", "0.1"), (flow, "--grid", "9"),
                                (flow, "--dt", "1e-3"), (flow, "--t-max", "1.0"),
                                (flow, "--manifold", "euclidean:1"), (flow, "--solver", "exact"),
                                (denoise, "--manifold", "euclidean:1")]:
        with pytest.raises(SystemExit) as exit_info:
            main(argv + ["--out", str(tmp_path / "run"), option, value])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert option in err and "Traceback" not in err
        assert not (tmp_path / "run").exists()


def test_cli_verify_stopping_fails_on_an_unstopped_run(tmp_path, capsys):
    assert main(["generate", "staircase", "--levels", "0,1",
                 "--out", str(tmp_path / "u0.csv")]) == 0
    _write_config(tmp_path / "run.cfg", manifold="euclidean:1", t_max=0.01)
    assert main(["flow", "--config", str(tmp_path / "run.cfg"), "--input",
                 str(tmp_path / "u0.csv"), "--out", str(tmp_path / "run")]) == 0
    capsys.readouterr()
    assert main(["verify", "--input", str(tmp_path / "run" / "trajectory.csv"),
                 "--checks", "stopping"]) == 4
    out, err = capsys.readouterr()
    assert out.startswith("[FAIL] stopping")
    assert err.startswith("verification failed:")


# option values argparse refuses: a Philox seed cannot be negative, and a
# semiconvexity table needs at least one row
_BAD_OPTION_VALUES = {
    "hessian_negative_seed": ("--seed", ["lab", "hessian", "--seed", "-1"]),
    "stability_negative_seed": ("--seed", ["lab", "stability", "--samples", "5", "--seed", "-1"]),
    "stability_non_integer_seed": ("--seed", ["lab", "stability", "--samples", "5",
                                              "--seed", "abc"]),
    "noisy_field_negative_seed": ("--seed", ["generate", "noisy_field", "--grid", "9",
                                             "--seed", "-1", "--out", "{tmp}/u.csv"]),
    "semiconvexity_zero_n_max": ("--n-max", ["lab", "semiconvexity", "--n-max", "0"]),
}


@pytest.mark.parametrize("case", sorted(_BAD_OPTION_VALUES))
def test_cli_bad_option_value_is_usage_error(tmp_path, capsys, case):
    option, argv = _BAD_OPTION_VALUES[case]
    with pytest.raises(SystemExit) as exit_info:
        main([a.format(tmp=tmp_path) for a in argv])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {option}:" in err and "Traceback" not in err
    assert not (tmp_path / "u.csv").exists()


@pytest.mark.parametrize("command", ["flow", "denoise"])
def test_cli_seed_option_is_usage_error(tmp_path, capsys, command):
    # neither solver draws random numbers, so neither command takes a seed
    argv = {"flow": ["flow", "--config", "run.cfg"], "denoise": ["denoise"]}[command]
    with pytest.raises(SystemExit) as exit_info:
        main(argv + ["--input", "u0.csv", "--out", str(tmp_path / "run"), "--seed", "3"])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "--seed" in err and "Traceback" not in err


# every option of the old flat lab and generate parsers that the experiment or
# kind does not read, denoise given both stop rules, and the flow and denoise
# options that repeated a setting the config file or the input header gives
# (flow's --solver among them: the config's epsilon selects the solver)
_UNREAD = {
    "lab semiconvexity": "--r --dirs --samples --radius --side --seed --manifold",
    "lab hessian": "--n-max --samples --radius --side",
    "lab stability": "--n-max --r --dirs --side --manifold",
    "lab midpoint": "--n-max --r --dirs --samples --radius --seed --manifold",
    "generate staircase": "--manifold --grid --noise --side --eps --variant --seed",
    "generate noisy_field": "--levels --breakpoints --side --eps --variant",
    "generate two_jump_square": "--levels --breakpoints --manifold --grid --noise --seed",
    "denoise --input u0.csv --t-stop 0.01": "--tv-fraction",
    "flow --config run.cfg --input u0.csv": "--eps --grid --dt --t-max --manifold --solver",
    "denoise --input u0.csv": "--manifold",
}
_OPTION_VALUE = {
    "--n-max": "5", "--r": "0.5", "--dirs": "3", "--samples": "5", "--radius": "0.5",
    "--side": "0.4", "--seed": "3", "--manifold": "sphere:3", "--levels": "0,1",
    "--breakpoints": "0.5", "--grid": "9", "--noise": "0.1", "--eps": "0.1",
    "--variant": "u", "--tv-fraction": "0.5", "--dt": "1e-3", "--t-max": "1.0",
    "--solver": "regularized",
}


@pytest.mark.parametrize("command,option", [(c, o) for c, opts in _UNREAD.items()
                                            for o in opts.split()])
def test_cli_unread_option_is_usage_error(tmp_path, capsys, command, option):
    argv = command.split() + ["--out", str(tmp_path / "out"), option, _OPTION_VALUE[option]]
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert option in err and "Traceback" not in err


def test_cli_denoise_manifest_records_the_stop_rule_used(tmp_path):
    curve_path = tmp_path / "noisy.csv"
    write_curve(str(curve_path), noisy_field("circle", grid_n=33, noise=0.1, seed=4))
    for option, value, key, other in (("--t-stop", "0.01", "t_stop", "tv_fraction"),
                                      ("--tv-fraction", "0.5", "tv_fraction", "t_stop")):
        outdir = tmp_path / key
        assert main(["denoise", "--input", str(curve_path), "--eps", "1e-2",
                     "--out", str(outdir), option, value]) == 0
        params = json.loads((outdir / "manifest.json").read_text())["config"]
        assert params[key] == float(value) and other not in params


@pytest.mark.parametrize("manifold", ["sphere:3", "cylinder", "euclidean:2"])
def test_cli_denoise_t_stop_records_only_the_state_it_writes(tmp_path, capsys, monkeypatch,
                                                             manifold):
    # the steps run to t_max either way, so recording only the final state
    # writes the bytes and prints the line a cadence-recorded run gives
    write_curve(str(tmp_path / "noisy.csv"), noisy_field(manifold, grid_n=1001, seed=2))
    argv = ["denoise", "--input", str(tmp_path / "noisy.csv"), "--eps", "1e-2",
            "--t-stop", "0.003"]
    flow, lengths = mtvf.cli.flow, []

    def recorded(curve, cfg, snapshot_times=None):
        traj = flow(curve, cfg, snapshot_times)
        lengths.append(len(traj))
        return traj

    monkeypatch.setattr(mtvf.cli, "flow", recorded)
    assert main(argv + ["--out", str(tmp_path / "final")]) == 0
    monkeypatch.setattr(mtvf.cli, "flow", lambda curve, cfg, snapshot_times=None: recorded(curve, cfg))
    assert main(argv + ["--out", str(tmp_path / "cadence")]) == 0
    first, second = capsys.readouterr().out.splitlines()
    assert first == second and lengths[0] == 2 < lengths[1]
    for name in ("denoised.csv", "manifest.json"):
        assert (tmp_path / "final" / name).read_bytes() == (tmp_path / "cadence" / name).read_bytes()


def test_cli_flow_records_only_the_keys_read(tmp_path):
    write_curve(str(tmp_path / "stairs.csv"), scalar_curve([0.5], [0.0, 1.0]))
    _write_config(tmp_path / "exact.cfg", manifold="euclidean:1", t_max=1.0)
    write_curve(str(tmp_path / "field.csv"),
                noisy_field("circle", grid_n=33, noise=0.05, seed=3))
    _write_config(tmp_path / "reg.cfg", manifold="circle", t_max=1e-3, epsilon=1e-2)
    expected = {
        "exact": ("exact.cfg", "stairs.csv",
                  ["manifold", "dt", "t_max"]),
        "regularized": ("reg.cfg", "field.csv",
                        ["manifold", "epsilon", "grid_n", "dt", "t_max"]),
    }
    for solver, (cfg, curve, keys) in expected.items():
        outdir = tmp_path / solver
        assert main(["flow", "--config", str(tmp_path / cfg), "--input",
                     str(tmp_path / curve), "--out", str(outdir)]) == 0
        lines = (outdir / "config.txt").read_text().splitlines()
        assert [ln.split(" = ")[0] for ln in lines] == keys
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["output_digests"] == {
            name: sha256_of(str(outdir / name))
            for name in ["trajectory.csv", "diagnostics.csv", "config.txt"]}
    assert "grid_n = 33" in (tmp_path / "regularized" / "config.txt").read_text()
    assert "epsilon" not in (tmp_path / "exact" / "config.txt").read_text()


# case -> (input curve, config keys): an exact run, a grid run on a sampled
# input that leaves grid_n to the input, and a grid run on a step input
_RERUNS = {
    "exact_step": (lambda: scalar_curve([0.3, 0.6], [0.0, 1.0, 0.4]),
                   {"manifold": "euclidean:1", "t_max": 0.3}),
    "grid_sampled": (lambda: noisy_field("circle", grid_n=33, noise=0.05, seed=3),
                     {"manifold": "circle", "epsilon": 1e-2, "t_max": 1e-3}),
    "grid_step": (lambda: scalar_curve([0.3, 0.6], [0.0, 1.0, 0.4]),
                  {"manifold": "euclidean:1", "epsilon": 1e-2, "grid_n": 101, "t_max": 0.05}),
}


@pytest.mark.parametrize("case", sorted(_RERUNS))
def test_cli_flow_reruns_from_its_recorded_config(tmp_path, case):
    # the run directory's config.txt, given back to flow with the same input,
    # reproduces the trajectory and its sidecar bit for bit
    make_curve, keys = _RERUNS[case]
    write_curve(str(tmp_path / "u0.csv"), make_curve())
    _write_config(tmp_path / "run.cfg", **keys)
    for cfg, out in (("run.cfg", "run"), ("run/config.txt", "again")):
        assert main(["flow", "--config", str(tmp_path / cfg), "--input",
                     str(tmp_path / "u0.csv"), "--out", str(tmp_path / out)]) == 0
    for name in ("trajectory.csv", "diagnostics.csv"):
        assert (tmp_path / "run" / name).read_bytes() == (tmp_path / "again" / name).read_bytes()


def _reference_csv_rows(rows) -> list[str]:
    """Per-cell reference formatter: every cell printed as '%.17g' % float(x)."""
    return [",".join("%.17g" % float(x) for x in row) for row in rows]


def _reference_rows(curve) -> list[list]:
    """Plateau right end and value of each row, or a grid node's value alone."""
    if isinstance(curve, PiecewiseConstantCurve):
        return [[x] + list(v) for x, v in zip(list(curve.breakpoints) + [1.0], curve.values)]
    return [list(v) for v in curve.values]


@pytest.fixture(scope="module")
def written_runs():
    u0 = random_rad_curve(SPH, np.random.Generator(np.random.Philox([63, 0])))
    runs = {"exact": run_exact_pc(u0, t_max=4 * tv_measure(u0).total)}
    field = mollify(u0, 65)
    runs["semi_implicit"] = run_regularized(
        field, FlowConfig(manifold=SPH, epsilon=1e-2, grid_n=65, t_max=0.05))
    flow = run_scalar_tv(scalar_curve([0.25, 0.6], [0.0, 0.9, 0.2]), 2.0)
    runs["scalar"] = scalar_trajectory(flow, np.linspace(0.0, 2.0, 9))
    runs["geodesic"] = flow_on_geodesic(
        SPH, np.array([1.0, 0, 0]), np.array([0, 0.6, 0.8]),
        scalar_curve([0.3, 0.7], [0.0, 0.8, 0.3]), 2.0, np.linspace(0.0, 2.0, 5))
    # 3-cell trajectory rows: t and two coordinates
    field = noisy_field("euclidean:2", grid_n=65, seed=5)
    runs["semi_implicit_euclidean2"] = run_regularized(
        field, FlowConfig(manifold=field.manifold, epsilon=1e-2, t_max=0.05))
    u0 = random_rad_curve("cylinder", np.random.Generator(np.random.Philox([64, 0])))
    runs["exact_cylinder"] = run_exact_pc(u0, t_max=4 * tv_measure(u0).total)
    # cells whose shortest round-trip text is unusual: a negative zero, the
    # smallest subnormal, a power of ten past 2**53 and an inexact decimal
    odd = [-0.0, 5e-324, 0.1, 1e16]
    step = PiecewiseConstantCurve(Euclidean(2), [5e-324, 0.1], [[-0.0, 5e-324], [1e16, 0.1],
                                                                 [0.1, -0.0]])
    runs["odd_cells"] = FlowTrajectory(solver="exact_pc", times=np.array(odd),
                                       snapshots=[step] * 4, dissipation=np.array(odd),
                                       dt_nominal=0.1)
    return runs


_WRITTEN = ["exact", "semi_implicit", "scalar", "geodesic", "semi_implicit_euclidean2",
            "exact_cylinder", "odd_cells"]


@pytest.mark.parametrize("name", _WRITTEN)
def test_written_files_match_per_cell_reference(tmp_path, written_runs, name):
    traj = written_runs[name]
    tp, dp = tmp_path / "t.csv", tmp_path / "d.csv"
    write_trajectory(str(tp), str(dp), traj)
    rows = [[t] + row for t, snap in zip(traj.times, traj.snapshots)
            for row in _reference_rows(snap)]
    assert tp.read_text().splitlines()[2:] == _reference_csv_rows(rows)
    diag = [[traj.times[k], traj.dissipation[k]] for k in range(len(traj))]
    assert dp.read_text().splitlines()[1:] == ["t,dissipation"] + _reference_csv_rows(diag)
    for snap in (traj.snapshots[0], traj.final_curve):
        assert curve_to_text(snap).splitlines()[2:] == _reference_csv_rows(_reference_rows(snap))


@pytest.mark.parametrize("name", _WRITTEN)
def test_write_read_write_is_byte_identical(tmp_path, written_runs, name):
    # the values read back are the doubles written, and writing them again
    # gives the same bytes, for trajectories and for curves of either kind
    traj = written_runs[name]
    tp, dp = tmp_path / "t.csv", tmp_path / "d.csv"
    write_trajectory(str(tp), str(dp), traj)
    back = read_trajectory(str(tp), str(dp))
    assert (back.solver, back.dt_nominal, back.epsilon) == (
        traj.solver, traj.dt_nominal, traj.epsilon)
    assert np.array_equal(back.times, traj.times)
    assert np.array_equal(back.dissipation, traj.dissipation)
    for a, b in zip(back.snapshots, traj.snapshots, strict=True):
        assert type(a) is type(b) and np.array_equal(a.values, b.values)
        assert not isinstance(a, PiecewiseConstantCurve) or np.array_equal(
            a.breakpoints, b.breakpoints)
    write_trajectory(str(tmp_path / "t2.csv"), str(tmp_path / "d2.csv"), back)
    assert (tmp_path / "t2.csv").read_bytes() == tp.read_bytes()
    assert (tmp_path / "d2.csv").read_bytes() == dp.read_bytes()
    for snap in (traj.snapshots[0], traj.final_curve):
        text = curve_to_text(snap)
        assert curve_to_text(curve_from_text(text)) == text


# one metadata field of a written trajectory set to a value, or dropped (None)
_BAD_METADATA = {
    "grid_epsilon_none": ("grid", "epsilon", "none"),
    "grid_epsilon_inf": ("grid", "epsilon", "inf"),
    "grid_epsilon_zero": ("grid", "epsilon", "0"),
    "grid_no_epsilon": ("grid", "epsilon", None),
    "step_epsilon_number": ("step", "epsilon", "0.001"),
    "step_no_epsilon": ("step", "epsilon", None),
    "step_dt_nominal_inf": ("step", "dt_nominal", "inf"),
    "step_dt_nominal_nan": ("step", "dt_nominal", "nan"),
    "step_dt_nominal_negative": ("step", "dt_nominal", "-0.001"),
    "step_no_dt_nominal": ("step", "dt_nominal", None),
    "step_unknown_solver": ("step", "solver", "unknown"),
    "step_no_solver": ("step", "solver", None),
    "step_unknown_key": ("step", "seed", "3"),
}


@pytest.fixture(scope="module")
def verified_runs(tmp_path_factory):
    """Per run: its written trajectory text, its sidecar path and the check
    that reads the field under test.  The step run is corrupted, so that its
    energy check fails; unedited, both files read (no exit 2)."""
    d = tmp_path_factory.mktemp("verified")
    u0 = random_rad_curve(SPH, np.random.Generator(np.random.Philox([62, 0])))
    step = run_exact_pc(u0, t_max=4 * tv_measure(u0).total)
    snaps = list(step.snapshots)
    snaps[len(snaps) // 2] = snaps[0]  # resurrect old state
    step = dataclasses.replace(step, snapshots=snaps)
    field = noisy_field("sphere:3", grid_n=33, noise=0.05, seed=1)
    grid = run_regularized(field, FlowConfig(manifold=SPH, epsilon=1e-2, grid_n=33, t_max=0.01))
    out = {}
    for name, traj, check in (("step", step, "energy"), ("grid", grid, "sphere")):
        tp, dp = str(d / f"{name}.t"), str(d / f"{name}.d")
        write_trajectory(tp, dp, traj)
        assert main(["verify", "--input", tp, "--diagnostics", dp, "--checks", check]) != 2
        out[name] = ((d / f"{name}.t").read_text(), dp, check)
    return out


@pytest.mark.parametrize("case", sorted(_BAD_METADATA))
def test_cli_verify_refuses_bad_trajectory_metadata(tmp_path, capsys, verified_runs, case):
    run, key, value = _BAD_METADATA[case]
    text, diag, check = verified_runs[run]
    head, rows = text.split("\n", 1)
    fields = dict(tok.split("=", 1) for tok in head.split()[2:])
    fields.pop(key, None)
    if value is not None:
        fields[key] = value
    tp = tmp_path / "t.csv"
    tp.write_text(" ".join(["# trajectory", *(f"{k}={v}" for k, v in fields.items())])
                  + "\n" + rows)
    capsys.readouterr()
    assert main(["verify", "--input", str(tp), "--diagnostics", diag, "--checks", check]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err
