"""CLI subcommands: file formats, exit codes, determinism."""

import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import flutterspec
from flutterspec import (EigenPoint, Grid2D, Window, compute_sigma_field, extract_contours,
                         find_flutter_points, models, natural_continuation, sigma_min,
                         solve_at_airspeed, trace_path)
from flutterspec.cli import RunConfig, build_model, main, read_path_file
from flutterspec.continuation import ContinuationSettings
from flutterspec.operator import evaluate

from conftest import NORMAL_EIGENVALUES, distance_to_spectrum

TRAJ_MODEL = {"kind": "trajectory", "preset": "restabilization"}
NORMAL_MODEL = {"kind": "normal",
                "eigenvalues": [[lam.real, lam.imag] for lam in NORMAL_EIGENVALUES],
                "window": {"u_min": 0.0, "u_max": 1.0, "chi_r_min": 0.0, "chi_r_max": 8.0}}

# The flags every config subcommand used to accept, with a value of the right type.
SHARED_FLAGS = {"--u-min": "10.0", "--u-max": "400.0", "--chi-r-min": "20.0",
                "--chi-r-max": "200.0", "--grid": "8", "--eps": "0.1", "--ds": "0.1",
                "--direction": "1", "--zeta-max": "0.0", "--output-dir": "alt"}
# Of those 40 pairs, the 20 a subcommand never read and no longer accepts.
REMOVED_FLAGS = ([("flutter", f) for f in ("--grid", "--eps", "--ds", "--direction", "--zeta-max")]
                 + [("pseudo", f) for f in ("--ds", "--direction", "--zeta-max")]
                 + [("trace", f) for f in ("--grid", "--eps", "--zeta-max")]
                 + [("damping-plot", f) for f in SHARED_FLAGS if f != "--output-dir"])


DIRECTION_ERROR = "direction must be -1 or 1"
EPS_ERROR = "eps_list must be strictly ascending and positive"
THRESHOLD_ERROR = "threshold must be positive and finite"


def fresh_python(code, cwd=None):
    """stdout of ``code`` run in a new interpreter that imports this checkout's flutterspec."""
    src = os.path.dirname(os.path.dirname(flutterspec.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=cwd, capture_output=True,
                         text=True, check=True, timeout=120)
    return out.stdout


def test_import_leaves_scipy_linalg_unloaded():
    # flutterspec uses no scipy at all; scipy is a test-only dependency
    code = "import sys, flutterspec.cli; print('scipy.linalg' in sys.modules)"
    assert fresh_python(code).strip() == "False"


def test_cli_commands_load_no_scipy(tmp_path):
    # pseudo labels borderline regions and trace runs the SLP corrector, both in numpy
    cfg = write_config(tmp_path, grid={"u_count": 21, "w_count": 21}, eps_list=[0.04, 0.08],
                       borderline={"threshold": 0.15},
                       continuation={"ds": 0.05, "max_steps": 5, "corrector": "slp"})
    code = ("import sys\n"
            "from flutterspec.cli import main\n"
            f"assert main(['pseudo', '--config', {str(cfg)!r}]) == 0\n"
            f"assert main(['trace', '--config', {str(cfg)!r}, '--direction', '-1']) == 0\n"
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    assert fresh_python(code, cwd=tmp_path).strip().splitlines()[-1] == "[]"


def write_config(tmp_path, name="config.json", **fields):
    doc = {
        "model": TRAJ_MODEL,
        "window": {"u_min": 10.0, "u_max": 400.0, "chi_r_min": 20.0, "chi_r_max": 200.0},
        "output": {"dir": str(tmp_path / "out")},
    }
    doc.update(fields)
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def read_csv(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0]
    rows = [[float(v) for v in line.split(",")] for line in lines[1:] if line]
    return header, rows


class TestFlutterCommand:
    def test_trajectory_point(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["flutter", "--config", str(cfg)]) == 0
        doc = json.loads((tmp_path / "out" / "flutter_points.json").read_text())
        assert len(doc["points"]) == 1
        assert doc["points"][0]["U"] == pytest.approx(120.0, rel=1e-6)
        assert doc["points"][0]["chi_I"] == 0.0

    def test_airspeed_independent_model_exits_empty(self, tmp_path):
        cfg = write_config(tmp_path, model=NORMAL_MODEL,
                           window={"u_min": 0.0, "u_max": 1.0,
                                   "chi_r_min": 0.0, "chi_r_max": 8.0},
                           flutter={"grid_count": 16, "refine_iters": 1})
        assert main(["flutter", "--config", str(cfg)]) == 3
        doc = json.loads((tmp_path / "out" / "flutter_points.json").read_text())
        assert doc["points"] == []

    def test_malformed_config_errors(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"model": nope', encoding="utf-8")
        assert main(["flutter", "--config", str(bad)]) == 1
        assert capsys.readouterr().err.strip()

    def test_missing_config_errors(self, tmp_path, capsys):
        assert main(["flutter", "--config", str(tmp_path / "absent.json")]) == 1
        assert capsys.readouterr().err.strip()

    def test_null_output_section_uses_default_dir(self):
        cfg = RunConfig.from_dict({"model": TRAJ_MODEL, "output": None}, {})
        assert cfg.output_dir == Path("out")


class TestConfig:
    def test_ds_and_direction_flags_override_the_config(self):
        doc = {"model": TRAJ_MODEL, "continuation": {"ds": 0.05, "max_ds": 0.5, "direction": 1}}
        cfg = RunConfig.from_dict(doc, {"ds": 0.2, "direction": -1})
        assert cfg.continuation == ContinuationSettings(ds=0.2, max_ds=0.5)
        assert cfg.direction == -1
        assert RunConfig.from_dict(doc, {}).direction == 1

    def test_top_level_direction_errors(self, tmp_path, capsys):
        cfg = write_config(tmp_path, direction=-1, continuation={"max_steps": 0})
        assert main(["trace", "--config", str(cfg)]) == 1
        assert "continuation.direction" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_model_file_path_is_relative_to_the_config(self, tmp_path, monkeypatch):
        (tmp_path / "cfg").mkdir()
        (tmp_path / "cfg" / "model.json").write_text(json.dumps(NORMAL_MODEL), encoding="utf-8")
        cfg = write_config(tmp_path, name="cfg/config.json", model="model.json", window={})
        monkeypatch.chdir(tmp_path)
        assert RunConfig.load(cfg, {}).model == NORMAL_MODEL

    @pytest.mark.parametrize("doc", [{}, {"model": 5}], ids=["missing", "number"])
    def test_model_must_be_an_object_or_a_path(self, doc):
        with pytest.raises(ValueError, match="model object or model file path"):
            RunConfig.from_dict(doc, {})

    @pytest.mark.parametrize("command, window, flags", [
        ("flutter", {"u_max": 5000.0}, []), ("pseudo", {"u_max": 5000.0}, []),
        ("trace", {"u_max": 5000.0}, ["--start-point", "120,54,0"]),
        ("damping-plot", {"u_max": 5000.0}, []), ("flutter", {}, ["--u-max", "1100.5"]),
        ("pseudo", {}, ["--chi-r-min", "-1"])],
        ids=["flutter", "pseudo", "trace_start_point", "damping_plot", "flutter_flag",
             "pseudo_flag"])
    def test_window_beyond_the_model_window_exits_1(self, tmp_path, capsys, command, window,
                                                     flags):
        # the restabilization preset's window ends at U = 1100 and chi_R = 1: the config is
        # refused when it is read, whichever subcommand runs, before any file is written
        window = {"u_min": 10.0, "u_max": 400.0, "chi_r_min": 20.0, "chi_r_max": 200.0, **window}
        cfg = write_config(tmp_path, window=window, natural={
            "u_start": 100.0, "u_end": 110.0, "du": 5.0, "seed_chi_r": 55.0})
        assert main([command, "--config", str(cfg)] + flags) == 1
        model_window = build_model(TRAJ_MODEL).window
        assert f"exceeds the operator window {model_window!r}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_window_flags_apply_over_the_model_window(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"model": {"kind": "typical_section"},
                                   "output": {"dir": str(tmp_path / "out")}}), encoding="utf-8")
        assert main(["flutter", "--config", str(cfg), "--u-max", "60"]) == 0
        doc = json.loads((tmp_path / "out" / "flutter_points.json").read_text())
        model_window = models.build_typical_section().window
        assert doc["window"] == {**dataclasses.asdict(model_window), "u_max": 60.0}

    @pytest.mark.parametrize("key", ["exclusion_u", "exclusion_chi_r"])
    def test_borderline_takes_only_threshold(self, tmp_path, capsys, key):
        cfg = write_config(tmp_path, borderline={"threshold": 0.15, key: 1.0})
        assert main(["pseudo", "--config", str(cfg)]) == 1
        assert key in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("doc, expected", [
        ({"kind": "trajectory", "preset": "two_crossing"},
         lambda: models.build_trajectory_operator(models.two_crossing_spec())),
        ({"kind": "trajectory", "mixing": [[1.0, 0.3], [-0.2, 1.0]],
          "modes": [{"omega_coeffs": [50.0, 0.01], "g_coeffs": [1.0, -0.01]},
                    {"omega_coeffs": [80.0], "g_coeffs": [2.0]}]},
         lambda: models.build_trajectory_operator(models.TrajectorySpec(
             modes=(models.ModeTrajectory((50.0, 0.01), (1.0, -0.01)),
                    models.ModeTrajectory((80.0,), (2.0,))),
             mixing=np.array([[1.0, 0.3], [-0.2, 1.0]])))),
        ({"kind": "galerkin_wing", "n_bending": 3, "n_torsion": 1, "span": 4.0},
         lambda: models.build_galerkin_wing(
             models.GalerkinWingSpec(n_bending=3, n_torsion=1, span=4.0))),
    ], ids=["two_crossing", "modes_with_mixing", "galerkin_wing"])
    def test_model_kinds_build_their_operator(self, doc, expected):
        op, ref = build_model(doc), expected()
        assert (op.name, op.dim, op.window) == (ref.name, ref.dim, ref.window)
        for chi, u in ((30.0 + 0.5j, 20.0), (55.0 - 1.0j, 110.0)):
            assert np.array_equal(evaluate(op, chi, u), evaluate(ref, chi, u))

    @pytest.mark.parametrize("model, message", [
        ({"kind": "spaceship"}, "unknown model kind 'spaceship'"),
        ({"kind": "trajectory", "preset": "three_crossing"},
         "unknown trajectory preset 'three_crossing'"),
    ], ids=["kind", "preset"])
    def test_unknown_kind_or_preset_exits_1(self, tmp_path, capsys, model, message):
        cfg = write_config(tmp_path, model=model)
        assert main(["flutter", "--config", str(cfg)]) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_infinite_wing_span_exits_1_naming_it_without_a_warning(self, tmp_path):
        # the spec refuses the field before the quadrature can warn about 0 * inf
        (tmp_path / "run.json").write_text(
            '{"model": {"kind": "galerkin_wing", "span": Infinity}}', encoding="utf-8")
        src = os.path.dirname(os.path.dirname(flutterspec.__file__))
        run = subprocess.run([sys.executable, "-m", "flutterspec.cli", "flutter",
                              "--config", "run.json"], cwd=tmp_path, capture_output=True,
                             text=True, timeout=120, env=dict(os.environ, PYTHONPATH=src))
        assert run.returncode == 1
        assert run.stderr == ("error: galerkin-wing parameter span must be positive and "
                              "finite, not inf\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command,fields,key", [
        ("trace", {"continuaton": {"max_steps": 3, "direction": -1}}, "continuaton"),
        ("damping-plot", {"natural": {"u_start": 100.0, "u_end": 110.0, "du": 5.0,
                                      "seed_chi_r": 55.0, "seed_chi_imag": 2.0}}, "seed_chi_imag"),
        ("flutter", {"output": {"format": "csv"}}, "format"),
        ("flutter", {"model": {**TRAJ_MODEL, "mixing": [[1.0, 0.3], [-0.2, 1.0]]}}, "mixing"),
        ("flutter", {"model": {**TRAJ_MODEL, "modes": [
            {"omega_coeffs": [50.0], "g_coeffs": [1.0]}]}}, "modes"),
        ("flutter", {"model": {"kind": "trajectory", "modes": [
            {"omega_coeffs": [50.0], "g_coeffs": [1.0], "phase": 0.0}]}}, "phase"),
        ("pseudo", {"model": {**NORMAL_MODEL, "shift": 1.0}, "window": {}}, "shift"),
        ("flutter", {"model": {**TRAJ_MODEL, "window": {
            "u_min": 10.0, "u_max": 400.0, "chi_r_min": 20.0, "chi_r_max": 200.0, "chi_i": 0.0}}},
         "chi_i"),
    ], ids=["top_level", "natural", "output", "preset_with_mixing", "preset_with_modes",
            "mode_key", "normal_model", "model_window"])
    def test_unknown_key_exits_1_before_writing(self, tmp_path, capsys, command, fields, key):
        # every section, the document and the model take only the keys they read
        cfg = write_config(tmp_path, grid={"u_count": 11, "w_count": 11}, **fields)
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--output-dir", str(out)]) == 1
        assert f"not [{key!r}]" in capsys.readouterr().err
        assert not out.exists()


class TestTraceCommand:
    def test_zero_steps_single_row(self, tmp_path):
        cfg = write_config(tmp_path, continuation={"max_steps": 0})
        assert main(["trace", "--config", str(cfg)]) == 0
        header, rows = read_csv(tmp_path / "out" / "path.csv")
        assert header == "s,U,chi_R,chi_I,zeta,residual"
        assert len(rows) == 1

    def test_supercritical_rows_match_closed_form(self, tmp_path, traj_oracle):
        cfg = write_config(tmp_path, continuation={
            "ds": 0.05, "max_ds": 0.05, "max_steps": 60, "direction": -1})
        assert main(["trace", "--config", str(cfg)]) == 0
        _, rows = read_csv(tmp_path / "out" / "path.csv")
        assert len(rows) == 61
        for s, u, chi_r, chi_i, zeta, residual in rows:
            assert abs(chi_r - traj_oracle.omega(u)) <= 1e-8
            assert abs(chi_i - traj_oracle.g(u)) <= 1e-8
            expected_zeta = chi_i / math.hypot(chi_r, chi_i)
            assert abs(zeta - expected_zeta) <= 1e-12
            assert residual <= 1e-10

    def test_trace_ends_at_the_model_window(self, tmp_path):
        # the config window bounds the flutter search only, not the traced path
        cfg = write_config(tmp_path, continuation={"ds": 0.05, "max_steps": 200})
        assert main(["trace", "--config", str(cfg), "--direction", "-1"]) == 0
        doc = json.loads((tmp_path / "out" / "path.json").read_text())
        last = doc["points"][-1]
        assert doc["termination_reason"] == "window-exit"
        assert max(p["U"] for p in doc["points"]) > 400.0      # the config's u_max
        assert not build_model(TRAJ_MODEL).window.contains(last["U"], last["chi_R"])

    def test_zeta_values_are_the_path_zetas(self, tmp_path):
        # one damping-ratio formula: path.csv and path.json carry ModePath.zetas() bit for bit
        cfg = write_config(tmp_path, continuation={
            "ds": 0.05, "max_ds": 0.05, "max_steps": 40, "direction": -1})
        assert main(["trace", "--config", str(cfg)]) == 0
        zetas = read_path_file(tmp_path / "out" / "path.json")[0].zetas().tolist()
        _, rows = read_csv(tmp_path / "out" / "path.csv")
        doc = json.loads((tmp_path / "out" / "path.json").read_text())
        assert len(zetas) == 41
        assert [row[4] for row in rows] == zetas
        assert [p["zeta"] for p in doc["points"]] == zetas

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path, continuation={"ds": 0.05, "max_steps": 25})
        assert main(["trace", "--config", str(cfg)]) == 0
        first_csv = (tmp_path / "out" / "path.csv").read_bytes()
        first_json = (tmp_path / "out" / "path.json").read_bytes()
        assert main(["trace", "--config", str(cfg)]) == 0
        assert (tmp_path / "out" / "path.csv").read_bytes() == first_csv
        assert (tmp_path / "out" / "path.json").read_bytes() == first_json

    def test_no_flutter_point_exits_empty(self, tmp_path, capsys):
        cfg = write_config(tmp_path, model=NORMAL_MODEL,
                           window={"u_min": 0.0, "u_max": 1.0,
                                   "chi_r_min": 0.0, "chi_r_max": 8.0},
                           flutter={"grid_count": 16, "refine_iters": 1})
        assert main(["trace", "--config", str(cfg)]) == 3
        assert "no flutter point to start from" in capsys.readouterr().err
        assert not (tmp_path / "out" / "path.csv").exists()

    def test_first_step_failure_exit_code(self, tmp_path):
        cfg = write_config(tmp_path, continuation={
            "ds": 0.5, "max_ds": 0.5, "min_ds": 0.4, "max_corrector_iters": 1})
        assert main(["trace", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("index", [-1, -5, 1])
    def test_start_index_out_of_range_errors(self, tmp_path, capsys, index):
        cfg = write_config(tmp_path, continuation={"max_steps": 0})
        assert main(["trace", "--config", str(cfg), "--start-index", str(index)]) == 1
        assert capsys.readouterr().err.startswith("error: start index")
        assert not (tmp_path / "out" / "path.csv").exists()

    @pytest.mark.parametrize("key", ["corrector_tol", "step_shrink", "step_grow"])
    def test_removed_continuation_keys_error(self, tmp_path, capsys, key):
        cfg = write_config(tmp_path, continuation={"max_steps": 0, key: 0.5})
        assert main(["trace", "--config", str(cfg)]) == 1
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("start", ["120,54", "120,54,0,1", "a,b,c", "120,nan,0"],
                             ids=["two_values", "four_values", "not_numbers", "nan"])
    def test_bad_start_point_errors(self, tmp_path, capsys, start):
        cfg = write_config(tmp_path, continuation={"max_steps": 0})
        assert main(["trace", "--config", str(cfg), "--start-point", start]) == 1
        assert capsys.readouterr().err == (
            f"error: --start-point must be three finite numbers 'U,chi_R,chi_I', not {start!r}\n")
        assert not (tmp_path / "out" / "path.csv").exists()

    def test_explicit_start_point(self, tmp_path, traj_oracle):
        u0 = 200.0
        start = f"{u0},{traj_oracle.omega(u0)},{traj_oracle.g(u0)}"
        cfg = write_config(tmp_path, continuation={"ds": 0.05, "max_steps": 5})
        assert main(["trace", "--config", str(cfg), "--start-point", start]) == 0
        doc = json.loads((tmp_path / "out" / "path.json").read_text())
        assert doc["origin"]["type"] == "point"
        assert doc["origin"]["U"] == pytest.approx(u0, abs=1e-9)


@pytest.mark.parametrize("command, files", [
    ("flutter", ("flutter_points.json",)),
    ("pseudo", ("sigma_field.csv", "contours.csv", "borderline.json")),
    ("damping-plot", ("damping_plot.csv", "damping_plot.json")),
    ("envelope", ("envelope.json",)),
])
def test_reruns_are_byte_identical(tmp_path, command, files):
    cfg = write_config(tmp_path, grid={"u_count": 41, "w_count": 41}, eps_list=[1.0, 4.0],
                       borderline={"threshold": 1.0}, natural={
                           "u_start": 100.0, "u_end": 140.0, "du": 1.7, "seed_chi_r": 55.0})
    argv = [command, "--config", str(cfg)]
    if command == "envelope":
        # the damping plot crosses zeta = -0.001 once, just past the flutter point at U = 120
        assert main(["damping-plot", "--config", str(cfg)]) == 0
        argv = [command, str(tmp_path / "out" / "damping_plot.json"), "--zeta-max", "-0.001",
                "--output-dir", str(tmp_path / "out")]
    assert main(argv) == 0
    first = {name: (tmp_path / "out" / name).read_bytes() for name in files}
    assert all(len(text.splitlines()) > 1 for text in first.values())
    assert main(argv) == 0
    assert {name: (tmp_path / "out" / name).read_bytes() for name in files} == first


def csv_text(header, rows):
    """The documented CSV text: the header, then each value by its shortest repr, LF endings."""
    return "".join(line + "\n" for line in [header] + [",".join(map(repr, r)) for r in rows])


def test_output_text_is_the_library_results_by_repr(tmp_path):
    # the text format pinned against the library's own results on the same inputs, not
    # against an earlier run of the CLI
    cfg = write_config(tmp_path, grid={"u_count": 21, "w_count": 17}, eps_list=[1.0, 4.0],
                       borderline={"threshold": 1.0},
                       continuation={"ds": 0.05, "max_steps": 25},
                       natural={"u_start": 100.0, "u_end": 140.0, "du": 1.7, "seed_chi_r": 55.0})
    for command in ("pseudo", "trace", "damping-plot"):
        assert main([command, "--config", str(cfg)]) == 0
    out = tmp_path / "out"

    op = models.build_trajectory_operator(models.reference_restabilization_spec())
    window = Window(10.0, 400.0, 20.0, 200.0)
    grid = Grid2D.over_window(window, 21, 17)
    fld = compute_sigma_field(op, grid)
    field_rows = [[float(u), float(w), float(fld.values[i, j])]
                  for i, u in enumerate(grid.u_values()) for j, w in enumerate(grid.w_values())]
    contour_rows = [[eps, pid, vid, float(u), float(w)] for eps in (1.0, 4.0)
                    for pid, pl in enumerate(extract_contours(fld, eps).polylines)
                    for vid, (u, w) in enumerate(pl)]
    assert contour_rows
    _, x = sigma_min(op, 55.0 + 0j, 100.0)
    seed = solve_at_airspeed(op, 100.0, EigenPoint.from_vector(op, 55.0, 0.0, 100.0, x))
    paths = {"path": trace_path(op, find_flutter_points(op, window)[0], 1,
                                ContinuationSettings(ds=0.05, max_steps=25)),
             "damping_plot": natural_continuation(op, 100.0, 140.0, 1.7, seed)}

    path_header = "s,U,chi_R,chi_I,zeta,residual"
    expected = {"sigma_field.csv": csv_text("U,chi_R,sigma_min", field_rows),
                "contours.csv": csv_text("eps,polyline_id,vertex_id,U,chi_R", contour_rows)}
    for stem, path in paths.items():
        rows = [[float(v) for v in (s, p.U, p.chi_R, p.chi_I, zeta, p.residual)]
                for s, p, zeta in zip(path.s, path.points, path.zetas())]
        assert len(rows) > 1
        expected[f"{stem}.csv"] = csv_text(path_header, rows)
        # a path JSON's points lead with the CSV's columns, in its order and with its values
        doc = json.loads((out / f"{stem}.json").read_text(encoding="utf-8"))
        assert [list(point)[:6] for point in doc["points"]] == [path_header.split(",")] * len(rows)
        assert [list(point.values())[:6] for point in doc["points"]] == rows
    for name, text in expected.items():
        assert (out / name).read_bytes() == text.encode("utf-8"), name

    for name in ("borderline.json", "path.json", "damping_plot.json"):
        text = (out / name).read_bytes().decode("utf-8")
        assert text == json.dumps(json.loads(text), indent=2) + "\n", name


class TestEnvelopeCommand:
    def _subcritical_path(self, tmp_path):
        cfg = write_config(tmp_path, continuation={
            "ds": 0.05, "max_ds": 0.05, "max_steps": 40, "direction": 1})
        assert main(["trace", "--config", str(cfg)]) == 0
        return tmp_path / "out" / "path.json"

    def test_level_outside_range_exits_empty(self, tmp_path):
        path_file = self._subcritical_path(tmp_path)
        code = main(["envelope", str(path_file), "--zeta-max", "0.9",
                     "--output-dir", str(tmp_path / "env")])
        assert code == 3
        doc = json.loads((tmp_path / "env" / "envelope.json").read_text())
        assert doc["crossings"] == []

    @pytest.mark.parametrize("level", ["nan", "inf", "1", "-1.5"])
    def test_level_outside_the_zeta_domain_exits_1(self, tmp_path, capsys, level):
        path_file = self._subcritical_path(tmp_path)
        code = main(["envelope", str(path_file), "--zeta-max", level,
                     "--output-dir", str(tmp_path / "env")])
        assert code == 1
        assert "zeta" in capsys.readouterr().err
        assert not (tmp_path / "env").exists()

    def test_level_crossing_matches_closed_form(self, tmp_path, traj_oracle):
        path_file = self._subcritical_path(tmp_path)
        code = main(["envelope", str(path_file), "--zeta-max", "0.05",
                     "--output-dir", str(tmp_path / "env")])
        assert code == 0
        doc = json.loads((tmp_path / "env" / "envelope.json").read_text())
        assert doc["refined"] is True
        u_star = traj_oracle.u_at_zeta(0.05, 10.0, 119.0)
        assert len(doc["crossings"]) == 1
        assert doc["crossings"][0]["U_star"] == pytest.approx(u_star, rel=1e-6)
        assert doc["crossings"][0]["zeta_check"] == pytest.approx(0.05, abs=1e-8)

    def test_zero_level_on_through_flutter_path(self, tmp_path):
        cfg = write_config(tmp_path, natural={
            "u_start": 100.0, "u_end": 140.0, "du": 1.7, "seed_chi_r": 55.0})
        assert main(["damping-plot", "--config", str(cfg)]) == 0
        code = main(["envelope", str(tmp_path / "out" / "damping_plot.json"),
                     "--zeta-max", "0.0", "--output-dir", str(tmp_path / "env")])
        assert code == 0
        doc = json.loads((tmp_path / "env" / "envelope.json").read_text())
        assert len(doc["crossings"]) == 1
        assert doc["crossings"][0]["U_star"] == pytest.approx(120.0, abs=1e-8)

    @pytest.mark.parametrize("direction", [True, 1.0, 0, 2, "1"])
    def test_path_direction_other_than_the_int_1_or_minus_1_exits_1(self, tmp_path, capsys,
                                                                      direction):
        path_file = self._subcritical_path(tmp_path)
        doc = json.loads(path_file.read_text(encoding="utf-8"))
        doc["direction"] = direction
        path_file.write_text(json.dumps(doc), encoding="utf-8")
        code = main(["envelope", str(path_file), "--zeta-max", "0.05",
                     "--output-dir", str(tmp_path / "env")])
        assert code == 1
        assert "direction" in capsys.readouterr().err
        assert not (tmp_path / "env" / "envelope.json").exists()

    def test_unparseable_path_file_errors(self, tmp_path, capsys):
        bad = tmp_path / "junk.csv"
        bad.write_text("not,a,path\n", encoding="utf-8")
        assert main(["envelope", str(bad), "--zeta-max", "0.0",
                     "--output-dir", str(tmp_path / "env")]) == 1
        assert capsys.readouterr().err.strip()

    def test_csv_reingestion_is_lossless(self, tmp_path):
        path_file = self._subcritical_path(tmp_path)
        csv_file = path_file.with_suffix(".csv")
        header, rows = read_csv(csv_file)
        rebuilt, model_doc = read_path_file(csv_file)
        assert model_doc is None
        assert read_path_file(path_file)[1] == TRAJ_MODEL
        for row, s, p in zip(rows, rebuilt.s, rebuilt.points):
            assert row[0] == s and row[1] == p.U
            assert row[2] == p.chi_R and row[3] == p.chi_I and row[5] == p.residual
        # interpolation-only envelope from the bare CSV still works
        code = main(["envelope", str(csv_file), "--zeta-max", "0.05",
                     "--output-dir", str(tmp_path / "env2")])
        assert code == 0
        doc = json.loads((tmp_path / "env2" / "envelope.json").read_text())
        assert doc["refined"] is False

    def test_blank_lines_in_a_path_csv_are_skipped(self, tmp_path):
        csv_file = self._subcritical_path(tmp_path).with_suffix(".csv")
        lines = csv_file.read_text(encoding="utf-8").splitlines(keepends=True)
        gapped = tmp_path / "gapped.csv"
        gapped.write_text("".join(lines[:3] + ["\n"] + lines[3:] + [" \n"]), encoding="utf-8")
        for source, name in ((csv_file, "plain"), (gapped, "gapped")):
            assert main(["envelope", str(source), "--zeta-max", "0.05",
                         "--output-dir", str(tmp_path / name)]) == 0
        assert ((tmp_path / "gapped" / "envelope.json").read_bytes()
                == (tmp_path / "plain" / "envelope.json").read_bytes())


class TestDampingPlotCommand:
    def test_trajectory_matches_closed_form(self, tmp_path, traj_oracle):
        cfg = write_config(tmp_path, natural={
            "u_start": 0.0, "u_end": 700.0, "du": 5.0,
            "seed_chi_r": 60.0, "seed_chi_i": traj_oracle.g(0.0)})
        assert main(["damping-plot", "--config", str(cfg)]) == 0
        _, rows = read_csv(tmp_path / "out" / "damping_plot.csv")
        assert len(rows) == 141
        for _, u, _, chi_i, _, _ in rows:
            assert abs(chi_i - traj_oracle.g(u)) <= 1e-8

    def test_step_larger_than_range_gives_endpoints(self, tmp_path, traj_oracle):
        cfg = write_config(tmp_path, natural={
            "u_start": 100.0, "u_end": 110.0, "du": 50.0, "seed_chi_r": 55.0})
        assert main(["damping-plot", "--config", str(cfg)]) == 0
        _, rows = read_csv(tmp_path / "out" / "damping_plot.csv")
        assert [r[1] for r in rows] == [100.0, 110.0]

    def test_typical_section_crossing_brackets_oracle(self, tmp_path, ts_oracle):
        cfg = write_config(
            tmp_path, model={"kind": "typical_section"},
            window={"u_min": 0.5, "u_max": 80.0, "chi_r_min": 5.0, "chi_r_max": 75.0},
            natural={"u_start": 1.0, "u_end": 60.0, "du": 0.5, "seed_chi_r": 43.2})
        assert main(["damping-plot", "--config", str(cfg)]) == 0
        _, rows = read_csv(tmp_path / "out" / "damping_plot.csv")
        chi_i = np.array([r[3] for r in rows])
        us = np.array([r[1] for r in rows])
        k = np.nonzero((chi_i[:-1] > 0) & (chi_i[1:] <= 0))[0]
        assert k.size == 1
        assert us[k[0]] <= ts_oracle[0] <= us[k[0] + 1]


    @pytest.mark.parametrize("key", ["u_start", "u_end", "du", "seed_chi_r"])
    def test_missing_natural_key_exits_1(self, tmp_path, capsys, key):
        natural = {"u_start": 100.0, "u_end": 110.0, "du": 5.0, "seed_chi_r": 55.0}
        del natural[key]
        cfg = write_config(tmp_path, natural=natural)
        assert main(["damping-plot", "--config", str(cfg)]) == 1
        assert f"natural.{key}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_seed_solve_failure_exits_2(self, tmp_path, capsys):
        # from chi = 0 at U = 1 the typical section's bordered Newton stalls
        cfg = write_config(tmp_path, model={"kind": "typical_section"}, window={},
                           natural={"u_start": 1.0, "u_end": 2.0, "du": 1.0, "seed_chi_r": 0.0})
        assert main(["damping-plot", "--config", str(cfg)]) == 2
        assert "seed solve failed" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestPseudoCommand:
    def test_far_spectrum_empty_contours(self, tmp_path):
        model = {"kind": "normal", "eigenvalues": [0.0],
                 "window": {"u_min": -1.0, "u_max": 1.0, "chi_r_min": 1.0, "chi_r_max": 2.0}}
        cfg = write_config(tmp_path, model=model,
                           window={"u_min": -1.0, "u_max": 1.0,
                                   "chi_r_min": 1.0, "chi_r_max": 2.0},
                           grid={"u_count": 8, "w_count": 8}, eps_list=[0.5],
                           flutter={"grid_count": 8, "refine_iters": 1})
        assert main(["pseudo", "--config", str(cfg)]) == 0
        text = (tmp_path / "out" / "contours.csv").read_text(encoding="utf-8")
        assert text == "eps,polyline_id,vertex_id,U,chi_R\n"

    def test_normal_model_nested_contours(self, tmp_path):
        cfg = write_config(tmp_path, model=NORMAL_MODEL,
                           window={"u_min": 0.0, "u_max": 1.0,
                                   "chi_r_min": 0.0, "chi_r_max": 8.0},
                           grid={"u_count": 60, "w_count": 120}, eps_list=[0.1, 0.2],
                           flutter={"grid_count": 8, "refine_iters": 1})
        assert main(["pseudo", "--config", str(cfg)]) == 0
        header, rows = read_csv(tmp_path / "out" / "sigma_field.csv")
        assert header == "U,chi_R,sigma_min"
        assert len(rows) == 60 * 120
        for u, w, sigma in rows[:200]:
            assert sigma == pytest.approx(distance_to_spectrum(w), abs=1e-9)
        lines = (tmp_path / "out" / "contours.csv").read_text().splitlines()
        inner = [line.split(",") for line in lines[1:] if line.startswith("0.1,")]
        assert inner
        for parts in inner:
            assert distance_to_spectrum(float(parts[4])) <= 0.2

    def test_flag_overrides(self, tmp_path):
        cfg = write_config(tmp_path, model=NORMAL_MODEL,
                           window={"u_min": 0.0, "u_max": 1.0,
                                   "chi_r_min": 0.0, "chi_r_max": 8.0},
                           grid={"u_count": 8, "w_count": 8}, eps_list=[0.5],
                           flutter={"grid_count": 8, "refine_iters": 1})
        assert main(["pseudo", "--config", str(cfg), "--grid", "12",
                     "--eps", "0.1,0.2", "--chi-r-max", "7.0",
                     "--output-dir", str(tmp_path / "alt")]) == 0
        _, rows = read_csv(tmp_path / "alt" / "sigma_field.csv")
        assert len(rows) == 12 * 12
        assert max(r[1] for r in rows) == 7.0
        eps_seen = {line.split(",")[0] for line in
                    (tmp_path / "alt" / "contours.csv").read_text().splitlines()[1:]}
        assert eps_seen == {"0.1", "0.2"}

    def test_hump_borderline_region(self, tmp_path, traj_oracle):
        threshold = 1.5 * abs(traj_oracle.hump_g)
        cfg = write_config(tmp_path,
                           window={"u_min": 450.0, "u_max": 700.0,
                                   "chi_r_min": 26.0, "chi_r_max": 36.0},
                           grid={"u_count": 251, "w_count": 501},
                           eps_list=[0.05, 0.1], borderline={"threshold": threshold})
        assert main(["pseudo", "--config", str(cfg)]) == 0
        doc = json.loads((tmp_path / "out" / "borderline.json").read_text())
        off = [r for r in doc["regions"] if not r["near_flutter"]]
        assert len(off) == 1
        assert off[0]["center_U"] == pytest.approx(traj_oracle.hump_u, abs=1.0)
        assert off[0]["min_sigma"] == pytest.approx(abs(traj_oracle.hump_g), abs=1e-3)


    def test_failed_flutter_search_still_writes_results(self, tmp_path, capsys):
        # one polish iteration is too few for the flutter point at U = 120
        cfg = write_config(tmp_path, grid={"u_count": 11, "w_count": 11},
                           flutter={"max_iters": 1})
        assert main(["pseudo", "--config", str(cfg)]) == 0
        err = capsys.readouterr().err
        assert "flutter search for near_flutter flags failed" in err
        doc = json.loads((tmp_path / "out" / "borderline.json").read_text())
        assert doc["flutter_points"] == []
        assert not any(r["near_flutter"] for r in doc["regions"])
        for name in ("sigma_field.csv", "contours.csv"):
            assert (tmp_path / "out" / name).exists()


class TestUsageErrors:
    def test_missing_config_exits_1(self):
        src = os.path.dirname(os.path.dirname(flutterspec.__file__))
        proc = subprocess.run([sys.executable, "-m", "flutterspec.cli", "trace"],
                              env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 1
        assert "--config" in proc.stderr

    def test_bad_direction_exits_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["trace", "--config", str(cfg), "--direction", "0"]) == 1
        assert "--direction" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command,fields,flags,message", [
        ("trace", {"continuation": {"max_steps": 2, "direction": 0}}, [], DIRECTION_ERROR),
        ("trace", {"continuation": {"max_steps": 2, "direction": 7}}, [], DIRECTION_ERROR),
        ("trace", {"continuation": {"max_steps": 2, "direction": 1.5}}, [], DIRECTION_ERROR),
        ("trace", {"continuation": {"max_steps": 2, "direction": True}}, [], DIRECTION_ERROR),
        ("trace", {"continuation": {"max_steps": 2, "direction": 1.0}}, [], DIRECTION_ERROR),
        ("pseudo", {"eps_list": [-0.1, 0.04], "borderline": {"threshold": 0.15}}, [], EPS_ERROR),
        ("pseudo", {"eps_list": [-0.1, 0.04]}, [], EPS_ERROR),
        ("pseudo", {"eps_list": [0.08, 0.04]}, [], EPS_ERROR),
        ("pseudo", {}, ["--eps", "0.08,0.04"], EPS_ERROR),
        ("pseudo", {}, ["--eps", "nan,0.04"], "eps_list levels must be finite"),
        ("pseudo", {"eps_list": []}, [], "eps_list must be nonempty"),
        ("pseudo", {"eps_list": [0.04]}, ["--eps", ""], "eps_list must be nonempty"),
        ("pseudo", {"borderline": {"threshold": 0.0}}, [], THRESHOLD_ERROR),
        ("pseudo", {"borderline": {"threshold": math.nan}}, [], THRESHOLD_ERROR),
        ("pseudo", {"flutter": {"grid_count": 4}}, [], "grid_count must be >= 8"),
        # the model has no flutter point, so a trace that searched first would exit 3
        ("trace", {"model": NORMAL_MODEL, "window": {},
                   "continuation": {"max_steps": 2, "bogus": 1.0}}, [], "bogus"),
        ("damping-plot", {"window": {"u_min": 400.0, "u_max": 10.0},
                          "natural": {"u_start": 100.0, "u_end": 110.0, "du": 5.0,
                                      "seed_chi_r": 55.0}}, [], "degenerate window"),
        ("flutter", {"flutter": {"refine_iters": 1.5}}, [], "refine_iters must be an integer"),
        ("flutter", {"flutter": {"tol": math.inf}}, [], "tol must be positive and finite"),
        ("trace", {"flutter": {"tol": 1e-8}}, [], "at most the trace gate"),
        ("flutter", {"natural": {"du": "abc"}}, [], "could not convert string to float"),
        ("flutter", {"natural": {"u_end": math.inf}}, [], "natural values must be finite"),
        ("pseudo", {"grid": {"u_count": 101.0}}, [], "u_axis count must be an integer"),
        ("trace", {"continuation": {"max_steps": 2, "max_ds": math.inf}}, [], "max_ds < inf"),
    ], ids=["direction_0", "direction_7", "direction_1.5", "direction_true", "direction_1.0",
            "negative_eps_with_threshold",
            "negative_eps", "descending_eps", "descending_eps_flag", "nan_eps_flag",
            "empty_eps", "empty_eps_flag",
            "zero_threshold", "nan_threshold", "flutter_grid_count", "continuation_key",
            "inverted_window", "flutter_refine_iters_float", "flutter_infinite_tol",
            "flutter_tol_above_the_trace_gate",
            "natural_not_a_number", "natural_infinite", "grid_float_count",
            "infinite_max_ds"])
    def test_bad_config_exits_1_before_writing(self, tmp_path, capsys, command, fields, flags,
                                               message):
        # the config is checked once, when it is read: no subcommand starts on a bad one
        cfg = write_config(tmp_path, **{"grid": {"u_count": 11, "w_count": 11}, **fields})
        assert main([command, "--config", str(cfg)] + flags) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("model, message", [
        ({"kind": "typical_section", "m": math.nan}, "parameter m must be positive and finite"),
        ({"kind": "typical_section", "k_h": math.inf}, "parameter k_h must be positive and finite"),
        ({"kind": "galerkin_wing", "EI": math.nan}, "parameter EI must be positive and finite"),
        ({"kind": "galerkin_wing", "span": math.inf}, "parameter span must be positive and finite"),
        ({"kind": "galerkin_wing", "cg_offset": math.nan}, "parameter cg_offset must be finite"),
        ({"kind": "normal", "eigenvalues": [1.0, [math.inf, 0.0]]}, "coefficients must be finite"),
        ({"kind": "galerkin_wing", "n_bending": True}, "n_bending must be an integer"),
        ({"kind": "galerkin_wing", "n_torsion": 2.0}, "n_torsion must be an integer"),
    ], ids=["section_m_nan", "section_k_h_inf", "wing_EI_nan", "wing_span_inf",
            "wing_cg_offset_nan", "normal_inf", "wing_bool_count", "wing_float_count"])
    def test_bad_model_parameter_exits_1_before_writing(self, tmp_path, capsys, model, message):
        # a NaN pencil searched as "0 flutter point(s)" (exit 3); a bool count built one mode.
        # A spec field is named before any assembly, so no quadrature warning comes first.
        cfg = write_config(tmp_path, model=model)
        assert main(["flutter", "--config", str(cfg)]) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command,flag", REMOVED_FLAGS, ids=lambda v: v.strip("-"))
    def test_removed_flag_exits_1(self, tmp_path, capsys, command, flag):
        cfg = write_config(tmp_path, continuation={"max_steps": 0}, natural={
            "u_start": 100.0, "u_end": 110.0, "du": 5.0, "seed_chi_r": 55.0})
        assert main([command, "--config", str(cfg), flag, SHARED_FLAGS[flag]]) == 1
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_flag_table():
    """{subcommand: set of flags} from the README's CLI flag table."""
    text = README.read_text(encoding="utf-8")
    rows = re.findall(r"^\| `([a-z-]+)` \| (.*) \|$", text, re.M)
    return {command: set(re.findall(r"`(--[a-z-]+)`", flags)) for command, flags in rows}


def test_readme_flag_table_matches_parsers(capsys):
    table = readme_flag_table()
    assert set(table) == {"flutter", "pseudo", "trace", "envelope", "damping-plot"}
    for command, flags in table.items():
        assert main([command, "--help"]) == 0
        options = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", capsys.readouterr().out))
        assert options - {"--help"} == flags, command


def test_readme_example_config_runs(tmp_path):
    """The README's example run.json is accepted as written, every key included."""
    text = README.read_text(encoding="utf-8")
    example = re.search(r"Example `run.json`:\s*```json\n(.*?)```", text, re.S).group(1)
    cfg = tmp_path / "run.json"
    cfg.write_text(example, encoding="utf-8")
    assert main(["flutter", "--config", str(cfg), "--output-dir", str(tmp_path / "out")]) == 0
    doc = json.loads((tmp_path / "out" / "flutter_points.json").read_text(encoding="utf-8"))
    assert [p["U"] for p in doc["points"]] == pytest.approx([120.0], rel=1e-6)


def test_readme_library_sketch_runs():
    """The README's library sketch runs as written and finds its commented U_f."""
    text = README.read_text(encoding="utf-8")
    sketch = re.search(r"## Library sketch\s*```python\n(.*?)```", text, re.S).group(1)
    expected = float(re.search(r"U_f ~ ([0-9.]+) m/s", sketch).group(1))
    scope = {}
    exec(compile(sketch, "README.md", "exec"), scope)
    assert scope["fp"].point.U == pytest.approx(expected, rel=1e-3)
    assert scope["path"].points and isinstance(scope["crossings"], list)
