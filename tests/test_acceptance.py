"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are pinned here and must not be loosened.
"""

import dataclasses
import json

import numpy as np
import pytest

from flutterspec import (ContinuationSettings, DampingParameterization, Grid2D, Window,
                         build_galerkin_wing, build_normal_operator, compute_sigma_field,
                         corrector_newton, corrector_slp, damping_continuation,
                         extract_contours, extremum_damping, fd_tangent, find_borderline_regions,
                         find_flutter_points, flight_envelope, initial_tangent,
                         natural_continuation, param_derivatives, predictor, sigma_min,
                         solve_at_airspeed, trace_path)
from flutterspec.cli import main
from flutterspec.operator import EigenPoint

from conftest import distance_to_spectrum
from test_cli import write_config


def ok(n, text):
    print(f"\n[PASS] criterion {n}: {text}")


def scaled_gap(a, b, scale):
    return np.linalg.norm([(a.U - b.U) / scale[0], (a.chi_R - b.chi_R) / scale[1],
                           (a.chi_I - b.chi_I) / scale[1]])


def test_criterion_01_normal_pseudospectrum_exactness(normal_op):
    grid = Grid2D((0.0, 1.0, 50), (0.0, 8.0, 50))
    fld = compute_sigma_field(normal_op, grid)
    expected = np.array([[distance_to_spectrum(w) for w in grid.w_values()]
                         for _ in grid.u_values()])
    field_err = float(np.abs(fld.values - expected).max())
    assert field_err <= 1e-9

    fine = Grid2D((0.0, 1.0, 200), (0.0, 8.0, 200))
    contour = extract_contours(compute_sigma_field(normal_op, fine), 0.1)
    assert contour.polylines
    vertex_err = 0.0
    for pl in contour.polylines:
        for u, w in pl:
            sigma, _ = sigma_min(normal_op, complex(w, 0.0), u)
            vertex_err = max(vertex_err, abs(sigma - 0.1))
    assert vertex_err <= 0.005
    ok(1, f"sigma field err {field_err:.1e} <= 1e-9; "
          f"eps=0.1 vertex err {vertex_err:.1e} <= 5e-3")


def test_criterion_02_flutter_location(traj_op, traj_flutter, ts_flutter, ts_oracle):
    points = find_flutter_points(traj_op, Window(10.0, 400.0, 20.0, 200.0))
    assert len(points) == 1
    u_err = abs(points[0].point.U - 120.0) / 120.0
    assert u_err <= 1e-6
    assert points[0].point.residual <= 1e-10

    ts_u_err = abs(ts_flutter.point.U - ts_oracle[0]) / ts_oracle[0]
    ts_w_err = abs(ts_flutter.point.chi_R - ts_oracle[1]) / ts_oracle[1]
    assert ts_u_err <= 1e-6 and ts_w_err <= 1e-6
    ok(2, f"trajectory U_f rel err {u_err:.1e}; typical section vs Hopf oracle "
          f"rel err (U {ts_u_err:.1e}, chi_R {ts_w_err:.1e})")


def test_criterion_03_continuation_fidelity(traj_oracle, super_path, ts_op, ts_flutter):
    path_err = 0.0
    for p in super_path.points:
        path_err = max(path_err, abs(p.chi_R - traj_oracle.omega(p.U)),
                       abs(p.chi_I - traj_oracle.g(p.U)))
    assert path_err <= 1e-8

    settings = ContinuationSettings(ds=0.05, max_ds=0.05, max_steps=60)
    traced = trace_path(ts_op, ts_flutter, direction=+1, settings=settings)
    _, x = sigma_min(ts_op, complex(43.2, 0.0), 1.0)
    guess = EigenPoint.from_vector(ts_op, 43.2, 0.0, 1.0, x)
    seed = solve_at_airspeed(ts_op, 1.0, guess)
    oracle_path = natural_continuation(ts_op, 1.0, 60.0, 0.5, seed)
    oracle_us = np.array([p.U for p in oracle_path.points])
    matched, ts_err = 0, 0.0
    for p in traced.points:
        if not (1.0 <= p.U <= 60.0):
            continue
        j = int(np.argmin(np.abs(oracle_us - p.U)))
        o = solve_at_airspeed(ts_op, p.U, oracle_path.points[j])
        ts_err = max(ts_err, abs(o.chi_I - p.chi_I))
        matched += 1
    assert matched >= 10
    assert ts_err <= 1e-6
    ok(3, f"trajectory path err {path_err:.1e} <= 1e-8; typical-section trace vs "
          f"natural oracle |dchi_I| {ts_err:.1e} <= 1e-6 at {matched} matched airspeeds")


def test_criterion_04_turning_point_traversal(traj_op, traj_oracle, traj_point, super_path):
    from scipy.optimize import brentq
    u0 = brentq(lambda u: traj_oracle.g(u) + 0.3, 400.0, traj_oracle.hump_u)
    seed = traj_point(u0)
    d_values = np.arange(traj_oracle.g(u0), -0.04, 0.01)
    damped = damping_continuation(traj_op, d_values, DampingParameterization.CHI_I, seed)
    assert damped.termination_reason == "turning-point suspected"
    assert damped.points[-1].chi_I < traj_oracle.hump_g

    us = np.array([p.U for p in super_path.points])
    steps_past = int((us > traj_oracle.hump_u).sum())
    assert steps_past >= 50
    ok(4, f"damping continuation stopped at chi_I={damped.points[-1].chi_I:.4f} before "
          f"the extremum {traj_oracle.hump_g:.4f} with the suspected-turning-point reason; "
          f"pseudo-arclength passed it and accepted {steps_past} further steps")


def test_criterion_05_corrector_cross_validation(traj_op, traj_flutter, ts_op, ts_flutter):
    worst = {}
    for name, op, fp in (("trajectory", traj_op, traj_flutter),
                         ("typical_section", ts_op, ts_flutter)):
        base = ContinuationSettings(ds=0.05, max_ds=0.05, max_steps=20)
        slp = trace_path(op, fp, direction=-1, settings=base)
        newton = trace_path(op, fp, direction=-1,
                            settings=dataclasses.replace(base, corrector="newton"))
        assert len(slp.points) == len(newton.points) == 21
        worst[name] = max(scaled_gap(a, b, slp.scale)
                          for a, b in zip(slp.points, newton.points))
        assert worst[name] <= 1e-8

    eq2 = trace_path(traj_op, traj_flutter, direction=-1,
                     settings=ContinuationSettings(ds=0.05, max_ds=0.05, max_steps=20,
                                                   constraint_form="eq2"))
    eq3 = trace_path(traj_op, traj_flutter, direction=-1,
                     settings=ContinuationSettings(ds=0.05, max_ds=0.05, max_steps=20,
                                                   constraint_form="eq3"))
    form_gap = max(scaled_gap(a, b, eq2.scale) for a, b in zip(eq2.points, eq3.points))
    assert form_gap <= 1e-8
    ok(5, f"SLP vs Newton over 20 steps: {worst['trajectory']:.1e} (trajectory), "
          f"{worst['typical_section']:.1e} (typical section); eq2 vs eq3 {form_gap:.1e}")


def test_criterion_06_envelope(traj_op, traj_flutter, traj_oracle):
    settings = ContinuationSettings(ds=0.05, max_ds=0.05, max_steps=40)
    sub = trace_path(traj_op, traj_flutter, direction=+1, settings=settings)
    crossings = flight_envelope(sub, 0.05, op=traj_op)
    assert len(crossings) == 1
    u_star = traj_oracle.u_at_zeta(0.05, 10.0, 119.0)
    rel = abs(crossings[0].u_star - u_star) / u_star
    assert rel <= 1e-6

    seed = EigenPoint.from_vector(traj_op, traj_oracle.omega(100.0), traj_oracle.g(100.0),
                                  100.0, np.array([1.0, 0.0]))
    through = natural_continuation(traj_op, 100.0, 140.0, 1.7, seed)
    zero_crossings = flight_envelope(through, 0.0, op=traj_op)
    assert len(zero_crossings) == 1
    zero_err = abs(zero_crossings[0].u_star - 120.0)
    assert zero_err <= 1e-8
    ok(6, f"zeta=0.05 crossing rel err {rel:.1e} <= 1e-6; "
          f"zeta=0 recovers U_f within {zero_err:.1e} <= 1e-8")


def test_criterion_07_borderline_and_extremum(traj_op, traj_oracle, traj_flutter,
                                              super_path):
    threshold = 1.5 * abs(traj_oracle.hump_g)
    assert abs(traj_oracle.hump_g) < threshold < 2.0 * abs(traj_oracle.hump_g)
    grid = Grid2D((450.0, 700.0, 251), (26.0, 36.0, 501))
    fld = compute_sigma_field(traj_op, grid)
    regions = find_borderline_regions(fld, threshold, flutter_points=[traj_flutter])
    off = [r for r in regions if not r.near_flutter]
    assert len(off) == 1

    result = extremum_damping(super_path, op=traj_op)
    assert result.on_boundary is False
    zeta_err = abs(result.zeta - traj_oracle.zeta(traj_oracle.zeta_ext_u))
    assert zeta_err <= 1e-6
    ok(7, f"exactly one borderline region (near_flutter=false) at threshold "
          f"{threshold:.4f}; extremum zeta err {zeta_err:.1e} <= 1e-6")


def test_criterion_08_order_of_accuracy(traj_op, traj_flutter):
    scale = (max(abs(traj_flutter.point.U), 1.0), max(abs(traj_flutter.point.chi_R), 1.0))

    def mean_displacement(ds):
        settings = ContinuationSettings(ds=ds, max_ds=ds, scale=scale)
        tangent = initial_tangent(traj_op, traj_flutter, scale=scale).negated()
        base = traj_flutter.point
        disps = []
        for _ in range(10):
            guess = predictor(base, tangent, ds, scale)
            corrected, _ = corrector_slp(traj_op, guess, base, tangent, ds, settings)
            disps.append(np.linalg.norm([(corrected.U - guess[0]) / scale[0],
                                         (corrected.chi_R - guess[1]) / scale[1],
                                         (corrected.chi_I - guess[2]) / scale[1]]))
            tangent = fd_tangent(base, corrected, scale)
            base = corrected
        return float(np.mean(disps))

    ratio = mean_displacement(0.05) / mean_displacement(0.025)
    assert ratio >= 3.5
    ok(8, f"halving ds reduced mean predictor-to-corrected displacement "
          f"{ratio:.2f}x >= 3.5x over 10 steps")


def test_criterion_09_derivative_consistency(traj_op, ts_op, normal_op):
    rng = np.random.default_rng(42)
    worst = 0.0
    fixtures = [traj_op, ts_op, normal_op, build_galerkin_wing()]
    for op in fixtures:
        fd_op = dataclasses.replace(op, derivs=None)
        w = op.window
        for _ in range(20):
            u = rng.uniform(w.u_min + 0.05 * w.u_span, w.u_max - 0.05 * w.u_span)
            wr = rng.uniform(w.chi_r_min + 0.05 * w.chi_r_span,
                             w.chi_r_max - 0.05 * w.chi_r_span)
            wi = rng.uniform(-2.0, 2.0)
            analytic = param_derivatives(op, wr, wi, u)
            numeric = param_derivatives(fd_op, wr, wi, u)
            for a, n in zip(analytic, numeric):
                rel = np.linalg.norm(a - n) / max(np.linalg.norm(a), 1.0)
                worst = max(worst, rel)
                assert rel <= 1e-5
    ok(9, f"analytic vs central-difference derivatives on {len(fixtures)} fixtures, "
          f"20 random points each: worst relative Frobenius error {worst:.1e} <= 1e-5")


def test_criterion_10_cli_determinism_and_exit_codes(tmp_path, capsys):
    cfg = write_config(tmp_path, continuation={"ds": 0.05, "max_ds": 0.05, "max_steps": 30,
                                               "direction": -1})
    assert main(["trace", "--config", str(cfg)]) == 0
    first = (tmp_path / "out" / "path.csv").read_bytes()
    assert main(["trace", "--config", str(cfg)]) == 0
    assert (tmp_path / "out" / "path.csv").read_bytes() == first

    normal_model = {"kind": "normal", "eigenvalues": [[2.0, 0.03], [4.5, 0.0]],
                    "window": {"u_min": 0.0, "u_max": 1.0,
                               "chi_r_min": 0.0, "chi_r_max": 8.0}}
    cfg_empty = write_config(tmp_path, name="empty.json", model=normal_model,
                             window=normal_model["window"],
                             flutter={"grid_count": 16, "refine_iters": 1})
    assert main(["flutter", "--config", str(cfg_empty)]) == 3

    bad = tmp_path / "bad.json"
    bad.write_text("{", encoding="utf-8")
    assert main(["flutter", "--config", str(bad)]) == 1
    assert capsys.readouterr().err.strip()

    code = main(["envelope", str(tmp_path / "out" / "path.json"), "--zeta-max", "0.9",
                 "--output-dir", str(tmp_path / "env")])
    assert code == 3

    cfg_fail = write_config(tmp_path, name="fail.json", continuation={
        "ds": 0.5, "max_ds": 0.5, "min_ds": 0.4, "max_corrector_iters": 1})
    assert main(["trace", "--config", str(cfg_fail)]) == 2
    ok(10, "byte-identical trace reruns; exit codes 0/3/1/3/2 as contracted")
