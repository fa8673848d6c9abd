"""Regenerate bench/reference.json: flutter points by brute-force det scan.

    PYTHONPATH=src python3 bench/make_reference.py

For the typical section and the Galerkin wing at n = 4, 8 and 16 the
flutter points (chi_I = 0, det A = 0) are found without any of
flutterspec's field, contour or polish code: for each airspeed on a
uniform grid the roots of Re det A in chi_R are bracketed on a dense
chi_R grid and bisected, Im det A is followed along each root branch,
and its sign changes are bisected in U.  Only the matrices themselves
come from flutterspec (``op.func`` of the model builders).  Every hit is
kept only if sigma_min(A) / ||A||_2 <= 1e-12 there, computed with a plain
numpy SVD.  The trajectory presets need no scan: their flutter points
are the closed-form real roots of g_k(U).
"""

import json
import os
import sys
import time

import numpy as np
import scipy
from scipy.optimize import brentq

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from flutterspec import models  # noqa: E402

# (name, builder, scan resolution (n_u, n_w))
CASES = (
    ("typical_section", lambda: models.build_typical_section(), (160, 400)),
    ("wing_n4", lambda: models.build_galerkin_wing(models.GalerkinWingSpec()), (240, 1200)),
    ("wing_n8", lambda: models.build_galerkin_wing(
        models.GalerkinWingSpec(n_bending=4, n_torsion=4)), (240, 1200)),
    ("wing_n16", lambda: models.build_galerkin_wing(
        models.GalerkinWingSpec(n_bending=8, n_torsion=8)), (240, 1200)),
)
SIGMA_REL_TOL = 1e-12


def det_at(op, w, u):
    return complex(np.linalg.det(op.func(complex(w, 0.0), float(u))))


def re_det_roots(op, u, ws):
    vals = np.array([det_at(op, w, u).real for w in ws])
    roots = []
    for a, b, va, vb in zip(ws[:-1], ws[1:], vals[:-1], vals[1:]):
        if va == 0.0:
            roots.append(float(a))
        elif va * vb < 0.0:
            roots.append(brentq(lambda w: det_at(op, w, u).real, a, b,
                                xtol=1e-13, rtol=8.9e-16))
    return roots


def branch_at(op, u, w_near, h, max_expand=50):
    lo, hi = w_near - h, w_near + h
    for _ in range(max_expand):
        if det_at(op, lo, u).real * det_at(op, hi, u).real <= 0.0:
            break
        lo -= h
        hi += h
    else:
        raise RuntimeError("lost the Re(det) root branch")
    w = brentq(lambda w_: det_at(op, w_, u).real, lo, hi, xtol=1e-14, rtol=8.9e-16)
    return w, det_at(op, w, u).imag


def det_scan(op, n_u, n_w):
    """Simultaneous Re/Im det zeros over the operator window."""
    win = op.window
    ws = np.linspace(win.chi_r_min, win.chi_r_max, n_w)
    h = ws[1] - ws[0]
    hits, prev = [], None
    for u in np.linspace(win.u_min, win.u_max, n_u):
        cur = [(w, det_at(op, w, u).imag) for w in re_det_roots(op, u, ws)]
        if prev is not None and cur:
            u_prev, branches = prev
            for w0, im0 in branches:
                w1, im1 = min(cur, key=lambda t: abs(t[0] - w0))
                if abs(w1 - w0) > win.chi_r_span / 10.0 or im0 * im1 >= 0.0:
                    continue
                ua, ub, w, im_a = u_prev, u, w0, im0
                for _ in range(80):
                    um = 0.5 * (ua + ub)
                    w, im_m = branch_at(op, um, w, h)
                    if im_m == 0.0:
                        ua = ub = um
                        break
                    if im_a * im_m < 0.0:
                        ub = um
                    else:
                        ua, im_a = um, im_m
                    if ub - ua <= 1e-13 * max(1.0, abs(um)):
                        break
                um = 0.5 * (ua + ub)
                wm, _ = branch_at(op, um, w, h)
                hits.append((float(um), float(wm)))
        prev = (u, cur)
    return hits


def verified(op, hits):
    """Drop hits that are not singular points, then merge duplicates."""
    out = []
    for u, w in sorted(hits):
        s = np.linalg.svd(op.func(complex(w, 0.0), u), compute_uv=False)
        if s[-1] > SIGMA_REL_TOL * s[0]:
            continue
        if any(abs(u - q[0]) <= 1e-8 * max(1.0, u) and abs(w - q[1]) <= 1e-8 * max(1.0, w)
               for q in out):
            continue
        out.append((u, w, float(s[-1] / s[0])))
    return out


def main():
    doc = {
        "generated_by": "PYTHONPATH=src python3 bench/make_reference.py",
        "method": "dense det scan over the operator window: Re det roots in chi_R by "
                  "grid bracketing + brentq, Im det sign changes along each root branch "
                  "bisected in U; hits kept when sigma_min/sigma_max <= "
                  f"{SIGMA_REL_TOL:g} (numpy SVD)",
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "flutter_points": {},
    }
    for name, build, (n_u, n_w) in CASES:
        op = build()
        t0 = time.perf_counter()
        pts = verified(op, det_scan(op, n_u, n_w))
        print(f"{name}: {len(pts)} point(s) in {time.perf_counter() - t0:.1f} s", file=sys.stderr)
        doc["flutter_points"][name] = {
            "window": [op.window.u_min, op.window.u_max, op.window.chi_r_min, op.window.chi_r_max],
            "scan": [n_u, n_w],
            "points": [{"U": u, "chi_R": w, "sigma_ratio": r} for u, w, r in pts],
        }
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    main()
