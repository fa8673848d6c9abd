"""Pseudospectral stability analysis for parametric flutter eigenproblems.

Compute minimum-singular-value fields and epsilon-pseudospectra over
(airspeed, frequency) windows, locate flutter points in the grid cells the
determinant's phase winds around (the argument principle), and trace modal
damping paths outward from them by pseudo-arclength continuation with a
multiparameter-eigenvalue corrector.
"""

from .errors import (ConvergenceError, DegenerateTangentError, FlutterSpecError,
                     NumericalError)
from .operator import (DampingParameterization, EigenPoint, ParametricOperator, Window,
                       evaluate, param_derivatives, residual_norm, sigma_min)
from .pseudospectrum import (BorderlineRegion, ComplexField, ContourSet, Grid2D, ScalarField,
                             compute_det_field, compute_sigma_field, epsilon_pseudospectrum,
                             extract_contours, find_borderline_regions)
from .flutter import (FlutterPoint, FlutterSearchSettings, find_flutter_points,
                      locate_candidates, polish_flutter_point)
from .continuation import (ContinuationSettings, DampingExtremum, EnvelopeCrossing, ModePath,
                           Tangent, corrector_newton, corrector_slp, damping_continuation,
                           extremum_damping, fd_tangent, flight_envelope, initial_tangent,
                           natural_continuation, predictor, solve_at_airspeed, trace_path)
from .models import (GalerkinWingSpec, ModeTrajectory, TrajectorySpec, TypicalSectionSpec,
                     build_galerkin_wing, build_normal_operator, build_trajectory_operator,
                     build_typical_section, reference_restabilization_spec, two_crossing_spec)

__version__ = "0.1.0"
