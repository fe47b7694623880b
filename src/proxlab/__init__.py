"""Workbench for inexact resolvent inclusions and perturbed proximal schemes."""

from .algorithms import (IterateTrace, MetricSchedule, PerturbationPolicy, RunSpec,
                         Schedule, StopRule, bregman_project, eckstein_step, ips_nu,
                         ips_step, pls_step, rs_step, run, ss_step)
from .legendre import (CoshSum, LegendreFn, PowerEuclidean, PowerP, QuadraticForm,
                       bregman_distance, diagnostics, euclidean, parse_legendre)
from .numerics import SpdMetric, as_vector, pairing
from .operators import (Affine, GradientOfConvex, MonotoneOp, NormalConeBox,
                        OperatorSum, Scaled, SubdiffAbs, enlargement_residual,
                        identity_op, parse_operator, zero_residual)
from .resolvent import (InclusionInstance, InclusionSolution, StronglyImplicitSpec,
                        holder_certify, ips_form, pls_form, protoresolvent,
                        radius_search, solve_inclusion, ss_form, verify_solution)

__version__ = "0.1.0"

__all__ = [
    "Affine", "CoshSum", "GradientOfConvex", "InclusionInstance", "InclusionSolution",
    "IterateTrace", "LegendreFn", "MetricSchedule", "MonotoneOp", "NormalConeBox",
    "OperatorSum", "PerturbationPolicy", "PowerEuclidean", "PowerP", "QuadraticForm",
    "RunSpec", "Scaled", "Schedule", "SpdMetric", "StopRule", "StronglyImplicitSpec",
    "SubdiffAbs", "as_vector", "bregman_distance", "bregman_project",
    "diagnostics", "eckstein_step", "enlargement_residual", "euclidean",
    "holder_certify", "identity_op", "ips_form", "ips_nu", "ips_step",
    "pairing", "parse_legendre",
    "parse_operator", "pls_form", "pls_step", "protoresolvent", "radius_search",
    "rs_step", "run", "solve_inclusion", "ss_form", "ss_step",
    "verify_solution", "zero_residual",
]
