"""Observability testing for Gaussian location-scale models.

Deterministic sample sets approximate the standard normal disturbances,
design observation vectors are pushed through the model at the true
parameters, the log-posterior is maximized numerically, and each candidate
maximum is validated (gradient, positive definite Hessian, eigenvalue
ratio, finite local variance) before estimator statistics are aggregated
into an observability verdict.
"""

from .expressions import DomainError, Expr, ExprError, ParseError, format_expr, parse_expr
from .models import ModelError, ModelSpec, ParamSpec, bundled_model_names, load_model
from .optimize import CheckReport, MaxResult, OptConfig
from .posterior import InfeasiblePointError, PosteriorContext
from .samples import (
    DiracMixture,
    InvalidMixtureError,
    LcdConfig,
    design_disturbance_matrix,
    lcd_distance,
    lcd_gradient,
    optimize_mixture,
    read_sample_csv,
    representative_disturbances,
    write_sample_csv,
)
from .study import (
    NOT_OBSERVABLE,
    OBSERVABLE,
    PartIIResult,
    PartIResult,
    RunRecord,
    StudyConfig,
    StudyReport,
    make_design_observations,
    plot_csv,
    render_report,
    report_from_json,
    report_to_json,
    run_study,
)

__version__ = "0.1.0"
