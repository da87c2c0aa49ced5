"""Location-scale model specifications and JSON model files.

A model declares named parameters with true values and optional box bounds,
plus three expressions: the mean ``m``, the scale ``s`` and the log-prior,
defining observations ``Z_t = m + s * eps_t`` with standard normal ``eps_t``.
The three expressions compile once into closures over many points, the
only evaluator: they give values, gradients and Hessians for the fit and
the checks, one point per design row, and at the one true point for the
check on load and the design observations.  The package ships
the study models as JSON files under ``obscheck/models``.
"""

from __future__ import annotations

import json
import math
from importlib import resources
from pathlib import Path

import numpy as np

from ._value import Value
from .expressions import Expr, Param, ParseError, collect_params, compile_expr, parse_expr

__all__ = ["ParamSpec", "ModelSpec", "ModelError", "load_model", "bundled_model_names"]


class ModelError(Exception):
    """A model file or specification is invalid."""


class ParamSpec(Value):
    lower = upper = None
    _fields = ("name", "true_value", "lower", "upper")

    def __init__(self, name: str, true_value: float, lower: float | None = lower,
                 upper: float | None = upper):
        self.__dict__.update(name=name, true_value=true_value, lower=lower, upper=upper)


class ModelSpec(Value):
    """A validated location-scale model.

    The mean, scale and log-prior expressions are compiled once, here, into
    closures over a (k, n) array of points (see
    :func:`~obscheck.expressions.compile_expr`), which
    :meth:`mean_scale_prior_grad` runs for every posterior evaluation and,
    on the one true point, for the design observations; the check at the
    true values here runs on that point too.  The three expressions, with
    their gradients, must be defined there, and the scale must be
    positive.  A parameter's name must be one that an expression can
    reference.  Equality, hashing and repr ignore the compiled closures.
    """

    _fields = ("name", "params", "mean_expr", "scale_expr", "log_prior_expr")

    def __init__(self, name: str, params: tuple[ParamSpec, ...], mean_expr: Expr,
                 scale_expr: Expr, log_prior_expr: Expr):
        self.__dict__.update(name=name, params=params, mean_expr=mean_expr,
                             scale_expr=scale_expr, log_prior_expr=log_prior_expr)
        names = [p.name for p in self.params]
        if not names:
            raise ModelError("a model must declare at least one parameter")
        for name in names:
            if not _is_name(name):
                raise ModelError(f"parameter name {name!r} cannot appear in an expression")
        if len(set(names)) != len(names):
            raise ModelError(f"duplicate parameter names in {names}")
        # every fit starts at the true values; outside the bounds it would
        # start on a bound face
        for p, (lower, upper) in zip(self.params, self.bounds()):
            if not math.isfinite(p.true_value):
                raise ModelError(f"true value of {p.name} must be finite, got {p.true_value}")
            if math.isnan(lower) or math.isnan(upper):
                raise ModelError(f"bounds of {p.name} must not be NaN")
            if not lower < upper:
                raise ModelError(f"lower bound of {p.name} must be below its upper bound, "
                                 f"got [{lower}, {upper}]")
            if not lower <= p.true_value <= upper:
                raise ModelError(f"true value of {p.name} ({p.true_value}) lies outside its "
                                 f"bounds [{lower}, {upper}]")
        declared = set(names)
        for label, expr in (
            ("mean", self.mean_expr),
            ("scale", self.scale_expr),
            ("log_prior", self.log_prior_expr),
        ):
            unknown = collect_params(expr) - declared
            if unknown:
                raise ModelError(f"{label} references undeclared parameters {sorted(unknown)}")
        # compiled closures for mean, scale, log-prior
        exprs = (mean_expr, scale_expr, log_prior_expr)
        self.__dict__["_compiled"] = tuple(compile_expr(e, names) for e in exprs)
        # every study starts at the true values: the design observations are
        # generated there and each fit starts there, so no fit could start
        # where a value or a gradient is undefined
        point = self.true_vector().reshape(1, -1)
        for label, closure in zip(("mean", "scale", "log_prior"), self._compiled):
            (value,), _, _, (feasible,), why = closure(point)
            if not feasible:
                raise ModelError(f"{label} is not evaluable at the true values: {why(0)}")
            value = value.item()
            if label == "scale" and not value > 0.0:
                raise ModelError(
                    f"scale must be strictly positive at the true values, got {value}"
                )
            if not math.isfinite(value):
                raise ModelError(f"{label} is not finite at the true values: {value}")

    @property
    def param_names(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.params)

    def true_values(self) -> dict[str, float]:
        return {p.name: p.true_value for p in self.params}

    def true_vector(self) -> np.ndarray:
        return np.array([p.true_value for p in self.params], dtype=float)

    def bounds(self) -> list[tuple[float, float]]:
        return [
            (p.lower if p.lower is not None else -np.inf,
             p.upper if p.upper is not None else np.inf)
            for p in self.params
        ]

    def mean_scale_prior_grad(self, points: np.ndarray):
        """The compiled closures' (values, gradients, Hessians, feasible, why)
        for mean, scale and log-prior at each row of the (k, n) array
        ``points``, laid out like :attr:`param_names`: shapes (k,), (k, n)
        and (k, n, n), a mask (k,) of the rows where the expression and its
        gradient are defined and the function that names why row i is not."""
        return tuple([f(points) for f in self._compiled])

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "parameters": [
                {"name": p.name, "true_value": p.true_value,
                 **({"lower": p.lower} if p.lower is not None else {}),
                 **({"upper": p.upper} if p.upper is not None else {})}
                for p in self.params
            ],
            "mean": str(self.mean_expr),
            "scale": str(self.scale_expr),
            "log_prior": str(self.log_prior_expr),
        }


def _is_name(name) -> bool:
    """Whether the expression parser reads ``name`` as one parameter name."""
    try:
        return isinstance(name, str) and parse_expr(name) == Param(name)
    except ParseError:
        return False


def _param(entry) -> ParamSpec:
    """The parameter a model file's ``parameters`` entry declares."""
    if not isinstance(entry, dict) or "name" not in entry or "true_value" not in entry:
        raise ModelError(f"each parameter must be an object with a name and a true_value, "
                         f"got {entry!r}")
    for field in ("true_value", "lower", "upper"):
        if isinstance(entry.get(field), bool):  # float() would read it as 1.0 or 0.0
            raise ModelError(f"parameter {entry['name']!r}: {field} must be a number, not a bool")
    try:
        return ParamSpec(
            name=str(entry["name"]),
            true_value=float(entry["true_value"]),
            lower=float(entry["lower"]) if entry.get("lower") is not None else None,
            upper=float(entry["upper"]) if entry.get("upper") is not None else None,
        )
    except (TypeError, ValueError, OverflowError) as exc:  # not a number, or one too large
        raise ModelError(f"parameter {entry['name']!r}: {exc}") from exc


def model_from_dict(data: dict, name: str = "") -> ModelSpec:
    if not isinstance(data, dict):
        raise ModelError(f"a model must be a JSON object, got {type(data).__name__}")
    try:
        raw_params = data["parameters"]
        mean_text = data["mean"]
        scale_text = data["scale"]
    except KeyError as exc:
        raise ModelError(f"model file missing field {exc}") from exc
    prior_text = data.get("log_prior", "0")
    if not isinstance(raw_params, list):
        raise ModelError(f"parameters must be a list, got {type(raw_params).__name__}")
    params = tuple(_param(p) for p in raw_params)

    def parse_field(label: str, text: str) -> Expr:
        if not isinstance(text, str):
            raise ModelError(f"{label} must be an expression string, got {type(text).__name__}")
        try:
            return parse_expr(text)
        except ParseError as exc:
            raise ModelError(f"cannot parse {label} expression: {exc}") from exc

    return ModelSpec(
        name=name or data.get("name", ""),
        params=params,
        mean_expr=parse_field("mean", mean_text),
        scale_expr=parse_field("scale", scale_text),
        log_prior_expr=parse_field("log_prior", prior_text),
    )


def load_model(source: str | Path) -> ModelSpec:
    """Load a bundled model by its name or a model from a JSON file path.

    A source with no directory part that names a file of the packaged
    ``models/`` directory, with ``.json`` added if it lacks one, is that
    bundled model, whatever the working directory holds.  Any other source
    is a path, and raises :class:`ModelError` when it names no file, so a
    working-directory file named like a bundled model needs a directory
    part, as in ``./unknown_variance.json``.
    """
    path = Path(source)
    if path.name == str(source):
        pkg_name = path.name if path.name.endswith(".json") else path.name + ".json"
        res = resources.files("obscheck").joinpath("models", pkg_name)
        if res.is_file():
            path = res
    if not path.is_file():
        raise ModelError(f"model file not found: {source}")
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ModelError(f"invalid JSON in model file {source}: {exc}") from exc
    if not isinstance(data, dict):
        raise ModelError(f"model file {source} must hold a JSON object, got {type(data).__name__}")
    return model_from_dict(data, name=data.get("name", Path(path.name).stem))


def bundled_model_names() -> list[str]:
    """Names of the model files shipped with the package."""
    folder = resources.files("obscheck").joinpath("models")
    return sorted(p.name[: -len(".json")] for p in folder.iterdir() if p.name.endswith(".json"))
