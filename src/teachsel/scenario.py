"""Scenario files: one JSON document that fully determines an experiment.

Layout::

    {
      "features": [{"name": "wbc", "a": 0.3, "h0": 0.8}, ...],
      "c": 0.0, "c_bar": 0.0, "k": 3, "delta": 0.9,
      "dynamic": {"type": "exponential", "params": {"w": 0.0}},
      "standardization": {"mu": [...], "sigma": [...]}      # optional
    }

Feature names are optional (defaulting to "1", "2", ...).  When a
standardization block is present, both coefficient vectors are rewritten to
standardized units on load, and all reported losses are in those units.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dynamics import Exponential, LearningDynamic, Tabulated
from .errors import InvalidInputError, ScenarioError
from .model import ProblemInstance, StandardizationSpec, standardize


@dataclass(frozen=True, eq=False)
class Scenario:
    """A loaded scenario file: its instance (in standardized units when the
    file standardizes), dynamic, feature names and standardization."""

    instance: ProblemInstance
    dynamic: LearningDynamic
    names: tuple[str, ...]
    standardization: StandardizationSpec | None = None


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _require(doc: dict, field: str, kind, where: str = "scenario"):
    if field not in doc:
        raise ScenarioError(f"{where}: missing required field '{field}'")
    value = doc[field]
    if kind is float:
        if not _is_number(value):
            raise ScenarioError(f"{where}: field '{field}' must be a number")
        return float(value)
    if kind is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ScenarioError(f"{where}: field '{field}' must be an integer")
        return value
    if not isinstance(value, kind):
        raise ScenarioError(f"{where}: field '{field}' must be of type {kind.__name__}")
    return value


def _parse_dynamic(doc: dict) -> LearningDynamic:
    kind = _require(doc, "type", str, "dynamic")
    params = doc.get("params", {})
    if not isinstance(params, dict):
        raise ScenarioError("dynamic: field 'params' must be an object")
    try:
        if kind == "exponential":
            return Exponential(w=_require(params, "w", float, "dynamic.params"))
        if kind == "tabulated":
            values = _require(params, "values", list, "dynamic.params")
            for idx, v in enumerate(values):
                if not _is_number(v):
                    raise ScenarioError(f"dynamic.params: values[{idx}] must be a number")
            tail_w = 0.0
            if "tail_w" in params:
                tail_w = _require(params, "tail_w", float, "dynamic.params")
            return Tabulated(values=tuple(float(v) for v in values), tail_w=tail_w)
    except InvalidInputError as exc:
        raise ScenarioError(f"dynamic: {exc}") from exc
    raise ScenarioError(
        f"dynamic: unknown type '{kind}' (expected 'exponential' or 'tabulated')"
    )


def _parse_features(features: list) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """Coefficient vectors and names, checked for all features at once.

    JSON values have exact types, so the set of types seen per field covers
    every feature; when a check fails, a second pass names the first bad one.
    """
    try:
        a = [f["a"] for f in features]
        h0 = [f["h0"] for f in features]
    except (KeyError, TypeError):  # a field is missing, or a feature is no object
        valid = False
    else:
        names = [f.get("name") for f in features]
        valid = (
            {int, float}.issuperset(map(type, a))
            and {int, float}.issuperset(map(type, h0))
            and {str, type(None)}.issuperset(map(type, names))
        )
    if not valid:
        for idx, feat in enumerate(features):
            where = f"features[{idx}]"
            if not isinstance(feat, dict):
                raise ScenarioError(f"{where}: each feature must be an object")
            _require(feat, "a", float, where)
            _require(feat, "h0", float, where)
            if not isinstance(feat.get("name"), (str, type(None))):
                raise ScenarioError(f"{where}: field 'name' must be a string")
    if None in names:
        names = [str(i + 1) if name is None else name for i, name in enumerate(names)]
    if len(set(names)) != len(names):
        raise ScenarioError("scenario: feature names must be unique")
    return np.array(a, dtype=float), np.array(h0, dtype=float), names


def load_scenario(path: str | Path, *, allow_zero_coeff: bool = False) -> Scenario:
    """Parse and validate a scenario file, applying standardization eagerly."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(doc, dict):
        raise ScenarioError(f"{path}: top-level document must be an object")

    features = _require(doc, "features", list)
    if not features:
        raise ScenarioError("scenario: 'features' must be a non-empty list")
    a, h0, names = _parse_features(features)

    c = _require(doc, "c", float)
    c_bar = _require(doc, "c_bar", float)
    k = _require(doc, "k", int)
    delta = _require(doc, "delta", float)
    dynamic = _parse_dynamic(_require(doc, "dynamic", dict))

    spec: StandardizationSpec | None = None
    if doc.get("standardization") is not None:
        block = _require(doc, "standardization", dict)
        try:
            spec = StandardizationSpec(
                mu=np.asarray(_require(block, "mu", list, "standardization"), float),
                sigma=np.asarray(
                    _require(block, "sigma", list, "standardization"), float
                ),
            )
        except InvalidInputError as exc:
            raise ScenarioError(f"standardization: {exc}") from exc
        if spec.mu.size != a.size:
            raise ScenarioError(
                "standardization: mu/sigma length must match the feature count"
            )
        # Both linear models live on the same raw features, so both
        # coefficient vectors transform the same way.
        a, c = standardize(a, c, spec)
        h0, c_bar = standardize(h0, c_bar, spec)

    try:
        instance = ProblemInstance(
            a=a,
            c=c,
            h0=h0,
            c_bar=c_bar,
            k=k,
            delta=delta,
            allow_zero_coeff=allow_zero_coeff,
        )
    except InvalidInputError as exc:
        raise ScenarioError(f"scenario: {exc}") from exc
    return Scenario(
        instance=instance, dynamic=dynamic, names=tuple(names), standardization=spec
    )
