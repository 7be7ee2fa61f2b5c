"""Imputer registry: construct any of the seven methods by name."""

from __future__ import annotations

import inspect

from .deep_imputers import DaeImputer, GainImputer, IgainImputer, InaaImputer
from .imputers import Imputer, KnnImputer, MissForestImputer, SimpleImputer
from .tabular import Schema

__all__ = ["METHOD_NAMES", "make_imputer"]


# name -> the method's class, called as cls(schema, seed, **settings); cli's default order
_FACTORIES = {cls.name: cls for cls in [
    SimpleImputer, KnnImputer, MissForestImputer, DaeImputer, InaaImputer, GainImputer, IgainImputer
]}

METHOD_NAMES = tuple(_FACTORIES)


def make_imputer(name: str, schema: Schema, seed: int = 0, **overrides) -> Imputer:
    """Method `name` with its `overrides`; an unknown setting or a bad value is a
    ValueError naming the method, its class and the setting."""
    try:
        cls = _FACTORIES[name]
    except KeyError:
        raise ValueError(
            f"unknown imputation method {name!r}; known: {sorted(_FACTORIES)}"
        ) from None
    label = f"method {name!r} ({cls.__name__})"
    settable = [p for p in inspect.signature(cls).parameters if p not in ("schema", "seed")]
    unknown = sorted(set(overrides) - set(settable))
    if unknown:
        raise ValueError(
            f"{label} has no setting {', '.join(map(repr, unknown))}; "
            f"its settings: {', '.join(map(repr, settable)) or 'none'}"
        )
    try:
        return cls(schema, seed, **overrides)
    except ValueError as exc:  # a bad seed or setting, which exc names
        raise ValueError(f"{label}: {exc}") from None
