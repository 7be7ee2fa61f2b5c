"""Imputer registry: construct any of the seven methods by name."""

from __future__ import annotations

import inspect
from functools import partial

from .deep_imputers import DaeImputer, GainImputer
from .imputers import Imputer, KnnImputer, MissForestImputer, SimpleImputer
from .tabular import Schema

__all__ = ["METHOD_NAMES", "make_imputer"]


# name -> factory(schema, seed, **settings): the method's class, its variant fixed
_FACTORIES = {
    "simple": SimpleImputer,
    "knn": KnnImputer,
    "missforest": MissForestImputer,
    **{v: partial(DaeImputer, variant=v) for v in DaeImputer.variants},
    **{v: partial(GainImputer, variant=v) for v in GainImputer.variants},
}

METHOD_NAMES = tuple(_FACTORIES)


def make_imputer(name: str, schema: Schema, seed: int = 0, **overrides) -> Imputer:
    """Method `name` with its `overrides`; an unknown setting or a bad value is a
    ValueError naming the method, its class and the setting."""
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise ValueError(
            f"unknown imputation method {name!r}; known: {sorted(_FACTORIES)}"
        ) from None
    label = f"method {name!r} ({getattr(factory, 'func', factory).__name__})"
    fixed = ("schema", "seed", *getattr(factory, "keywords", ()))
    settable = [p for p in inspect.signature(factory).parameters if p not in fixed]
    unknown = sorted(set(overrides) - set(settable))
    if unknown:
        raise ValueError(
            f"{label} has no setting {', '.join(map(repr, unknown))}; "
            f"its settings: {', '.join(map(repr, settable)) or 'none'}"
        )
    try:
        return factory(schema, seed, **overrides)
    except ValueError as exc:  # a bad value
        raise ValueError(f"{label} rejects arguments {overrides}: {exc}") from None
