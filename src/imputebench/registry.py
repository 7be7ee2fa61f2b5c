"""Imputer registry: construct any of the seven methods by name."""

from __future__ import annotations

from .deep_imputers import DaeImputer, GainImputer
from .imputers import Imputer, KnnImputer, MissForestImputer, SimpleImputer
from .tabular import Schema

__all__ = ["METHOD_NAMES", "make_imputer"]


def _variant(cls, name):
    """`cls` fixed to one variant; a `variant` override fails instead of replacing it."""
    return lambda schema, seed=0, **settings: cls(schema, seed, variant=name, **settings)


# name -> factory(schema, seed, **overrides)
_FACTORIES = {
    "simple": SimpleImputer,
    "knn": KnnImputer,
    "missforest": MissForestImputer,
    **{v: _variant(DaeImputer, v) for v in DaeImputer.variants},
    **{v: _variant(GainImputer, v) for v in GainImputer.variants},
}

METHOD_NAMES = tuple(_FACTORIES)


def make_imputer(name: str, schema: Schema, seed: int = 0, **overrides) -> Imputer:
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise ValueError(
            f"unknown imputation method {name!r}; known: {sorted(_FACTORIES)}"
        ) from None
    try:
        return factory(schema, seed, **overrides)
    except (TypeError, ValueError) as exc:  # a setting the method lacks; a bad value
        raise ValueError(f"method {name!r} rejects arguments {overrides}: {exc}") from None
