"""Imputer registry: construct any of the seven methods by name."""

from __future__ import annotations

from functools import partial

from .deep_imputers import DaeConfig, DaeImputer, GainConfig, GainImputer
from .imputers import Imputer, KnnImputer, MissForestImputer, SimpleImputer
from .tabular import Schema

__all__ = ["METHOD_NAMES", "make_imputer", "register_imputer"]

# name -> factory(schema, seed, **overrides)
_FACTORIES = {
    "simple": SimpleImputer,
    "knn": KnnImputer,
    "missforest": MissForestImputer,
    **{v: partial(DaeImputer, config=DaeConfig(variant=v)) for v in ("naa", "inaa")},
    **{v: partial(GainImputer, config=GainConfig(variant=v)) for v in ("gain", "igain")},
}

METHOD_NAMES = tuple(_FACTORIES)


def register_imputer(name: str, factory) -> None:
    """Add a custom imputer factory (used by tests and extensions)."""
    _FACTORIES[name] = factory


def make_imputer(name: str, schema: Schema, seed: int = 0, **overrides) -> Imputer:
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise ValueError(
            f"unknown imputation method {name!r}; known: {sorted(_FACTORIES)}"
        ) from None
    try:
        return factory(schema, seed, **overrides)
    except TypeError as exc:
        raise ValueError(f"method {name!r} rejects arguments {overrides}: {exc}") from None
