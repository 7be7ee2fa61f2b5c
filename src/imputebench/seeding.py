"""Deterministic seed derivation and random generators.

All randomness in the library flows through PCG64 generators whose seeds
are derived by hashing a master seed together with a path of string tags.
This makes every sub-experiment replayable bit-for-bit across platforms.
"""

import hashlib

import numpy as np


def _check_int(name: str, value, least: int | None = 1) -> int:
    """`value` if it is an int >= `least` (any int if `least` is None), else a
    ValueError naming `name`. A bool, though an int subclass, is refused, and
    so are a float such as 2.5, a string and a numpy integer.
    """
    if type(value) is not int or (least is not None and value < least):
        bound = "" if least is None else f">= {least} and "
        raise ValueError(f"{name} must be {bound}an int (not a bool), got {value!r}")
    return value


def derive_seed(master: int, *tags) -> int:
    """Derive a 64-bit child seed from a master seed and a tag path."""
    h = hashlib.sha256()
    h.update(str(_check_int("seed", master, None)).encode())
    for tag in tags:
        h.update(b"/")
        h.update(str(tag).encode())
    return int.from_bytes(h.digest()[:8], "little")


def make_rng(seed: int, tag, *tags) -> np.random.Generator:
    """PCG64 generator for the given seed, scoped by a tag path of at least one tag."""
    return np.random.Generator(np.random.PCG64(derive_seed(seed, tag, *tags)))
