"""Validated reads of the numeric ``REPRO_*`` environment knobs.

A malformed value raises :class:`~repro.errors.ConfigError` naming the
variable, instead of a bare ``ValueError`` from ``int()`` deep inside a
sweep or a graph resolve.
"""

from __future__ import annotations

import os
from typing import Optional

from repro.errors import ConfigError


def env_int(name: str, minimum: Optional[int] = None) -> Optional[int]:
    """Read an integer env var, or ``None`` when unset/empty.

    Raises :class:`ConfigError` naming the variable and the offending
    value instead of leaking a bare ``ValueError`` from ``int()``.
    """
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return None
    try:
        value = int(raw)
    except ValueError:
        raise ConfigError(
            f"{name} must be an integer, got {raw!r}"
        ) from None
    if minimum is not None and value < minimum:
        raise ConfigError(f"{name} must be >= {minimum}, got {value}")
    return value


def env_float(name: str, minimum: Optional[float] = None) -> Optional[float]:
    """Read a float env var with the same validation as :func:`env_int`."""
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return None
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(
            f"{name} must be a number, got {raw!r}"
        ) from None
    if minimum is not None and value < minimum:
        raise ConfigError(f"{name} must be >= {minimum}, got {value}")
    return value
