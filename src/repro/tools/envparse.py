"""Shared parsing for the ``REPRO_*`` environment knobs.

Every tunable the engine reads from the environment —
``REPRO_VERIFY_BLOCK``, ``REPRO_SHARDS``, ``REPRO_SHARD_WORKERS``,
``REPRO_POOL_START_METHOD``, ``REPRO_CACHE_BYTES``,
``REPRO_APPROX_EPSILON``, ``REPRO_APPROX_PATIENCE`` — goes through the
helpers below, so a typo'd value fails the same way everywhere: a
:class:`~repro.exceptions.ReproError` (or a caller-chosen subclass)
whose message names the variable, quotes the offending value, and
states what would have been accepted.  Before this module each call
site either swallowed junk silently (masking misconfiguration) or let
a raw ``ValueError`` escape with no hint of *which* variable was bad.

Unset and empty/whitespace-only variables always mean "use the
default" — an empty string is how CI matrices and shell scripts spell
"knob absent".
"""

from __future__ import annotations

import os

from repro.exceptions import ReproError

__all__ = [
    "parse_env_choice",
    "parse_env_float",
    "parse_env_int",
    "parse_env_optional_int",
]


def _raw(name: str) -> str | None:
    """The stripped value of ``name``, or ``None`` when unset/blank."""
    raw = os.environ.get(name, "").strip()
    return raw or None


def _check_minimum(name, value, raw, minimum, error):
    if minimum is not None and value < minimum:
        raise error(
            f"{name} must be >= {minimum}, got {raw!r}"
        )
    return value


def parse_env_int(
    name: str,
    default: int,
    *,
    minimum: int | None = None,
    error: type[ReproError] = ReproError,
) -> int:
    """``int(os.environ[name])`` with a clear failure mode.

    Returns ``default`` when the variable is unset or blank.  Raises
    ``error`` (default :class:`~repro.exceptions.ReproError`) naming the
    variable when the value is not an integer or is below ``minimum``.
    """
    raw = _raw(name)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise error(
            f"{name} must be an integer, got {raw!r}"
        ) from None
    return _check_minimum(name, value, raw, minimum, error)


def parse_env_optional_int(
    name: str,
    *,
    minimum: int | None = None,
    error: type[ReproError] = ReproError,
) -> int | None:
    """Like :func:`parse_env_int` but unset/blank means ``None``.

    For knobs whose absence disables a feature rather than selecting a
    numeric default (``REPRO_APPROX_PATIENCE``: no value, no early
    stop).
    """
    raw = _raw(name)
    if raw is None:
        return None
    try:
        value = int(raw)
    except ValueError:
        raise error(
            f"{name} must be an integer, got {raw!r}"
        ) from None
    return _check_minimum(name, value, raw, minimum, error)


def parse_env_float(
    name: str,
    default: float,
    *,
    minimum: float | None = None,
    error: type[ReproError] = ReproError,
) -> float:
    """``float(os.environ[name])`` with a clear failure mode.

    Returns ``default`` when the variable is unset or blank; rejects
    non-finite values (``nan``/``inf`` are never a sane knob setting).
    """
    raw = _raw(name)
    if raw is None:
        return default
    try:
        value = float(raw)
    except ValueError:
        raise error(
            f"{name} must be a number, got {raw!r}"
        ) from None
    if value != value or value in (float("inf"), float("-inf")):
        raise error(
            f"{name} must be a finite number, got {raw!r}"
        )
    return _check_minimum(name, value, raw, minimum, error)


def parse_env_choice(name: str, default: str, choices) -> str:
    """One of ``choices`` from ``os.environ[name]``, else ``default``.

    Returns ``default`` when the variable is unset or blank.  Raises
    :class:`~repro.exceptions.ReproError` naming the variable and
    listing the accepted values when the value is not one of
    ``choices``.
    """
    raw = _raw(name)
    if raw is None:
        return default
    if raw not in choices:
        raise ReproError(
            f"{name} must be one of {', '.join(choices)}, got {raw!r}"
        )
    return raw
