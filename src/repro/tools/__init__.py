"""Terminal tooling (ASCII plotting, the S2 explorer) and shared helpers.

The plotting and S2 attributes are loaded lazily (PEP 562): the S2
shell imports the index structures, and eager imports here would cycle
when engine modules reach for :mod:`repro.tools.envparse` — the shared
environment-knob parser, which depends on nothing but the exception
hierarchy.
"""

from repro.tools.envparse import (
    parse_env_choice,
    parse_env_float,
    parse_env_int,
    parse_env_optional_int,
)

__all__ = [
    "sparkline",
    "line_chart",
    "burst_chart",
    "S2Shell",
    "build_workspace",
    "parse_env_choice",
    "parse_env_float",
    "parse_env_int",
    "parse_env_optional_int",
]

_PLOTTING = ("sparkline", "line_chart", "burst_chart")
_S2 = ("S2Shell", "build_workspace")


def __getattr__(name):
    if name in _PLOTTING:
        from repro.tools import plotting

        return getattr(plotting, name)
    if name in _S2:
        from repro.tools import s2

        return getattr(s2, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
