"""Unit helpers: byte/second constants and human-readable formatting.

All sizes in the package are plain ``float``/``int`` bytes and all times are
``float`` seconds; these helpers exist so configuration code reads naturally
(``512 * MiB``) and reports render consistently.
"""

from __future__ import annotations

KiB = 1024
MiB = 1024 * KiB
GiB = 1024 * MiB
TiB = 1024 * GiB

MICROSECOND = 1e-6
MILLISECOND = 1e-3
SECOND = 1.0
MINUTE = 60.0
HOUR = 3600.0

_BINARY_SUFFIXES = [(TiB, "TiB"), (GiB, "GiB"), (MiB, "MiB"), (KiB, "KiB")]


def format_bytes(n: float) -> str:
    """Render a byte count with a binary suffix, e.g. ``format_bytes(3 * GiB)``.

    Negative values are rendered with a leading minus sign.
    """
    sign = "-" if n < 0 else ""
    n = abs(float(n))
    for factor, suffix in _BINARY_SUFFIXES:
        if n >= factor:
            return f"{sign}{n / factor:.2f} {suffix}"
    return f"{sign}{n:.0f} B"


def format_seconds(t: float) -> str:
    """Render a duration: microseconds up to hours, picking a sensible unit."""
    sign = "-" if t < 0 else ""
    t = abs(float(t))
    if t >= HOUR:
        return f"{sign}{t / HOUR:.2f} h"
    if t >= MINUTE:
        return f"{sign}{t / MINUTE:.2f} min"
    if t >= 1.0:
        return f"{sign}{t:.2f} s"
    if t >= MILLISECOND:
        return f"{sign}{t / MILLISECOND:.2f} ms"
    return f"{sign}{t / MICROSECOND:.2f} us"
