"""Unit helpers shared across memory, network, and configuration models.

All sizes inside the simulator are plain integers in bytes and all rates
are floats in bytes per second; these helpers exist so configuration code
reads like the paper ("4 GiB", "256 GB/s") instead of raw exponents.

Decimal units (KB, MB, GB, TB) follow SI (powers of 1000) and are used for
bandwidths, matching how memory vendors and the paper quote them
(e.g. HBM2 at 256 GB/s).  Binary units (KiB, MiB, GiB, TiB) are powers of
1024 and are used for capacities (e.g. a 64 KiB cache).
"""

from __future__ import annotations

from repro.errors import ConfigError

KB = 10**3
MB = 10**6
GB = 10**9
TB = 10**12

KiB = 2**10
MiB = 2**20
GiB = 2**30
TiB = 2**40


def bytes_to_human(num_bytes: float) -> str:
    """Render a byte count with the largest binary unit that keeps it >= 1.

    >>> bytes_to_human(1536)
    '1.50 KiB'
    >>> bytes_to_human(512)
    '512 B'
    """
    if num_bytes < 0:
        raise ValueError(f"byte count must be non-negative, got {num_bytes}")
    for unit, name in ((TiB, "TiB"), (GiB, "GiB"), (MiB, "MiB"), (KiB, "KiB")):
        if num_bytes >= unit:
            return f"{num_bytes / unit:.2f} {name}"
    return f"{num_bytes:.0f} B"


def rate_to_human(bytes_per_second: float) -> str:
    """Render a bandwidth with the largest decimal unit that keeps it >= 1.

    >>> rate_to_human(256e9)
    '256.00 GB/s'
    """
    if bytes_per_second < 0:
        raise ValueError(f"rate must be non-negative, got {bytes_per_second}")
    for unit, name in ((TB, "TB/s"), (GB, "GB/s"), (MB, "MB/s"), (KB, "KB/s")):
        if bytes_per_second >= unit:
            return f"{bytes_per_second / unit:.2f} {name}"
    return f"{bytes_per_second:.0f} B/s"


def seconds_to_human(seconds: float) -> str:
    """Render a duration with an appropriate SI prefix.

    >>> seconds_to_human(0.0025)
    '2.500 ms'
    """
    if seconds < 0:
        raise ValueError(f"duration must be non-negative, got {seconds}")
    for scale, name in ((1.0, "s"), (1e-3, "ms"), (1e-6, "us"), (1e-9, "ns")):
        if seconds >= scale:
            return f"{seconds / scale:.3f} {name}"
    return f"{seconds:.3g} s"


_SIZE_UNITS = {"kib": KiB, "mib": MiB, "gib": GiB, "b": 1}


def parse_size(text: str) -> int:
    """Parse '64KiB' / '1.5MiB' / '4096' into bytes.

    Raises :class:`ConfigError` naming the accepted form for anything
    else (``'12XB'``, an empty string).
    """
    lowered = text.strip().lower()
    try:
        for suffix, unit in _SIZE_UNITS.items():
            if lowered.endswith(suffix):
                return int(float(lowered[: -len(suffix)]) * unit)
        return int(lowered)
    except (ValueError, OverflowError):
        raise ConfigError(
            f"bad size {text!r}; expected a byte count with an optional "
            "B, KiB, MiB or GiB suffix, e.g. 4096 or 64KiB"
        ) from None
