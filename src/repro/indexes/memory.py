"""Memory accounting helpers.

Figure 8 of the paper plots query runtime against the *memory overhead* of
each index — the directory structure kept on top of the raw records, as
:meth:`~repro.indexes.base.MultidimensionalIndex.directory_bytes` reports
it.  :func:`format_bytes` prints such counts for people.
"""

from __future__ import annotations

__all__ = ["format_bytes"]


def format_bytes(n_bytes: float) -> str:
    """Human-readable byte count (e.g. ``"1.2 MB"``)."""
    value = float(n_bytes)
    for unit in ("B", "KB", "MB", "GB", "TB"):
        if abs(value) < 1024.0 or unit == "TB":
            return f"{value:.1f} {unit}"
        value /= 1024.0
    return f"{value:.1f} TB"
