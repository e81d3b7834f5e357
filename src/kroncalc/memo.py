"""The registry of kroncalc's process-wide memos.

Every memoized function in kroncalc is declared with ``@memo``, which
returns ``functools.cache(fn)`` unchanged, so a call costs what it did,
and records it in ``MEMOS`` under ``module.qualname``.  ``clear()``
empties every memo at once, so a caller that needs a cold run, or its
memory back, makes one call and cannot miss a table.
"""

from functools import cache

MEMOS: dict = {}  # "module.qualname" -> the functools.cache wrapper


def memo(fn):
    """``functools.cache(fn)``, recorded in ``MEMOS``."""
    MEMOS[f"{fn.__module__}.{fn.__qualname__}"] = cached = cache(fn)
    return cached


def clear() -> None:
    """Empty every memo in ``MEMOS``."""
    for cached in MEMOS.values():
        cached.cache_clear()
