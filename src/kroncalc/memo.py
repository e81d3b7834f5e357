"""The registry of kroncalc's process-wide memos.

Every memoized function in kroncalc is declared with ``@memo``, which
returns ``functools.cache(fn)`` unchanged, so a call costs what it did,
and records it in ``MEMOS`` under ``module.qualname``.  ``clear()``
empties every memo at once, so a caller that needs a cold run, or its
memory back, makes one call and cannot miss a table; ``clear(modules)``
empties only the memos declared in the named kroncalc modules.
"""

from functools import cache

MEMOS: dict = {}  # "module.qualname" -> the functools.cache wrapper


def memo(fn):
    """``functools.cache(fn)``, recorded in ``MEMOS``."""
    MEMOS[f"{fn.__module__}.{fn.__qualname__}"] = cached = cache(fn)
    return cached


def clear(modules=None) -> None:
    """Empty every memo in ``MEMOS``, or, given module names such as
    ``("tableau", "nearhook")``, only the memos those kroncalc modules declare.

    Emptying a memo also resets its ``cache_info()`` counts.
    """
    for cached in MEMOS.values():
        if modules is None or cached.__module__.rpartition(".")[2] in modules:
            cached.cache_clear()
