"""Outside-in span tracer for kroncalc's layers.

The tracer wraps each layer's public functions from outside the program: a
wrapper is bound in place of the original in every kroncalc module namespace
that holds it, so calls made through ``from .symfun import ...`` names are
traced too.  A span opens when a call crosses into a layer from another
layer; calls within the layer are counted but add no span, so their time
stays with the enclosing span.  A layer's self time is the duration of its
spans minus the part covered by child spans of other layers.

``partition`` has no layer: its helpers are leaf calls everywhere, so their
time lands in the caller's self time.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter

# layer -> (module, public functions)
LAYERS = {
    "symfun.oracle": ("symfun", ("kronecker_coefficient", "kronecker_product", "character")),
    "symfun.algebra": (
        "symfun",
        ("schur_product", "giambelli_expand", "jacobi_trudi_to_schur", "coproduct", "hall_inner"),
    ),
    "symfun.cache_file.load": ("symfun", ("load_character_cache",)),
    "symfun.cache_file.save": ("symfun", ("save_character_cache",)),
    "tableau.lr": (
        "tableau",
        ("lr_coefficient", "schur_expand_product", "strip_chain_count", "lr_via_strip_difference"),
    ),
    "colored.hook_rule": ("colored", ("enumerate_blasiak", "blasiak_by_shape")),
    "rosas.closed_form": ("rosas", ("rosas_kronecker", "rosas_report", "xi_report", "xi")),
    "nearhook.expansion": ("nearhook", ("near_hook_expansion",)),
    "nearhook.triples": (
        "nearhook",
        (
            "triple1", "triple2", "triple3", "triple4", "g_two_row_near_hook",
            "index_set_plus", "index_set_minus", "j_plus", "j_minus",
        ),
    ),
    "nearhook.witness": (
        "nearhook",
        (
            "witnesses_singleton_case", "witnesses_null_case",
            "singleton_case_check", "null_case_check",
        ),
    ),
}


def _certificates(result) -> int:
    return len(result[1])


def _members(result) -> int:
    return len(result[1].members)


# (module, function) -> (counter name, size of the work the result represents)
COUNTERS = {
    ("symfun", "save_character_cache"): ("entries", int),
    ("colored", "enumerate_blasiak"): ("tableaux", len),
    ("colored", "blasiak_by_shape"): ("tableaux", lambda r: sum(len(t) for t in r.values())),
    ("nearhook", "near_hook_expansion"): ("certificates", lambda r: len(r[0])),
    ("nearhook", "triple3"): ("certificates", _certificates),
    ("nearhook", "triple4"): ("certificates", _certificates),
    ("nearhook", "witnesses_singleton_case"): ("members", _members),
    ("nearhook", "witnesses_null_case"): ("members", _members),
}


# the cache file's two functions are separate layers so that each gets its own time
RENAMED = {
    "symfun.cache_file.load.self_s": "symfun.cache_file.load_s",
    "symfun.cache_file.save.self_s": "symfun.cache_file.save_s",
    "symfun.cache_file.save.entries": "symfun.cache_file.entries",
}


class Tracer:
    """Spans and counters for one process; ``install`` binds, ``uninstall`` restores."""

    def __init__(self, clock=perf_counter):
        self.clock = clock
        self.stack = [[None, 0.0]]  # frames: [layer, time covered by child spans]
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.suites: dict[str, dict] = {}
        self._cached: dict[str, list] = defaultdict(list)  # layer -> [(fn, misses at start)]
        self._patches: list[tuple[dict, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _enter(self, layer: str) -> list:
        frame = [layer, self.clock()]
        self.stack.append([layer, 0.0])
        return frame

    def _exit(self, frame: list) -> float:
        elapsed = self.clock() - frame[1]
        _, covered = self.stack.pop()
        self.self_s[frame[0]] += elapsed - covered
        self.stack[-1][1] += elapsed
        return elapsed

    def _wrap(self, layer: str, fn, counter=None):
        stack, calls, counts = self.stack, self.calls, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[layer] += 1
            if stack[-1][0] == layer:
                result = fn(*args, **kwargs)
            else:
                frame = self._enter(layer)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._exit(frame)
            if counter is not None:
                counts[f"{layer}.{counter[0]}"] += counter[1](result)
            return result

        return wrapper

    def _wrap_suite(self, fn):
        @functools.wraps(fn)
        def run_suite(name, *args, **kwargs):
            frame = self._enter(f"verify.{name}")
            try:
                result = fn(name, *args, **kwargs)
            finally:
                elapsed = self._exit(frame)
            stats = self._suite(name)
            stats["wall_s"] += elapsed
            stats["checks"] += result[0]
            return result

        return run_suite

    def _wrap_unit(self, name: str, runner):
        @functools.wraps(runner)
        def run_unit(unit):
            start = self.clock()
            result = runner(unit)
            stats = self._suite(name)
            stats["units"] += 1
            stats["unit_max_s"] = max(stats["unit_max_s"], self.clock() - start)
            return result

        return run_unit

    def _wrap_cli(self, fn):
        @functools.wraps(fn)
        def main(argv=None):
            command = (sys.argv[1:] if argv is None else argv)[:1] or ["none"]
            frame = self._enter(f"cli.{command[0]}")
            try:
                return fn(argv)
            finally:
                self._exit(frame)

        return main

    def _suite(self, name: str) -> dict:
        return self.suites.setdefault(
            name, {"wall_s": 0.0, "checks": 0, "units": 0, "unit_max_s": 0.0}
        )

    # -- binding -------------------------------------------------------------

    def install(self) -> "Tracer":
        import kroncalc.cli
        import kroncalc.verify

        package = sys.modules["kroncalc"]
        wrappers = {}
        for layer, (module, names) in LAYERS.items():
            for name in names:
                original = getattr(sys.modules[f"kroncalc.{module}"], name, None)
                if original is None:  # removed by a later refactor: nothing to trace
                    continue
                if hasattr(original, "cache_info"):
                    self._cached[layer].append((original, original.cache_info().misses))
                wrappers[id(original)] = self._wrap(layer, original, COUNTERS.get((module, name)))
        wrappers[id(kroncalc.verify.run_suite)] = self._wrap_suite(kroncalc.verify.run_suite)
        wrappers[id(kroncalc.cli.main)] = self._wrap_cli(kroncalc.cli.main)
        modules = [package] + [
            m for key, m in sorted(sys.modules.items()) if key.startswith("kroncalc.")
        ]
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and wrapper.__wrapped__ is value:
                    self._patch(module, attr, wrapper)
        suites = kroncalc.verify.SUITES
        for name, (limit, make_units, runner) in list(suites.items()):
            self._patch(suites, name, (limit, make_units, self._wrap_unit(name, runner)))
        return self

    def _patch(self, target, key: str, value) -> None:
        """Bind ``value`` as attribute ``key`` of a module, or as item ``key`` of a dict."""
        namespace = target if isinstance(target, dict) else vars(target)
        self._patches.append((namespace, key, namespace[key]))
        namespace[key] = value

    def uninstall(self) -> None:
        for namespace, key, original in reversed(self._patches):
            namespace[key] = original
        self._patches.clear()

    # -- results -------------------------------------------------------------

    def misses(self, layer: str) -> int | None:
        """Cache misses of the layer's memoized functions; None if it has none."""
        cached = self._cached.get(layer)
        if not cached:
            return None
        return sum(fn.cache_info().misses - start for fn, start in cached)

    def snapshot(self) -> dict:
        """Flat metric name -> value; suites and commands never entered are left out."""
        out: dict = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = self.calls.get(layer, 0)
            out[f"{layer}.self_s"] = self.self_s.get(layer, 0.0)
            out[f"{layer}.misses"] = self.misses(layer)
        out.update(self.counts)
        for name, stats in self.suites.items():
            for key, value in stats.items():
                out[f"verify.{name}.{key}"] = value
        for layer, value in self.self_s.items():
            if layer.startswith(("verify.", "cli.")):
                out[f"{layer}.self_s"] = value
        for old, new in RENAMED.items():
            out[new] = out.pop(old, 0)
        return out
