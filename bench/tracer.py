"""Per-layer tracing by wrapping public names of ``essencemap`` at run time.

Nothing under ``src/`` is edited.  Each hook replaces a function everywhere
the package holds a reference to it (module globals and module-level dicts
such as the CLI's renderer table), or a method on its class.  A span's self
time is its duration minus the time of hooked calls made inside it.  A hook
whose target no longer exists raises :class:`MissingHookError`, so a
refactor that renames a layer entry point cannot silently report zero.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass

# (layer, module, name); a trailing ``*`` hooks every public function of
# the module whose name starts with the prefix, and at least one must exist.
HOOKS = (
    ("corpus", "essencemap.corpus", "load_*"),
    ("corpus", "essencemap.corpus", "AnnotationTable.level_for"),
    ("lta", "essencemap.lta", "StatementScorer.level"),
    ("lta", "essencemap.lta", "extract_spo"),
    ("lta", "essencemap.lta", "canonicalize_part"),
    ("matching", "essencemap.matching", "candidate_pairs"),
    ("matching", "essencemap.matching", "max_matching"),
    ("concepts", "essencemap.concepts", "similarity"),
    ("mapper", "essencemap.mapper", "classify"),
    ("mapper", "essencemap.mapper", "map_contexts"),
    ("cli", "essencemap.cli", "render_*"),
)

# Outcome counted from a hook's result into ``HookStats.items``.
_ITEMS = {
    "load_annotations": len,
    "AnnotationTable.level_for": lambda level: level is not None,
    "candidate_pairs": len,
    "max_matching": lambda match: len(match.pairs),
    "map_contexts": lambda report: len(report.results),
}


class MissingHookError(RuntimeError):
    """A hook target is gone; the trace would be incomplete."""


@dataclass
class HookStats:
    layer: str
    calls: int = 0
    self_s: float = 0.0
    items: int = 0


def _targets(module_name: str, pattern: str):
    """Yield (owner, name, function) for one hook pattern."""
    module = sys.modules.get(module_name)
    if module is None:
        raise MissingHookError(f"module {module_name} is not imported")
    if pattern.endswith("*"):
        found = [
            (module, name, value)
            for name, value in sorted(vars(module).items())
            if name.startswith(pattern[:-1])
            and callable(value)
            and getattr(value, "__module__", None) == module_name
        ]
        if not found:
            raise MissingHookError(f"no {module_name}.{pattern} to hook")
        yield from found
        return
    owner = module
    *path, name = pattern.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    function = getattr(owner, name, None)
    if not callable(function):
        raise MissingHookError(f"{module_name}.{pattern} is missing")
    yield owner, name, function


def _places(function, modules):
    """(dict, key) pairs through which the package reaches ``function``."""
    for module in modules:
        for key, value in vars(module).items():
            if value is function:
                yield vars(module), key
            elif type(value) is dict:
                yield from ((value, k) for k, v in value.items() if v is function)


class Tracer:
    """Aggregated spans and counts of the invocations run while installed."""

    def __init__(self):
        self.stats: dict[str, HookStats] = {}
        self.loaded_paths: list[str] = []
        self._children = [0.0]

    def reset(self):
        for stats in self.stats.values():
            stats.calls, stats.self_s, stats.items = 0, 0.0, 0
        self.loaded_paths.clear()

    def _wrap(self, key: str, stats: HookStats, function):
        children = self._children
        clock = time.perf_counter
        count = _ITEMS.get(key)
        paths = self.loaded_paths if key.startswith("load_") else None

        @functools.wraps(function)
        def traced(*args, **kwargs):
            children.append(0.0)
            start = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                span = clock() - start
                inner = children.pop()
                children[-1] += span
                stats.calls += 1
                stats.self_s += span - inner
            if count is not None:
                stats.items += count(result)
            if paths is not None:
                paths.append(args[0])
            return result

        return traced

    @contextmanager
    def installed(self):
        """Hook every target for the duration of the block."""
        import essencemap  # noqa: F401  (imports every layer module)

        modules = [m for n, m in list(sys.modules.items())
                   if n == "essencemap" or n.startswith("essencemap.")]
        plan = []
        for layer, module_name, pattern in HOOKS:
            for owner, name, function in _targets(module_name, pattern):
                key = f"{owner.__name__}.{name}" if isinstance(owner, type) else name
                stats = self.stats.setdefault(key, HookStats(layer))
                plan.append((owner, name, function, self._wrap(key, stats, function)))
        undo = []
        try:
            for owner, name, function, traced in plan:
                if isinstance(owner, type):
                    setattr(owner, name, traced)
                    undo.append((owner, name, function))
                    continue
                for mapping, key in list(_places(function, modules)):
                    mapping[key] = traced
                    undo.append((mapping, key, function))
            yield self
        finally:
            for owner, name, function in reversed(undo):
                if isinstance(owner, dict):
                    owner[name] = function
                else:
                    setattr(owner, name, function)

    def layer_self_s(self) -> dict[str, float]:
        totals: dict[str, float] = {}
        for stats in self.stats.values():
            totals[stats.layer] = totals.get(stats.layer, 0.0) + stats.self_s
        return totals
