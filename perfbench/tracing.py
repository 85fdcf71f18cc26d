"""Spans around the public functions of each winshift layer.

The recorder keeps every span in memory as (name, start, end, parent) and
computes self time as a span's duration minus the durations of its direct
children.  Spans are installed from outside the package: each wrapped
function is replaced in every ``winshift`` module that holds a reference to
it, so calls between modules (``shift`` calling ``game.winning_members``,
``cli`` calling ``substitution.language``) are traced where the caller
looks the name up.  Nothing is installed unless a traced pass asks for it.
"""

from __future__ import annotations

import io
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter


def _strategy_nodes(tree) -> int:
    count, stack = 0, [tree]
    while stack:
        node = stack.pop()
        count += 1
        stack.extend(node.children.values())
    return count


def _refutation_nodes(ref) -> int:
    # a refutation is a DAG (shared continuations); count distinct nodes
    seen, stack = set(), [ref]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(child for _, child in node.responses.values())
    return len(seen)


def _captured_stdout_bytes(_code) -> int:
    # cli.main writes to sys.stdout; callers that capture it use a StringIO
    out = sys.stdout
    return len(out.getvalue().encode()) if isinstance(out, io.StringIO) else 0


def _certificate_nodes(result) -> int:
    if result.strategy is not None:
        return _strategy_nodes(result.strategy)
    return _refutation_nodes(result.refutation)


# (module, function, counter to add to after each call, size of the result)
TRACED = (
    ("substitution", "language", "substitution.language.words", len),
    ("substitution", "periodicity_probe", None, None),
    ("recognizability", "sync_delay", None, None),
    ("game", "winning_members", "game.sequences", len),
    ("game", "winning_set", "game.sequences", lambda ws: len(ws.maximal)),
    ("game", "winning_set_cardinality", None, None),
    ("game", "member", "game.certificate_nodes", _certificate_nodes),
    ("game", "max_first_choice", None, None),
    ("shift", "enumerate_irreducible", "shift.enumerate_irreducible.sequences", len),
    ("shift", "substitute_strategy", None, None),
    ("shift", "desubstitute_strategy", None, None),
    ("complexity", "complexity_table", None, None),
    ("complexity", "delta_direct", None, None),
    ("complexity", "delta_recurrence", None, None),
    ("cli", "main", "cli.stdout_bytes", _captured_stdout_bytes),
)

LAYERS = ("substitution", "recognizability", "game", "shift", "complexity", "cli")


class Recorder:
    """In-memory span and counter store for one traced pass."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, counter: str | None, size):
        def traced(*args, **kwargs):
            if not self._stack:
                # outside the set-up and timed phases (answer checks): untraced
                return fn(*args, **kwargs)
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            self.counts[name + ".calls"] += 1
            if counter is not None:
                self.counts[counter] += size(result)
            return result

        return traced

    def install(self) -> None:
        """Replace each traced function wherever a winshift module refers to it."""
        modules = [
            module
            for key, module in sys.modules.items()
            if key == "winshift" or key.startswith("winshift.")
        ]
        for module_name, func_name, counter, size in TRACED:
            original = getattr(sys.modules[f"winshift.{module_name}"], func_name)
            wrapper = self.wrap(f"{module_name}.{func_name}", original, counter, size)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

    def self_times(self) -> dict[str, float]:
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for (name, start, end, _), children in zip(self.spans, child_time):
            totals[name] += (end - start) - children
        return dict(totals)

    def metrics(self) -> dict[str, float]:
        """Per-function and per-layer self times plus the counters."""
        selfs = self.self_times()
        out: dict[str, float] = {f"{name}.self_s": value for name, value in selfs.items()}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(
                value for name, value in selfs.items() if name.startswith(layer + ".")
            )
        out.update(self.counts)
        return out

    def dump(self, path) -> None:
        records = [
            {"name": name, "start": start, "end": end, "parent": parent}
            for name, start, end, parent in self.spans
        ]
        path.write_text(json.dumps({"spans": records, "counts": dict(self.counts)}))
