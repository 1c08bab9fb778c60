"""In-memory span tracing around roitrack's public functions.

The package's modules import each other's functions by name
(``from .arenas import pursue``), so a caller looks a function up in its own
module's globals.  ``Tracer.install`` therefore replaces every reference to a
public layer function, in every roitrack module that holds one, with a
wrapper that records a span: (name, start, end, parent).  ``uninstall`` puts
every original object back.  Nothing under ``src/`` is edited.

Spans live in flat ``array`` columns so a 22,000-step batch (a few hundred
thousand spans) stays small; ``aggregate`` turns them into per-function call
counts, total time and self time (duration minus the time covered by child
spans).
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import json
import os
from array import array
from collections import Counter
from time import perf_counter_ns

LAYERS = (
    "geometry",
    "controller",
    "world",
    "arenas",
    "trials",
    "metrics",
    "telemetry",
    "protocol",
    "cli",
)

# Public methods whose callers reach them through an instance, not a module
# global, so they are patched on the class.  (class name, method, span name).
METHODS = (
    ("CommandLink", "send", "protocol.link_send"),
    ("MockTransport", "send", "protocol.transport_send"),
)


def _count_active(args, result, c):
    if result.yaw_rate != 0.0 or result.pitch_rate != 0.0:
        c["controller.active"] += 1


def _count_invisible(args, result, c):
    if not result[3]:
        c["world.invisible_samples"] += 1


def _count_written(args, result, c):
    c["telemetry.write_trial_csv.bytes"] += os.path.getsize(args[1])


def _count_read(args, result, c):
    c["telemetry.read_trial_csv.rows"] += len(result.samples)


def _count_frames(args, result, c):
    c["protocol.frames"] += len(result)


def _count_wire_bytes(args, result, c):
    c["protocol.wire_bytes"] += len(args[1].wire_bytes())


def _count_excursions(args, result, c):
    c["metrics.excursions"] += result.n


# Counters read from arguments and results at a span boundary.
OBSERVERS = {
    "controller.step": _count_active,
    "world.closed_loop_step": _count_invisible,
    "telemetry.write_trial_csv": _count_written,
    "telemetry.read_trial_csv": _count_read,
    "protocol.link_send": _count_frames,
    "protocol.transport_send": _count_wire_bytes,
    "metrics.summarize": _count_excursions,
}


def public_functions() -> dict:
    """Map each public layer function object to its span name."""
    targets = {}
    for layer in LAYERS:
        module = importlib.import_module(f"roitrack.{layer}")
        for attr, value in vars(module).items():
            if attr.startswith("_") or not inspect.isfunction(value):
                continue
            if value.__module__ == module.__name__:
                targets[value] = f"{layer}.{attr}"
    return targets


def patch_sites() -> list:
    """Every (owner, attribute) the tracer replaces, in a fixed order."""
    targets = public_functions()
    modules = [importlib.import_module("roitrack")]
    modules += [importlib.import_module(f"roitrack.{layer}") for layer in LAYERS]
    sites = []
    for module in modules:
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in targets:
                sites.append((module, attr, targets[value]))
    protocol = importlib.import_module("roitrack.protocol")
    for cls_name, method, span_name in METHODS:
        sites.append((getattr(protocol, cls_name), method, span_name))
    return sites


class Tracer:
    """Records spans between ``install`` and ``uninstall``."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("q")
        self.parent_of = array("q")
        self.start_of = array("q")
        self.end_of = array("q")
        self.counters: Counter = Counter()
        self._stack = [-1]
        self._saved: list = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, fn, name: str):
        nid = self._name_id(name)
        observe = OBSERVERS.get(name)
        name_of, parent_of = self.name_of, self.parent_of
        start_of, end_of = self.start_of, self.end_of
        stack, counters = self._stack, self.counters
        errors = name + ".errors"

        def traced(*args, **kwargs):
            i = len(name_of)
            name_of.append(nid)
            parent_of.append(stack[-1])
            start_of.append(0)
            end_of.append(0)
            stack.append(i)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                counters[errors] += 1
                raise
            finally:
                end_of[i] = perf_counter_ns()
                start_of[i] = t0
                stack.pop()
            if observe is not None:
                observe(args, result, counters)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for owner, attr, name in patch_sites():
            original = getattr(owner, attr)
            if original not in wrappers:
                wrappers[original] = self._wrap(original, name)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrappers[original])

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def aggregate(self) -> dict:
        """Per span name: calls, total_ns, self_ns and the call durations."""
        n = len(self.name_of)
        child_ns = [0] * n
        durations = [self.end_of[i] - self.start_of[i] for i in range(n)]
        parent_of = self.parent_of
        for i in range(n):
            p = parent_of[i]
            if p >= 0:
                child_ns[p] += durations[i]
        stats = {name: {"calls": 0, "total_ns": 0, "self_ns": 0, "durations": []} for name in self.names}
        names = self.names
        for i in range(n):
            s = stats[names[self.name_of[i]]]
            s["calls"] += 1
            s["total_ns"] += durations[i]
            s["self_ns"] += durations[i] - child_ns[i]
            s["durations"].append(durations[i])
        return stats

    def dump(self, path: str) -> None:
        """Write the spans as gzipped JSON lines: a header naming the columns,
        then one [name, start_ns, end_ns, parent] row per span, with times
        relative to the first span's start and parent -1 for a root span."""
        t0 = self.start_of[0] if self.start_of else 0
        header = {"names": self.names, "columns": ["name", "start_ns", "end_ns", "parent"]}
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps(header) + "\n")
            for i in range(len(self.name_of)):
                fh.write(f"[{self.name_of[i]},{self.start_of[i] - t0},{self.end_of[i] - t0},{self.parent_of[i]}]\n")
