"""In-memory span tracer over emgkin's public functions and layer methods.

``Tracer.install()`` replaces every public module-level function and every
public method of the classes defined in the traced modules with a wrapper
that records one span (name, start, end, parent) per call. Every binding of
a wrapped function is rebound, including ``from ... import`` copies such as
``training.build_sequences`` and ``evaluation.build_sequences``, so no call
escapes through another name. CLI commands are traced through their click
callbacks. ``uninstall()`` restores the originals.

Calls that pass ``mode="train"`` or ``mode="eval"`` are recorded under
``<name>.<mode>``, so train-time and inference-time use of the same layer
code stay apart.

Spans are kept in memory and written out once, at the end of a run. The
tracer assumes one thread, as every workload runs with ``EMGKIN_THREADS=1``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import click

TRACED_MODULES = (
    "dsp",
    "features",
    "nn",
    "lstm",
    "optim",
    "training",
    "krr",
    "io",
    "evaluation",
    "cli",
)
MODES = ("train", "eval")


def _mode_position(fn) -> tuple[int | None, object]:
    """Index and default of fn's ``mode`` parameter, or (None, None)."""
    params = list(inspect.signature(fn).parameters.values())
    for index, param in enumerate(params):
        if param.name == "mode":
            return index, param.default
    return None, None


class Tracer:
    def __init__(self, counters: dict | None = None):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.span_names: set[str] = set()
        self._counters = counters or {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        mode_pos, mode_default = _mode_position(fn)
        self.span_names.add(name)
        if mode_pos is not None:
            self.span_names.update(f"{name}.{mode}" for mode in MODES)
        counter = self._counters.get(name)
        names, starts, ends = self.names, self.starts, self.ends
        parents, stack, counts = self.parents, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = name
            if mode_pos is not None:
                if "mode" in kwargs:
                    mode = kwargs["mode"]
                elif len(args) > mode_pos:
                    mode = args[mode_pos]
                else:
                    mode = mode_default
                if mode in MODES:
                    span = f"{name}.{mode}"
            index = len(names)
            names.append(span)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = perf_counter()
                stack.pop()
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    counts[f"{name}.{key}"] += value
            return result

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        wrapped = {}  # original function -> wrapper
        for short in TRACED_MODULES:
            module = importlib.import_module(f"emgkin.{short}")
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    wrapped[obj] = self._wrap(f"{short}.{attr}", obj)
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    self._install_methods(f"{short}.{attr}", obj)
                elif (
                    isinstance(obj, click.Command)
                    and not isinstance(obj, click.Group)
                    and obj.callback is not None
                ):
                    self._patch(obj, "callback", self._wrap(f"{short}.{attr}", obj.callback))
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("emgkin"):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._patch(module, attr, wrapped[obj])

    def _install_methods(self, prefix: str, cls: type) -> None:
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if inspect.isfunction(obj):
                self._patch(cls, attr, self._wrap(f"{prefix}.{attr}", obj))
            elif isinstance(obj, classmethod):
                wrapper = self._wrap(f"{prefix}.{attr}", obj.__func__)
                self._patch(cls, attr, classmethod(wrapper))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, total seconds and self seconds.

        Self time is a span's duration minus the durations of its direct
        children, which on one thread never overlap.
        """
        covered = [0.0] * len(self.names)
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                covered[parent] += self.ends[index] - self.starts[index]
        table: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "s": 0.0, "self_s": 0.0}
        )
        for index, name in enumerate(self.names):
            duration = self.ends[index] - self.starts[index]
            row = table[name]
            row["calls"] += 1
            row["s"] += duration
            row["self_s"] += duration - covered[index]
        return dict(table)

    def root_seconds(self) -> float:
        """Total duration of the spans that have no traced parent."""
        return sum(
            self.ends[i] - self.starts[i]
            for i, parent in enumerate(self.parents)
            if parent < 0
        )

    def write(self, path: Path) -> None:
        """One JSON line per span: index, name, start, end, parent index."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.starts[0] if self.starts else 0.0
        with open(path, "w") as fh:
            for index, name in enumerate(self.names):
                fh.write(
                    json.dumps(
                        {
                            "i": index,
                            "name": name,
                            "start": self.starts[index] - origin,
                            "end": self.ends[index] - origin,
                            "parent": self.parents[index],
                        }
                    )
                    + "\n"
                )
