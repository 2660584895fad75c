"""Span tracer that wraps the public functions of the wgelfand layer modules.

The layers are the package modules. Every public function found in a layer
module's namespace is wrapped, including names a layer imports from another
layer, so nested calls nest. Functions are discovered, not listed, so a new
public function gets spans without a change here. A span is named after the
module that defines the function (`hecke.is_weighted_gelfand`), wherever it
was called from. Spans stay in memory until `write` is called.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from array import array
from pathlib import Path
from time import perf_counter

LAYERS = ("cli", "groups", "weighted", "hecke", "spherical", "fourier")


class Tracer:
    """Records (name, start, end, parent, call) spans while installed.

    Self time is a span's duration minus the time its child spans cover.
    `call` is the index of the CLI call the span belongs to, set by the
    caller through `call_id`.
    """

    def __init__(self):
        modules = [importlib.import_module(f"wgelfand.{layer}") for layer in LAYERS]
        defining = {m.__name__ for m in modules}
        self.names: list[str] = []
        self._originals: list[tuple[object, str, object]] = []
        self._wrappers: dict[object, object] = {}
        for module in modules:
            for attr, fn in sorted(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ not in defining:
                    continue
                self._originals.append((module, attr, fn))
                if fn not in self._wrappers:
                    self._wrappers[fn] = self._wrap(fn, len(self.names))
                    self.names.append(f"{fn.__module__.rsplit('.', 1)[1]}.{fn.__name__}")
        self.call_id = -1
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.self_time = array("d")
        self.parent = array("i")
        self.call = array("i")
        self.error = array("b")
        self._stack: list[int] = []
        self._child: list[float] = []

    def _wrap(self, fn, name_id: int):
        @functools.wraps(fn)
        def span(*args, **kwargs):
            idx = len(self.name_id)
            self.name_id.append(name_id)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.call.append(self.call_id)
            self.error.append(0)
            self.start.append(0.0)
            self.end.append(0.0)
            self.self_time.append(0.0)
            self._stack.append(idx)
            self._child.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.error[idx] = 1
                raise
            finally:
                t1 = perf_counter()
                self._stack.pop()
                dur = t1 - t0
                self.start[idx] = t0
                self.end[idx] = t1
                self.self_time[idx] = dur - self._child.pop()
                if self._child:
                    self._child[-1] += dur

        return span

    def install(self) -> None:
        for module, attr, fn in self._originals:
            setattr(module, attr, self._wrappers[fn])

    def uninstall(self) -> None:
        for module, attr, fn in self._originals:
            setattr(module, attr, fn)

    def __len__(self) -> int:
        return len(self.name_id)

    def totals(self, lo: int, hi: int) -> dict[str, list[float]]:
        """Per span name, [calls, self seconds, errors] over spans lo..hi-1."""
        out: dict[str, list[float]] = {}
        for i in range(lo, hi):
            acc = out.setdefault(self.names[self.name_id[i]], [0, 0.0, 0])
            acc[0] += 1
            acc[1] += self.self_time[i]
            acc[2] += self.error[i]
        return out

    def write(self, path: Path) -> None:
        """Write every span as one JSON line."""
        with open(path, "w") as fh:
            for i in range(len(self)):
                fh.write(json.dumps({
                    "name": self.names[self.name_id[i]],
                    "start": self.start[i],
                    "end": self.end[i],
                    "parent": self.parent[i],
                    "call": self.call[i],
                    "error": bool(self.error[i]),
                }) + "\n")
