"""In-memory span tracer that times harnacklab's public functions from outside.

A :class:`Tracer` replaces each target function with a wrapper that records
one span per call: name, start, end and the span that was open when the call
began (its parent).  The wrapper is installed in the module that defines the
function and in every ``harnacklab`` module that imported it by name, so a
reference such as ``harnack_lab.stable_density`` is traced as well.  Leaving
the ``with`` block puts every original object back.

Spans live in flat arrays while the program runs and are written out once at
the end (:meth:`Tracer.save`).  :func:`self_times` turns them into per-name
self time: a span's duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from array import array
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

PACKAGE = "harnacklab"


@dataclass(frozen=True)
class Target:
    """One thing to trace: ``module.name`` or ``module.cls.name``.

    ``keep_args`` also records the arguments of every call, bound to the
    function's signature, for counters computed from them (draws, jumps).
    """

    module: str
    name: str
    cls: str | None = None
    keep_args: bool = False

    @property
    def span_name(self) -> str:
        layer = self.module.rsplit(".", 1)[-1]
        owner = f"{self.cls}." if self.cls else ""
        return f"{layer}.{owner}{self.name}"


class Tracer:
    """Context manager that wraps targets on entry and restores them on exit."""

    def __init__(self, targets) -> None:
        self.targets = list(targets)
        self.names: list[str] = [t.span_name for t in self.targets]
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.calls: dict[str, list[dict]] = defaultdict(list)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, nid: int, fn, keep_args: bool):
        signature = inspect.signature(fn) if keep_args else None
        name = self.names[nid]
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.end.append(0.0)
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self.calls[name].append(dict(bound.arguments))
            stack.append(idx)
            self.start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                stack.pop()

        return traced

    # -- installing --------------------------------------------------------

    @staticmethod
    def _modules():
        return [
            mod
            for key, mod in list(sys.modules.items())
            if mod is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def __enter__(self) -> "Tracer":
        try:
            for nid, target in enumerate(self.targets):
                module = importlib.import_module(target.module)
                if target.cls is not None:
                    cls = getattr(module, target.cls)
                    original = cls.__dict__[target.name]
                    if isinstance(original, property):
                        wrapped = property(self._wrap(nid, original.fget, target.keep_args))
                    else:
                        wrapped = self._wrap(nid, original, target.keep_args)
                    self._patch(cls, target.name, wrapped)
                    continue
                original = getattr(module, target.name)
                wrapped = self._wrap(nid, original, target.keep_args)
                for mod in self._modules():
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, attr, wrapped)
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def spans(self) -> list[tuple[str, float, float, int]]:
        return [
            (self.names[n], s, e, p)
            for n, s, e, p in zip(self.name_id, self.start, self.end, self.parent)
        ]

    def save(self, path: Path) -> None:
        """Write the spans as .npz arrays: names, name_id, start, end, parent."""
        import numpy as np

        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
        )


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for s, e in sorted(intervals):
        s, e = max(s, reach), min(e, hi)
        if e > s:
            total += e - s
            reach = e
    return total


def self_times(spans) -> dict[str, tuple[int, float]]:
    """Per span name: (calls, total self time).

    ``spans`` is a sequence of (name, start, end, parent index), parent -1 at
    the root.  Self time is a span's duration minus the part of its interval
    covered by its direct children.
    """
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, s, e, p in spans:
        if p >= 0:
            children[p].append((s, e))
    out: dict[str, list] = defaultdict(lambda: [0, 0.0])
    for i, (name, s, e, _) in enumerate(spans):
        kids = children.get(i)
        entry = out[name]
        entry[0] += 1
        entry[1] += (e - s) - (_covered(kids, s, e) if kids else 0.0)
    return {name: (calls, total) for name, (calls, total) in out.items()}
