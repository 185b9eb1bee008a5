"""In-memory span tracing around the calls into convreg's layers.

The tracer replaces, for the duration of a ``with tracer.installed():``
block, the names that convreg's callers resolve at run time (module
globals such as ``convreg.optimizer.gradient_fast`` and methods of
``TransformMatrix``) with wrappers that record a span per call: name,
start, end, parent, plus a few counts read from the call's arguments and
result.  Nothing in ``convreg`` is edited.  Spans stay in memory and are
written out by the caller when the run ends.

A span's self time is its duration minus the time its child spans
cover; calls are nested and single-threaded, so children never overlap.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _power_attrs(args, result) -> dict:
    _, used, converged = result
    return {"iters": used, "converged": bool(converged)}


def _build_attrs(args, result) -> dict:
    return {"nnz": result.nnz}


def _targets(convreg) -> list[tuple[object, str, str, object]]:
    """(owner, attribute, span name, attrs function) for every wrapped name.

    The owner is where the caller looks the name up: ``descend`` resolves
    ``build_transform``, ``gradient_fast`` and ``singular_extrema`` in
    ``convreg.optimizer``; ``optimize`` resolves ``descend``,
    ``random_kernel`` and ``write_trajectory_csv`` in ``convreg.cli``.
    A name the program no longer has is skipped, and its layer reads 0.
    """
    opt, spec, cli = convreg.optimizer, convreg.spectrum, convreg.cli
    tm_cls = convreg.transform.TransformMatrix
    return [
        (cli, "descend", "optimizer.descend", None),
        (opt, "build_transform", "transform.build", _build_attrs),
        (opt, "gradient_fast", "penalty.gradient", None),
        (opt, "singular_extrema", "spectrum.extrema", None),
        (spec, "power_iteration", "spectrum.power", _power_attrs),
        (tm_cls, "refresh", "transform.refresh", None),
        (tm_cls, "gram", "transform.gram", None),
        (cli, "write_trajectory_csv", "cli.write_csv", None),
        (cli, "random_kernel", "rng.random_kernel", None),
        (convreg.tensors, "random_kernel", "rng.random_kernel", None),
    ]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1].id if self._stack else None
        s = Span(id=len(self.spans), name=name, parent=parent, start=time.perf_counter())
        self.spans.append(s)
        self._stack.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, name: str, attrs=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as s:
                result = fn(*args, **kwargs)
                if attrs is not None:
                    s.attrs.update(attrs(args, result))
            return result
        return traced

    @contextlib.contextmanager
    def installed(self, convreg):
        """Wrap every target name for the duration of the block."""
        saved = []
        try:
            for owner, attr, name, attrs in _targets(convreg):
                if not hasattr(owner, attr):
                    continue
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(original, name, attrs))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"id": s.id, "name": s.name, "parent": s.parent,
                                     "start": s.start, "end": s.end,
                                     **s.attrs}) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the duration of its direct children."""
    own = {s.id: s.duration for s in spans}
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.duration
    return own


def descendants(spans: list[Span], root: Span) -> list[Span]:
    """``root`` and every span beneath it."""
    inside = {root.id}
    out = [root]
    for s in spans:  # spans are stored in start order, parents first
        if s.parent in inside:
            inside.add(s.id)
            out.append(s)
    return out
