"""In-memory span recorder, self-time arithmetic and method wrapping.

A span has a name, a start, an end and a parent span; every span of one
run shares the recorder's run id.  Spans live in parallel lists while the
run is going and are written out once, at the end.

The recorder wraps the program's public entry points from the outside by
replacing class attributes for the duration of a traced pass
(:class:`Patcher`); nothing inside the program is changed, and an
untraced pass runs the original functions.  The wrapped calls are all
made from the benchmark's single driver thread, so spans nest strictly
and a span's direct children never overlap.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Optional

import numpy as np

__all__ = ["SpanRecorder", "Patcher", "self_times", "covered_time"]

_clock = time.perf_counter_ns


class SpanRecorder:
    """Collects spans as parallel lists (cheap to append, easy to analyse).

    Span names are interned: ``names`` holds one code per span and
    ``table[code]`` is the name.
    """

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.table: list[str] = []
        self._codes: dict[str, int] = {}
        self.names: list[int] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self._stack: list[int] = []

    def __len__(self) -> int:
        return len(self.names)

    def code(self, name: str) -> int:
        """The code of ``name``, or -1 if no span of that name exists."""
        return self._codes.get(name, -1)

    def open(self, name: str) -> int:
        code = self._codes.get(name)
        if code is None:
            code = self._codes[name] = len(self.table)
            self.table.append(name)
        index = len(self.names)
        stack = self._stack
        self.names.append(code)
        self.parents.append(stack[-1] if stack else -1)
        self.ends.append(0)
        stack.append(index)
        self.starts.append(_clock())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = _clock()
        self._stack.pop()

    def current(self) -> Optional[str]:
        """Name of the innermost open span, if any."""
        stack = self._stack
        return self.table[self.names[stack[-1]]] if stack else None

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(name_codes, starts_ns, ends_ns, parents)`` as NumPy arrays."""
        return (
            np.asarray(self.names, dtype=np.int32),
            np.asarray(self.starts, dtype=np.int64),
            np.asarray(self.ends, dtype=np.int64),
            np.asarray(self.parents, dtype=np.int64),
        )

    def write(self, path: str) -> None:
        """Write every span to a compressed ``.npz`` archive."""
        codes, starts, ends, parents = self.arrays()
        np.savez_compressed(
            path,
            run_id=np.array(self.run_id),
            table=np.array(self.table),
            name=codes,
            start_ns=starts,
            end_ns=ends,
            parent=parents,
        )


def self_times(
    starts: np.ndarray, ends: np.ndarray, parents: np.ndarray
) -> np.ndarray:
    """Per-span self time: duration minus the time its children cover.

    Children of one span never overlap (single-threaded nesting), so the
    time they cover is the sum of their durations.
    """
    durations = ends - starts
    covered = np.zeros_like(durations)
    has_parent = parents >= 0
    np.add.at(covered, parents[has_parent], durations[has_parent])
    return durations - covered


def covered_time(
    starts: np.ndarray, ends: np.ndarray, parents: np.ndarray
) -> int:
    """Wall time inside any span: the summed durations of the root spans."""
    roots = parents < 0
    return int((ends[roots] - starts[roots]).sum())


def _wrap(
    recorder: SpanRecorder,
    function: Callable[..., Any],
    name: Any,
) -> Callable[..., Any]:
    """``function`` inside a span; ``name`` may be a callable of ``self``."""
    open_span, close_span = recorder.open, recorder.close
    if callable(name):
        namer = name

        def wrapper(self: Any, *args: Any, **kwargs: Any) -> Any:
            index = open_span(namer(self))
            try:
                return function(self, *args, **kwargs)
            finally:
                close_span(index)
    else:

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            index = open_span(name)
            try:
                return function(*args, **kwargs)
            finally:
                close_span(index)

    wrapper.__wrapped__ = function  # type: ignore[attr-defined]
    return wrapper


class Patcher:
    """Installs span wrappers on class attributes and restores them."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self._saved: list[tuple[type, str, Any]] = []

    def wrap(self, owner: type, attr: str, name: Any,
             hook: Optional[Callable[..., Any]] = None) -> None:
        """Wrap ``owner.attr`` (which ``owner`` itself must define).

        ``hook``, when given, wraps the spanned call once more, outside
        the span, for per-call counter reads.
        """
        original = owner.__dict__[attr]
        function = _wrap(self.recorder, original, name)
        if hook is not None:
            function = hook(function)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, function)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Patcher":
        return self

    def __exit__(self, *exc: object) -> None:
        self.restore()
