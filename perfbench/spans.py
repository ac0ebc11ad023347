"""Span recording from outside the program.

The benchmark never edits the code it measures.  Instead, a
:class:`Patches` stack swaps public functions and methods of the program
for thin wrappers while a run is in progress and puts the originals back
afterwards.  Wrappers feed a :class:`SpanRecorder`, which keeps every span
(name, start, end, parent) in flat in-memory arrays and writes them out
once, at the end.

Self time is a span's duration minus the time its direct children cover,
so the self times of all spans in a phase, plus the time outside every
top-level span, add up to the phase's wall time.
"""

from __future__ import annotations

import functools
import time
from array import array
from pathlib import Path
from typing import Any, Callable

import numpy as np

#: Names a wrapper may compute from the call instead of using a fixed one.
NameFn = Callable[[tuple, dict], str]
#: Called with ``(args, kwargs, result)`` after a wrapped call returns.
AfterFn = Callable[[tuple, dict, Any], None]


class SpanRecorder:
    """In-memory span store for one process.

    Spans are recorded only while :attr:`phase` is set; each carries the
    phase it ran in, so set-up work and the timed run are attributed
    separately.  ``nested`` marks a span opened while another span of the
    same name was already open (a recursive call), so inclusive totals can
    skip it and never count the same interval twice.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.phases: list[str] = []
        self.name_id = array("i")
        self.phase_id = array("i")
        self.parent = array("i")
        self.nested = array("b")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._open: dict[int, int] = {}
        self._phase = -1

    @property
    def recording(self) -> bool:
        return self._phase >= 0

    def begin_phase(self, name: str) -> None:
        if self._stack:
            raise RuntimeError("cannot switch phase with spans open")
        if name not in self.phases:
            self.phases.append(name)
        self._phase = self.phases.index(name)

    def end_phase(self) -> None:
        if self._stack:
            raise RuntimeError("phase ended with spans still open")
        self._phase = -1

    def _intern(self, name: str) -> int:
        ident = self._ids.get(name)
        if ident is None:
            ident = self._ids[name] = len(self.names)
            self.names.append(name)
        return ident

    def open(self, name: str) -> int:
        ident = self._intern(name)
        index = len(self.start)
        self.name_id.append(ident)
        self.phase_id.append(self._phase)
        self.parent.append(self._stack[-1] if self._stack else -1)
        depth = self._open.get(ident, 0)
        self.nested.append(1 if depth else 0)
        self._open[ident] = depth + 1
        self._stack.append(index)
        self.end.append(0.0)
        self.start.append(self.clock())
        return index

    def close(self, index: int) -> None:
        self.end[index] = self.clock()
        self._stack.pop()
        self._open[self.name_id[index]] -= 1

    def aggregate(self, phase: str) -> dict[str, dict[str, float]]:
        """Per-name ``total_s`` (outermost spans), ``n`` and ``self_s``."""
        if phase not in self.phases:
            return {}
        names = np.frombuffer(self.name_id, dtype=np.int32)
        phases = np.frombuffer(self.phase_id, dtype=np.int32)
        parents = np.frombuffer(self.parent, dtype=np.int32)
        nested = np.frombuffer(self.nested, dtype=np.int8).astype(bool)
        duration = (
            np.frombuffer(self.end, dtype=np.float64)
            - np.frombuffer(self.start, dtype=np.float64)
        )
        children = np.zeros_like(duration)
        has_parent = parents >= 0
        np.add.at(children, parents[has_parent], duration[has_parent])
        own = duration - children
        in_phase = phases == self.phases.index(phase)
        out: dict[str, dict[str, float]] = {}
        for ident in np.unique(names[in_phase]):
            mine = in_phase & (names == ident)
            outer = mine & ~nested
            out[self.names[ident]] = {
                "total_s": float(duration[outer].sum()),
                "n": int(outer.sum()),
                "self_s": float(own[mine].sum()),
            }
        return out

    def top_level_seconds(self, phase: str) -> float:
        """Summed duration of the phase's spans that have no parent."""
        if phase not in self.phases:
            return 0.0
        phases = np.frombuffer(self.phase_id, dtype=np.int32)
        parents = np.frombuffer(self.parent, dtype=np.int32)
        top = (phases == self.phases.index(phase)) & (parents < 0)
        duration = (
            np.frombuffer(self.end, dtype=np.float64)
            - np.frombuffer(self.start, dtype=np.float64)
        )
        return float(duration[top].sum())

    def __len__(self) -> int:
        return len(self.start)

    def write(self, path: Path) -> Path:
        """Write every span as compressed arrays (``numpy.load`` reads it)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names, dtype=str),
            phases=np.array(self.phases, dtype=str),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            phase_id=np.frombuffer(self.phase_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )
        return path


def spanned(
    recorder: SpanRecorder,
    fn: Callable,
    name: str | NameFn,
    after: AfterFn | None = None,
) -> Callable:
    """``fn`` wrapped to record a span (and call ``after``) while recording."""
    name_of = name if callable(name) else None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not recorder.recording:
            return fn(*args, **kwargs)
        index = recorder.open(name_of(args, kwargs) if name_of else name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close(index)
        if after is not None:
            after(args, kwargs, result)
        return result

    return wrapper


class Patches:
    """A stack of attribute swaps, undone in reverse order on exit."""

    def __init__(self) -> None:
        self._undo: list[tuple[Any, str, bool, Any]] = []

    def replace(self, owner: Any, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Set ``owner.attr`` to ``make(current)``; restored on :meth:`undo`."""
        defined = attr in vars(owner)
        current = vars(owner)[attr] if defined else getattr(owner, attr)
        self._undo.append((owner, attr, defined, current))
        setattr(owner, attr, make(current))

    def undo(self) -> None:
        while self._undo:
            owner, attr, defined, original = self._undo.pop()
            if defined:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc: object) -> None:
        self.undo()
