"""Span recorder and shim installer for the traced run.

A span is one call into a wrapped public callable: ``(key, thread, start,
end, parent)`` where ``key`` is ``"<layer>:<name>"`` and ``parent`` is the
enclosing span on the same thread.  Self time is duration minus the time of
same-thread children, so on every thread the self times of all spans add up
to the durations of that thread's root spans.

Two kinds of thread exist.  *Driver* threads belong to the harness (the
load generator's clients, or the main thread of a library workload); their
wall is the timed phase and whatever is not inside a span is
``bench.unattributed_ms``.  All other threads (HTTP handlers, engine
workers) belong to the program and are only ever observed inside a span.

Aggregates are kept per thread (no lock on the hot path) and merged at the
end; raw spans are kept up to ``RAW_SPAN_CAP`` for ``--spans-out``.
"""

from __future__ import annotations

import sys
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

RAW_SPAN_CAP = 200_000

# aggregate slots per key
COUNT, DUR, SELF, VALUE = range(4)


class _ThreadState:
    __slots__ = ("ident", "stack", "agg", "root_s", "wall_s", "spans")

    def __init__(self, ident: int) -> None:
        self.ident = ident
        self.stack: List[list] = []  # frames: [child_seconds, span_index]
        self.agg: Dict[str, list] = {}
        self.root_s = 0.0  # summed durations of spans without a parent
        self.wall_s = 0.0  # driver threads only: summed timed-phase wall
        self.spans: List[tuple] = []


class SpanRecorder:
    """Collects spans from wrapped callables; see the module docstring."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._states: List[_ThreadState] = []
        self._lock = threading.Lock()
        self._raw_left = RAW_SPAN_CAP

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = _ThreadState(threading.get_ident())
            with self._lock:
                self._states.append(state)
            self._local.state = state
            return state

    def wrap(
        self,
        key: str,
        fn: Callable,
        variant: Optional[Callable[[tuple], str]] = None,
        measure: Optional[Callable[[tuple, object], float]] = None,
    ) -> Callable:
        """``fn`` wrapped in a span named ``key``.

        ``variant(args)`` appends a suffix to the key (one callable, two
        request classes); ``measure(args, result)`` adds to the key's
        ``VALUE`` accumulator (a count taken where the work happens).
        """
        now = time.perf_counter
        get_state = self._state

        def wrapper(*args, **kwargs):
            state = get_state()
            stack = state.stack
            keep = self._raw_left > 0
            if keep:
                self._raw_left -= 1
                index = len(state.spans)
                parent = stack[-1][1] if stack else -1
                state.spans.append(None)
            else:
                index = -1
            frame = [0.0, index]
            stack.append(frame)
            result = None
            started = now()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                ended = now()
                stack.pop()
                duration = ended - started
                if stack:
                    stack[-1][0] += duration
                else:
                    state.root_s += duration
                name = key if variant is None else key + variant(args)
                slot = state.agg.get(name)
                if slot is None:
                    slot = state.agg[name] = [0, 0.0, 0.0, 0.0]
                slot[COUNT] += 1
                slot[DUR] += duration
                slot[SELF] += duration - frame[0]
                if measure is not None and result is not None:
                    slot[VALUE] += measure(args, result)
                if keep:
                    state.spans[index] = (name, started, ended, parent)

        wrapper.__wrapped__ = fn
        wrapper.span_key = key  # marks a live shim (see the smoke tests)
        return wrapper

    @contextmanager
    def driver_phase(self):
        """Marks the calling thread as a driver for the enclosed timed
        phase and adds the phase's wall to it."""
        state = self._state()
        started = time.perf_counter()
        try:
            yield
        finally:
            state.wall_s += time.perf_counter() - started

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------

    def aggregate(self) -> Dict[str, list]:
        """Per-key ``[count, duration_s, self_s, value]`` over all threads."""
        total: Dict[str, list] = {}
        for state in self._states:
            for name, slot in state.agg.items():
                into = total.setdefault(name, [0, 0.0, 0.0, 0.0])
                for i in range(4):
                    into[i] += slot[i]
        return total

    def accounting(self) -> dict:
        """The per-thread time invariant.

        On every thread Σ self must equal Σ root durations; on driver
        threads ``unattributed = wall − Σ root``.  ``worst_error`` is the
        largest relative disagreement between Σ self (+ unattributed) and
        the thread's traced wall.
        """
        driver_wall = unattributed = 0.0
        worst = 0.0
        for state in self._states:
            self_s = sum(slot[SELF] for slot in state.agg.values())
            if state.wall_s > 0.0:
                wall = state.wall_s
                gap = wall - state.root_s
                driver_wall += wall
                unattributed += gap
                if gap < -1e-6 * wall:
                    worst = max(worst, -gap / wall)
            else:
                wall, gap = state.root_s, 0.0
            if wall > 0.0:
                worst = max(worst, abs(self_s + gap - wall) / wall)
        return {
            "threads": len(self._states),
            "driver_wall_s": driver_wall,
            "unattributed_s": unattributed,
            "worst_error": worst,
        }

    def raw_spans(self) -> List[dict]:
        """Kept raw spans, ``parent`` an index into the same thread's
        list (-1 for a root)."""
        out = []
        for state in self._states:
            base = len(out)
            for span in state.spans:
                if span is None:  # still open when the run ended
                    out.append(None)
                    continue
                name, started, ended, parent = span
                layer, __, call = name.partition(":")
                out.append(
                    {
                        "layer": layer,
                        "name": call,
                        "thread": state.ident,
                        "start": started,
                        "end": ended,
                        "parent": parent + base if parent >= 0 else -1,
                    }
                )
        return out


# ----------------------------------------------------------------------
# shims
# ----------------------------------------------------------------------


class Shims:
    """Swaps wrapped callables in for the traced run, restores after.

    A target is either ``(owner, "attr")`` — a class or module attribute —
    or a plain function, in which case every ``repro.*`` module global
    bound to that function is rebound (``from x import f`` makes a private
    binding per importing module; patching only ``x.f`` would miss them).
    """

    def __init__(self, recorder: SpanRecorder) -> None:
        self._recorder = recorder
        self._undo: List[Tuple[object, str, object]] = []

    def attribute(self, owner, attr: str, key: str, **options) -> None:
        original = owner.__dict__[attr]
        if isinstance(original, classmethod):
            wrapped = classmethod(
                self._recorder.wrap(key, original.__func__, **options)
            )
        else:
            wrapped = self._recorder.wrap(key, original, **options)
        setattr(owner, attr, wrapped)
        self._undo.append((owner, attr, original))

    def function(self, fn: Callable, key: str, **options) -> None:
        wrapped = self._recorder.wrap(key, fn, **options)
        for name, module in list(sys.modules.items()):
            if module is None or not name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapped)
                    self._undo.append((module, attr, fn))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def installed(self) -> List[Tuple[object, str, object]]:
        """``(owner, attr, original)`` of every live patch."""
        return list(self._undo)
