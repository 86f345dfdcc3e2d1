"""In-memory span tracer that wraps the program's functions from outside.

Each wrapped function is replaced at the name its caller looks it up by (a
module global or a class attribute), so the program itself is unchanged.
A span records its name, start, end, parent span and request id in flat
arrays; they are written out once, when the run ends.  Self time is a
span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import time
from array import array
from contextlib import contextmanager

import numpy as np

_NO_PARENT = -1


class Tracer:
    """Spans of the functions it wraps, recorded while ``active`` is set."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.request = array("i")
        self.request_id = -1
        self.active = False
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        # Exact counts gathered at the wrapped boundaries (see the hooks).
        self.counts: dict[str, float] = {}

    # -- recording ---------------------------------------------------------

    def _intern(self, name: str) -> int:
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def _open(self, name_idx: int) -> int:
        idx = len(self.start)
        self.name_id.append(name_idx)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.parent.append(self._stack[-1] if self._stack else _NO_PARENT)
        self.request.append(self.request_id)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def add(self, key: str, value: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    @contextmanager
    def paused(self):
        """Run the benchmark's own checks without recording them."""
        was = self.active
        self.active = False
        try:
            yield
        finally:
            self.active = was

    # -- wrapping ----------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, on_return=None, on_error=None) -> None:
        """Replace ``owner.attr`` by a recording wrapper.

        ``on_return(args, kwargs, result)`` and ``on_error(exc)`` let a
        caller count outcomes at the boundary.
        """
        original = getattr(owner, attr)
        name_idx = self._intern(name)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            idx = tracer._open(name_idx)
            try:
                result = original(*args, **kwargs)
            except Exception as exc:
                tracer._close(idx)
                if on_error is not None:
                    on_error(exc)
                raise
            tracer._close(idx)
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def wrap_generator(self, owner, attr: str, name: str) -> None:
        """Like ``wrap`` for a generator function: one span per ``next``,
        since the work the caller does between two yields is not the
        generator's."""
        original = getattr(owner, attr)
        name_idx = self._intern(name)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not tracer.active:
                yield from original(*args, **kwargs)
                return
            gen = original(*args, **kwargs)
            while True:
                idx = tracer._open(name_idx)
                try:
                    item = next(gen)
                except StopIteration:
                    tracer._close(idx)
                    return
                except Exception:
                    tracer._close(idx)
                    raise
                tracer._close(idx)
                yield item

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- analysis ----------------------------------------------------------

    def arrays(self):
        """(name index, start, end, parent, request) as numpy arrays."""
        return (
            np.frombuffer(self.name_id, dtype=np.int32).copy(),
            np.frombuffer(self.start, dtype=np.float64).copy(),
            np.frombuffer(self.end, dtype=np.float64).copy(),
            np.frombuffer(self.parent, dtype=np.int32).copy(),
            np.frombuffer(self.request, dtype=np.int32).copy(),
        )

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total (inclusive) seconds and self seconds."""
        name_id, start, end, parent, _ = self.arrays()
        duration = end - start
        has_parent = parent >= 0
        child_time = np.bincount(
            parent[has_parent], weights=duration[has_parent], minlength=len(duration)
        )
        self_time = duration - child_time
        out = {}
        for idx, name in enumerate(self.names):
            mask = name_id == idx
            out[name] = {
                "calls": int(mask.sum()),
                "total_s": float(duration[mask].sum()),
                "self_s": float(self_time[mask].sum()),
            }
        return out

    def save(self, path: str) -> None:
        name_id, start, end, parent, request = self.arrays()
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=name_id,
            start=start,
            end=end,
            parent=parent,
            request=request,
        )
