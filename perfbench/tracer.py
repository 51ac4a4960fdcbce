"""Outside-in span tracer: time calls into ``repro`` without editing it.

A :class:`Tracer` replaces public functions and methods with wrappers
that record one span per call.  Spans nest on a per-process stack, so a
span's *self* time is its duration minus the part of it its child spans
cover, and the self times of one process never sum to more than its
wall time.  Each span name is ``"<layer>/<what>"``.

Wrappers go where callers look the target up: a method is replaced on
its class; a module-level function is replaced in every ``repro`` or
``perfbench`` module that holds it under that name (``fleet/cluster.py``
imports ``run_host_task`` by name, for example).

Pool workers forked while a tracer is installed inherit its wrappers.
They start with empty totals and, whenever their span stack empties,
append what they recorded to ``<spool>/worker-<pid>.jsonl``; the
benchmark folds those files back in with :meth:`Tracer.take_spool`.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: ``count(counts, args, kwargs, result)`` adds to the tracer's counters.
CountFn = Callable[[Dict[str, float], tuple, dict, Any], None]

_ACTIVE: List["Tracer"] = []


def _after_fork_in_child() -> None:
    for tracer in _ACTIVE:
        tracer._forked()


os.register_at_fork(after_in_child=_after_fork_in_child)


class Tracer:
    """Span totals for one process, plus the patches that feed them."""

    def __init__(self, spool: Optional[Path] = None):
        self.spool = spool
        #: span name -> [self seconds, inclusive seconds, calls]
        self.stats: Dict[str, List[float]] = {}
        self.counts: Dict[str, float] = {}
        self._stack: List[List[float]] = []
        self._in_child = False
        self._patches: List[Tuple[Any, str, Any, bool]] = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, fn: Callable, count: Optional[CountFn] = None):
        stack, stats, counts = self._stack, self.stats, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    count(counts, args, kwargs, result)
                return result
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                entry = stats.get(name)
                if entry is None:
                    entry = stats[name] = [0.0, 0.0, 0]
                entry[0] += dt - frame[0]
                entry[1] += dt
                entry[2] += 1
                if not stack and self._in_child:
                    self._flush()

        return traced

    def reset(self) -> None:
        self.stats.clear()
        self.counts.clear()

    def _forked(self) -> None:
        self._stack.clear()
        self.reset()
        self._in_child = True

    def _flush(self) -> None:
        if self.spool is None:
            return
        line = json.dumps({"stats": self.stats, "counts": self.counts})
        with open(self.spool / f"worker-{os.getpid()}.jsonl", "a") as fh:
            fh.write(line + "\n")
        self.reset()

    def take_spool(self) -> Iterator[dict]:
        """Yield and delete every record pool workers spooled so far."""
        if self.spool is None:
            return
        for path in sorted(self.spool.glob("worker-*.jsonl")):
            records = path.read_text().splitlines()
            path.unlink()
            for line in records:
                yield json.loads(line)

    # -- installing --------------------------------------------------------

    def patch_method(
        self, cls: type, attr: str, name: str, count: Optional[CountFn] = None
    ) -> None:
        """Wrap ``cls.attr`` (plain, class or static method, possibly
        inherited) so every lookup through *cls* records span *name*."""
        original = inspect.getattr_static(cls, attr)
        own = attr in cls.__dict__
        if isinstance(original, (classmethod, staticmethod)):
            replacement = type(original)(self.wrap(name, original.__func__, count))
        else:
            replacement = self.wrap(name, original, count)
        setattr(cls, attr, replacement)
        self._patches.append((cls, attr, original, own))

    def patch_function(
        self, module: Any, attr: str, name: str, count: Optional[CountFn] = None
    ) -> None:
        """Wrap module function *attr* in every module that holds it."""
        original = getattr(module, attr)
        replacement = self.wrap(name, original, count)
        for mod_name, mod in list(sys.modules.items()):
            if not mod_name.startswith(("repro", "perfbench")):
                continue
            if getattr(mod, attr, None) is original:
                setattr(mod, attr, replacement)
                self._patches.append((mod, attr, original, True))

    def install(self) -> "Tracer":
        _ACTIVE.append(self)
        return self

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        for owner, attr, original, own in reversed(self._patches):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches.clear()
        if self in _ACTIVE:
            _ACTIVE.remove(self)


def merge_stats(into: Dict[str, List[float]], more: Dict[str, List[float]]) -> None:
    for name, (self_s, incl_s, calls) in more.items():
        entry = into.setdefault(name, [0.0, 0.0, 0])
        entry[0] += self_s
        entry[1] += incl_s
        entry[2] += calls


def merge_counts(into: Dict[str, float], more: Dict[str, float]) -> None:
    for key, value in more.items():
        into[key] = into.get(key, 0) + value
