"""Spans around calls into the journeyshare layers, recorded from outside.

A Tracer replaces a function at the module attribute where the pipeline looks
it up (for example `journeyshare.experiments.plan_individual`, which is the
name `run_pipeline` calls) with a wrapper that records a span, and puts the
original back on `restore()`.  The package itself is not modified.

A span is (name, start, end, parent, experiment, counts).  `parent` is the
index of the innermost span open when it started, and `experiment` the id of
the `run_pipeline` call in progress.  Spans are kept in memory.  Parents are
tracked with one stack, so wrapped functions must only be called from one
thread: trace serial batches only.
"""

from __future__ import annotations

import functools
import time
from typing import Callable, Iterator

# (original, args, kwargs) -> (result, counts)
CallHook = Callable[[Callable, tuple, dict], tuple]


def observing(observe: Callable[[tuple, dict, object], dict]) -> CallHook:
    """Call hook that calls the original and reads counts off its arguments and result."""

    def call(original, args, kwargs):
        result = original(*args, **kwargs)
        return result, observe(args, kwargs, result)

    return call


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._experiment: str | None = None
        self._restore: list[tuple[object, str, Callable]] = []

    def _open(self, name: str) -> None:
        parent = self._stack[-1] if self._stack else None
        self._stack.append(len(self.spans))
        self.spans.append([name, time.perf_counter(), None, parent, self._experiment, None])

    def _close(self, counts: dict | None) -> None:
        span = self.spans[self._stack.pop()]
        span[2] = time.perf_counter()
        span[5] = counts

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span."""
        self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(None)

    def wrap(
        self,
        module: object,
        attr: str,
        name: str,
        hook: CallHook | None = None,
        experiment: Callable[[tuple, dict], str] | None = None,
    ) -> None:
        """Replace module.attr by a span-recording wrapper until restore()."""
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if experiment is not None:
                self._experiment = experiment(args, kwargs)
            self._open(name)
            counts = None
            try:
                if hook is None:
                    return original(*args, **kwargs)
                result, counts = hook(original, args, kwargs)
                return result
            finally:
                self._close(counts)

        setattr(module, attr, traced)
        self._restore.append((module, attr, original))

    def restore(self) -> None:
        while self._restore:
            module, attr, original = self._restore.pop()
            setattr(module, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def self_times(self) -> list[float]:
        """Per span: its duration minus the union of its children's intervals."""
        children: dict[int, list[int]] = {}
        for index, span in enumerate(self.spans):
            if span[3] is not None:
                children.setdefault(span[3], []).append(index)
        result = []
        for index, (_, start, end, _, _, _) in enumerate(self.spans):
            covered = 0.0
            reach = start
            for c_start, c_end in sorted((self.spans[c][1], self.spans[c][2]) for c in children.get(index, ())):
                c_start, c_end = max(c_start, reach), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            result.append((end - start) - covered)
        return result

    def records(self) -> Iterator[dict]:
        """The spans as JSON-ready dicts, with their self times."""
        for index, (span, self_s) in enumerate(zip(self.spans, self.self_times())):
            name, start, end, parent, experiment, counts = span
            record = {
                "id": index,
                "name": name,
                "start": start,
                "end": end,
                "self": self_s,
                "parent": parent,
                "experiment": experiment,
            }
            if counts:
                record["counts"] = counts
            yield record
