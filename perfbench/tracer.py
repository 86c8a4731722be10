"""Per-layer spans for the traced run, recorded from outside ``src/``.

The tracer wraps *instance* attributes: the public methods of the
service, its scheduler(s), their stores, queue, protocol and monitor,
and the service's entry in ``scheduler.step_hooks``.  Nothing in the
package is modified and the classes are never touched, so an untraced
run executes exactly the code a user runs; :meth:`Tracer.uninstall`
restores every wrapped attribute.

Each call records a span.  A span's *self* time is its duration minus
the time of the spans it encloses, so the self times of all spans,
plus the time the event loop blocked idle, plus a named residual (the
event loop, the pacing logic and the client coroutines) add up to the wall
time of the measured window.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Any, Callable, Optional

from perfbench.loadgen import clock, schedulers_of

#: Name of the tracer's own bookkeeping bucket (queue-wait and row
#: counting done after a wrapped call returns).
BOOKKEEPING = "trace.bookkeeping"

_ABSENT = object()


def _step_name(index: int) -> str:
    return f"core.step.{index}"


class Tracer:
    """Span accounting over the wrapped public functions of a service."""

    def __init__(self) -> None:
        self._stack: list[float] = []
        #: (object, attribute, instance value before wrapping or _ABSENT)
        self._installed: list[tuple[Any, str, Any]] = []
        self._hooks: list[tuple[list, int, Callable]] = []
        self.reset()

    def reset(self) -> None:
        """Forget everything recorded so far (window start)."""
        if self._stack:
            raise RuntimeError("tracer reset inside an open span")
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.submitted_at: dict[int, float] = {}
        self.queue_waits: list[float] = []
        self.history_rows: list[int] = []
        self.evaluated_rows = 0
        self.qualified_rows = 0

    def snapshot(self) -> dict:
        """A frozen copy of the accumulators (window end)."""
        if self._stack:
            raise RuntimeError("tracer snapshot inside an open span")
        return {
            "self_s": dict(self.self_s),
            "total_s": dict(self.total_s),
            "calls": dict(self.calls),
            "queue_waits": list(self.queue_waits),
            "history_rows": list(self.history_rows),
            "evaluated_rows": self.evaluated_rows,
            "qualified_rows": self.qualified_rows,
        }

    # -- span recording ----------------------------------------------------

    def _close(self, name: str, started: float) -> None:
        elapsed = clock() - started
        children = self._stack.pop()
        self.self_s[name] += elapsed - children
        self.total_s[name] += elapsed
        self.calls[name] += 1
        if self._stack:
            self._stack[-1] += elapsed

    def _bookkeep(self, work: Callable, *args) -> None:
        """Run tracer bookkeeping as its own span, so it is charged to
        the tracer and not to the layer that was just timed."""
        started = clock()
        self._stack.append(0.0)
        try:
            work(*args)
        finally:
            self._close(BOOKKEEPING, started)

    def _timed(self, name: str, function: Callable, after: Optional[Callable]):
        stack = self._stack

        def timed(*args, **kwargs):
            started = clock()
            stack.append(0.0)
            try:
                result = function(*args, **kwargs)
            finally:
                self._close(name, started)
            if after is not None:
                self._bookkeep(after, args, result)
            return result

        return timed

    def _timed_async(self, name: str, function: Callable):
        """Wrap a coroutine method that never suspends, so its span
        encloses no other task's work.  The service's ``submit`` only
        suspends on admission backpressure, which :meth:`install`
        refuses."""
        stack = self._stack

        async def timed(*args, **kwargs):
            started = clock()
            stack.append(0.0)
            try:
                return await function(*args, **kwargs)
            finally:
                self._close(name, started)

        return timed

    # -- bookkeeping callbacks ---------------------------------------------

    def _note_submit(self, args, result) -> None:
        self.submitted_at.setdefault(args[0].id, clock())

    def _note_drain(self, args, drained) -> None:
        now = clock()
        pop = self.submitted_at.pop
        for request in drained:
            submitted = pop(request.id, None)
            if submitted is not None:
                self.queue_waits.append(now - submitted)

    def _note_schedule(self, args, decision) -> None:
        self.evaluated_rows += len(args[0])
        self.qualified_rows += len(decision.qualified)

    def _history_gauge(self, history) -> Callable:
        def note(args, result) -> None:
            self.history_rows.append(len(history))

        return note

    # -- installation ------------------------------------------------------

    def plan(self, service) -> list[tuple]:
        """``(object, attribute, span name, after, is_async)`` for every
        public function of ``service`` the tracer wraps."""
        outer = service.scheduler
        shards = schedulers_of(service)
        sharded = outer is not shards[0]
        targets: list[tuple] = [(service, "submit", "serve.submit", None, True)]
        if sharded:
            targets += [
                (outer, "step", "shard.facade", self._history_gauge(outer.history), False),
                (outer, "submit", "core.submit", self._note_submit, False),
            ]
            targets += self._monitor_targets(outer.monitor)
        for position, scheduler in enumerate(shards):
            pending, history, protocol = (
                scheduler.pending,
                scheduler.history,
                scheduler.protocol,
            )
            targets += [
                (
                    scheduler,
                    "step",
                    _step_name(position),
                    None if sharded else self._history_gauge(history),
                    False,
                ),
                (
                    scheduler,
                    "submit",
                    "core.submit",
                    None if sharded else self._note_submit,
                    False,
                ),
                (scheduler.incoming, "drain", "core.drain_insert", self._note_drain, False),
                (pending, "insert_batch", "core.drain_insert", None, False),
                (pending, "rehydrate", "core.rehydrate", None, False),
                (pending, "remove", "core.pending_remove", None, False),
                (history, "record_batch", "core.history_record", None, False),
                (history, "prune_finished", "core.prune", None, False),
                (protocol, "schedule", "backends.evaluate", self._note_schedule, False),
                (protocol, "observe_executed", "backends.observe", None, False),
                (protocol, "observe_pruned", "backends.observe", None, False),
                (scheduler, "abort_transaction", "faults.abort", None, False),
            ]
            targets += self._monitor_targets(scheduler.monitor)
        return targets

    @staticmethod
    def _monitor_targets(monitor) -> list[tuple]:
        if monitor is None:
            return []
        return [
            (monitor, attribute, "faults.monitor", None, False)
            for attribute in ("note_submitted", "note_terminal", "after_step")
        ]

    def install(self, service) -> None:
        """Wrap every traced public function of ``service`` and the
        service's step hook."""
        if service.scheduler.admission is not None:
            raise ValueError("the submit span assumes no admission backpressure")
        for owner, attribute, name, after, is_async in self.plan(service):
            function = getattr(owner, attribute)
            if is_async:
                wrapper = self._timed_async(name, function)
            else:
                wrapper = self._timed(name, function, after)
            self._installed.append((owner, attribute, vars(owner).get(attribute, _ABSENT)))
            setattr(owner, attribute, wrapper)
        hooks = service.scheduler.step_hooks
        index = hooks.index(service._on_step)
        self._hooks.append((hooks, index, hooks[index]))
        hooks[index] = self._timed("serve.resolve", hooks[index], None)

    def uninstall(self) -> None:
        """Restore every wrapped attribute to what it was."""
        for owner, attribute, previous in reversed(self._installed):
            if previous is _ABSENT:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, previous)
        for hooks, index, original in self._hooks:
            hooks[index] = original
        self._installed.clear()
        self._hooks.clear()
