"""Closed-loop load generator over the real asyncio serving path.

Everything runs in this process, on one OS thread, with no sockets:
``SESSIONS`` client coroutines share the event loop with the
service's pacing task.  Each session runs one transaction at a time
and pipelines its statements up to ``PIPELINE`` in flight, exactly as
``repro serve`` clients do.  Latency is measured here, on the client
side: from the ``Session.request`` call to the moment the ticket's
future resolves (a done callback stamps it), so the step that grants a
request is part of its latency.  Stamps are taken on a
:class:`~perfbench.hostclock.HostClock`, which leaves out the time the
host took the CPU away; a probe task samples the host's speed.
"""

from __future__ import annotations

import asyncio
import resource
import selectors
import time
from array import array
from collections import deque
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional

import repro.api as api
from repro.model.request import NO_OBJECT, Operation, Request, RequestAttributes
from repro.serve.session import ServiceClosed, TicketRejected

from perfbench.hostclock import HostClock
from perfbench.workloads import (
    BACKEND,
    PIPELINE,
    PROTOCOL,
    SESSIONS,
    TRIGGER,
    Workload,
)

clock = time.perf_counter

#: Client ids of the long-running readers, disjoint from pool sessions.
READER_CLIENT_BASE = 1_000_000
#: After the window, how long clients may take to finish their open
#: transactions before the run fails with unresolved tickets.
DRAIN_S = 20.0
#: How often (wall seconds) the probe task samples the host's speed.
PROBE_EVERY_S = 0.2
#: ``peak_rss_mb`` is read when this many grants have resolved, so that
#: it measures a fixed amount of work rather than however much a run
#: of fixed length gets through.
RSS_AT_GRANTS = 20_000


class BenchmarkError(RuntimeError):
    """A correctness gate failed; the run reports no numbers."""


class IdleSelector(selectors.DefaultSelector):
    """The default selector, timing how long the loop blocks in it.

    Blocking in ``select`` is the only place a single-threaded event
    loop waits, so ``idle`` is the wall time the loop had nothing to
    run: the pacing task waiting on a trigger deadline while every
    client waits on a grant.
    """

    def __init__(self) -> None:
        super().__init__()
        self.idle = 0.0

    def select(self, timeout=None):
        started = clock()
        try:
            return super().select(timeout)
        finally:
            self.idle += clock() - started


def new_loop() -> asyncio.AbstractEventLoop:
    """The event loop every run uses (``asyncio.Runner(loop_factory=...)``)."""
    return asyncio.SelectorEventLoop(IdleSelector())


def idle_selector() -> IdleSelector:
    """The running loop's :class:`IdleSelector`."""
    selector = getattr(asyncio.get_running_loop(), "_selector", None)
    if not isinstance(selector, IdleSelector):
        raise RuntimeError("run the benchmark on a loop from loadgen.new_loop()")
    return selector


def open_service(workload: Workload, check_invariants: bool = False):
    """The service every workload runs: ``repro serve`` defaults."""
    return api.open_service(
        PROTOCOL,
        BACKEND,
        trigger=TRIGGER,
        max_sessions=SESSIONS,
        max_pipeline=PIPELINE,
        check_invariants=check_invariants,
        shards=workload.shards,
    )


def schedulers_of(service) -> list:
    """The :class:`DeclarativeScheduler` instances behind a service
    (the shards of a sharded service, else the one scheduler)."""
    return list(getattr(service.scheduler, "shards", [service.scheduler]))


@dataclass
class Readers:
    """The long-running reader transactions of ``deep-history``."""

    tas: list[int] = field(default_factory=list)
    attrs: list[RequestAttributes] = field(default_factory=list)
    next_intrata: int = 0


def grant_directly(service, requests: list[Request], max_steps: int) -> None:
    """Submit ``requests`` straight to the service's scheduler and step
    it until every one is granted.  Set-up uses this instead of the
    serving loop, whose trigger interval would make set-up time mostly
    pacing waits."""
    scheduler = service.scheduler
    now = service.clock()
    for request in requests:
        scheduler.submit(request, now)
    waiting = {request.id for request in requests}
    for __ in range(max_steps):
        waiting.difference_update(
            request.id for request in scheduler.step(service.clock()).qualified
        )
        if not waiting:
            return
    raise BenchmarkError(f"set-up requests {sorted(waiting)} not granted")


def load_readers(service, workload: Workload) -> Readers:
    """Grant every reader its read locks.  The ``ss2pl`` program-order
    gate grants one statement per transaction per step, so the readers
    take one step per read."""
    readers = Readers()
    for index in range(workload.readers):
        readers.tas.append(service.next_ta())
        readers.attrs.append(RequestAttributes(client_id=READER_CLIENT_BASE + index))
    base = workload.reader_objects_start
    for intrata in range(workload.reads_per_reader):
        grant_directly(
            service,
            [
                Request(
                    id=service.next_request_id(),
                    ta=ta,
                    intrata=intrata,
                    operation=Operation.READ,
                    obj=base + index * workload.reads_per_reader + intrata,
                    attrs=readers.attrs[index],
                )
                for index, ta in enumerate(readers.tas)
            ],
            max_steps=1,
        )
    readers.next_intrata = workload.reads_per_reader
    return readers


async def commit_readers(service, readers: Readers) -> None:
    """End the readers through the service, like any client commit."""
    tickets = []
    for index, ta in enumerate(readers.tas):
        request = Request(
            id=service.next_request_id(),
            ta=ta,
            intrata=readers.next_intrata,
            operation=Operation.COMMIT,
            obj=NO_OBJECT,
            attrs=readers.attrs[index],
        )
        tickets.append(await service.submit(request))
    for ticket in tickets:
        await service.await_grant(ticket)
        service.release(ticket)


def prime(service, workload: Workload) -> None:
    """One read-only transaction touching one object per shard, outside
    everything the traffic touches: its first step lowers every
    shard's plan."""
    first = workload.reader_objects_start + workload.readers * workload.reads_per_reader
    objects = [first]
    partitioner = getattr(service.scheduler, "partitioner", None)
    if partitioner is not None:
        owners: dict[int, int] = {}
        obj = first
        while len(owners) < partitioner.shards:
            owners.setdefault(partitioner.shard_of(obj), obj)
            obj += 1
        objects = sorted(owners.values())
    ta = service.next_ta()
    attrs = RequestAttributes(client_id=READER_CLIENT_BASE - 1)
    requests = [
        Request(service.next_request_id(), ta, intrata, Operation.READ, obj, attrs)
        for intrata, obj in enumerate(objects)
    ]
    requests.append(
        Request(
            service.next_request_id(), ta, len(objects), Operation.COMMIT, NO_OBJECT, attrs
        )
    )
    grant_directly(service, requests, max_steps=4 * len(requests))


async def set_up(workload: Workload, check_invariants: bool = False):
    """Service construction up to the first measured request.

    Returns ``(service, readers)``.  Included: protocol build, the
    readers' load, and the first step's plan lowering.
    """
    service = open_service(workload, check_invariants)
    readers = load_readers(service, workload)
    prime(service, workload)
    await service.start()
    return service, readers


async def tear_down(service) -> None:
    """Stop a service and drop its maintained plans from the global
    plan cache, so a discarded set-up holds no memory."""
    await service.stop()
    for scheduler in schedulers_of(service):
        scheduler.protocol.reset()


@dataclass
class Window:
    """Counters snapshotted at the edges of the measured window."""

    wall: float
    #: The loop's :class:`HostClock`.
    busy: float
    #: Thread CPU time, probe excluded.
    cpu: float
    idle: float


class ClosedLoop:
    """``SESSIONS`` closed-loop clients replaying seeded profiles.

    A transaction the scheduler aborts (a deadlock broken by the
    recovery timeout) is retried the way ``RecoveryPolicy`` prescribes
    for clients: after a backed-off delay, at most ``max_retries``
    times, then abandoned.
    """

    def __init__(
        self, service, profiles, selector: IdleSelector, probing: bool = False
    ) -> None:
        self.service = service
        self.profiles = profiles
        self.selector = selector
        self.clock = HostClock(selector)
        #: Run the probe task beside the clients.
        self.probing = probing
        self.recovery = service.scheduler.recovery
        self.stopping = False
        #: Transactions started, committed, and abandoned after retries.
        self.transactions = 0
        self.committed = 0
        self.abandoned = 0
        #: Attempts the scheduler aborted (each retried or abandoned).
        self.aborted_attempts = 0
        #: Per granted request: client submit time and resolve time, on
        #: ``self.clock``.  Flat arrays of doubles, so the samples add
        #: little to peak RSS.
        self.submit_at = array("d")
        self.resolve_at = array("d")
        #: Per committed transaction: first submit and commit resolve.
        self.txn_start = array("d")
        self.txn_end = array("d")
        self.error: Optional[BaseException] = None
        self.stuck_clients = 0
        #: Peak resident memory (MB) when ``RSS_AT_GRANTS`` had resolved.
        self.rss_mb: Optional[float] = None

    def snapshot(self) -> Window:
        return Window(
            clock(),
            self.clock.now(),
            time.thread_time() - self.clock.probe_s,
            self.selector.idle,
        )

    def _granted(self, submitted_at: float, resolved_at: float) -> None:
        self.submit_at.append(submitted_at)
        self.resolve_at.append(resolved_at)
        if len(self.resolve_at) == RSS_AT_GRANTS:
            self.rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def _resolved(self, submitted_at: float, future: asyncio.Future) -> None:
        if future.cancelled() or future.exception() is not None:
            return
        self._granted(submitted_at, self.clock.now())

    def _committed(
        self, started_at: float, submitted_at: float, future: asyncio.Future
    ) -> None:
        if future.cancelled() or future.exception() is not None:
            return
        resolved_at = self.clock.now()
        self._granted(submitted_at, resolved_at)
        self.txn_start.append(started_at)
        self.txn_end.append(resolved_at)

    async def _submit(self, session, code: str, obj: int, on_done: Callable):
        submitted_at = self.clock.now()
        ticket = await session.request(code, obj)
        ticket.future.add_done_callback(partial(on_done, submitted_at))
        return ticket

    async def _collect(self, ticket) -> bool:
        try:
            await self.service.await_grant(ticket)
        except TicketRejected:
            return False
        self.service.release(ticket)
        return True

    async def _attempt(self, session, profile, started_at: float) -> bool:
        """One attempt at a transaction; True when it committed.
        ``started_at``, when the transaction's first attempt began, is
        the start of its latency."""
        session.begin()
        window: deque = deque()
        aborted = False
        for statement in profile:
            while window and len(window) >= PIPELINE:
                aborted = not await self._collect(window.popleft()) or aborted
            if aborted:
                break
            ticket = await self._submit(
                session, statement.operation.value, statement.obj, self._resolved
            )
            window.append(ticket)
        while window:
            aborted = not await self._collect(window.popleft()) or aborted
        if aborted:
            return False
        commit = await self._submit(
            session, "c", NO_OBJECT, partial(self._committed, started_at)
        )
        return await self._collect(commit)

    async def _transaction(self, session, profile) -> None:
        self.transactions += 1
        started_at = self.clock.now()
        for attempt in range(self.recovery.max_retries + 1):
            if attempt:
                await asyncio.sleep(
                    self.recovery.restart_delay_for(attempt, self.recovery.retry_delay)
                )
            if await self._attempt(session, profile, started_at):
                self.committed += 1
                return
            self.aborted_attempts += 1
        self.abandoned += 1

    async def _session(self, index: int) -> None:
        session = await self.service.pool.acquire()
        position = index
        try:
            while not self.stopping:
                await self._transaction(
                    session, self.profiles[position % len(self.profiles)]
                )
                position += SESSIONS
        except ServiceClosed as error:
            self.error = error
        finally:
            await session.close()

    async def _probe(self) -> None:
        while True:
            await asyncio.sleep(PROBE_EVERY_S)
            self.clock.probe()

    async def run(
        self,
        warmup: float,
        seconds: float,
        chunks: int = 1,
        on_start: Optional[Callable[[], None]] = None,
        on_end: Optional[Callable[[], None]] = None,
    ) -> list[Window]:
        """Run the clients for ``warmup`` + ``seconds``; returns the
        ``chunks + 1`` edges of the measured window's equal chunks.  The
        clients finish their open transactions after the window.
        ``on_start``/``on_end`` run at the window's edges."""
        clients = [
            asyncio.create_task(self._session(index)) for index in range(SESSIONS)
        ]
        probe = asyncio.create_task(self._probe()) if self.probing else None
        try:
            await asyncio.sleep(warmup)
            if on_start is not None:
                on_start()
            edges = [self.snapshot()]
            for chunk in range(1, chunks + 1):
                due = edges[0].wall + seconds * chunk / chunks
                await asyncio.sleep(max(due - clock(), 0.0))
                edges.append(self.snapshot())
            if on_end is not None:
                on_end()
        finally:
            self.stopping = True
            if probe is not None:
                probe.cancel()
                await asyncio.gather(probe, return_exceptions=True)
            __, stuck = await asyncio.wait(clients, timeout=DRAIN_S)
            for task in stuck:
                task.cancel()
            outcomes = await asyncio.gather(*clients, return_exceptions=True)
        self.stuck_clients = len(stuck)
        for outcome in outcomes:
            if isinstance(outcome, Exception):
                raise outcome
        return edges


def check_accounting(stats: dict, loop: ClosedLoop, loop_error=None) -> None:
    """Lifecycle gates of every run, on ``service.stats()`` read before
    the service stops: nothing lost, nothing unresolved, every
    transaction committed or counted as aborted."""
    problems = []
    if loop.error is not None:
        problems.append(f"service closed under the clients: {loop.error!r}")
    if loop_error is not None:
        problems.append(f"pacing loop failed: {loop_error!r}")
    if loop.stuck_clients:
        problems.append(
            f"{loop.stuck_clients} clients still awaited a grant {DRAIN_S:g}s "
            "after the window"
        )
    rejected = sum(stats["rejected"].values())
    if stats["submitted"] != stats["granted"] + rejected:
        problems.append(
            f"submitted {stats['submitted']} != granted {stats['granted']}"
            f" + rejected {rejected}"
        )
    if stats["unresolved"]:
        problems.append(f"{stats['unresolved']} tickets never resolved")
    if loop.transactions != loop.committed + loop.abandoned + loop.stuck_clients:
        problems.append(
            f"{loop.transactions} transactions started, {loop.committed} "
            f"committed + {loop.abandoned} abandoned"
        )
    if problems:
        raise BenchmarkError("; ".join(problems))
