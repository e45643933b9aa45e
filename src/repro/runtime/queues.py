"""The bounded-queue transport: pickled chunks over ``mp.Queue``.

This is the runtime's original data plane, refactored to conform to
the :mod:`~repro.runtime.transport` protocol. Each shard gets three
``multiprocessing`` queues — a bounded data inbox (*bounded* is the
point: an unbounded queue turns a slow shard into unbounded
producer-side memory growth), an unbounded control channel, and an
unbounded outbox for worker messages. Every payload is pickled through
a pipe, which is what makes this transport portable and debuggable —
and what the shared-memory ring (:mod:`~repro.runtime.shm`) exists to
avoid on the hot path.

Restart semantics: a process killed mid-``put`` can leave a queue's
pipe unusable, so :meth:`QueueShardChannel.open` builds three fresh
queues per worker incarnation and :meth:`~QueueShardChannel.abandon`
discards the old ones; a blocked send straddling the swap retries
against the replacements on its next stall slice.
"""

from __future__ import annotations

import queue as queue_mod
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

import numpy as np
import numpy.typing as npt

from repro.obs.registry import MetricsRegistry
from repro.runtime.transport import (
    BACKPRESSURE_POLICIES,
    STALL_SLICE_SECONDS,
    ShardChannel,
    Transport,
    WorkerTransport,
    queue_waitable,
    wait_ready,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    import multiprocessing.context
    from multiprocessing.queues import Queue

__all__ = [
    "BACKPRESSURE_POLICIES",
    "DEFAULT_QUEUE_DEPTH",
    "QueueShardChannel",
    "QueueTransport",
    "QueueWorkerTransport",
    "STALL_SLICE_SECONDS",
]

#: Default bound of each shard's inbox (chunks).
DEFAULT_QUEUE_DEPTH = 8


@dataclass
class QueueWorkerTransport(WorkerTransport):
    """Worker end: three plain queues (picklable as ``Process`` args)."""

    inbox: "Queue"
    control: "Queue"
    outbox: "Queue"

    def open(self) -> None:  # queues need no process-local attach
        return None

    def recv_data(self, timeout: float) -> tuple | None:
        # One blocking wait over both readers: a control message wakes
        # the worker as soon as it is readable.
        inbox = queue_waitable(self.inbox)
        if inbox in wait_ready([inbox, self.control_waitable()], timeout):
            try:
                return self.inbox.get_nowait()
            except queue_mod.Empty:  # pragma: no cover - single consumer
                return None
        return None

    def recv_control(self) -> tuple | None:
        try:
            return self.control.get_nowait()
        except queue_mod.Empty:
            return None

    def control_waitable(self) -> object:
        return queue_waitable(self.control)

    def send(self, message: tuple) -> None:
        self.outbox.put(message)

    def close(self) -> None:  # teardown is the supervisor's job
        return None


class QueueShardChannel(ShardChannel):
    """Supervisor end of one shard's queue-based link."""

    def __init__(
        self,
        shard_id: int,
        *,
        queue_depth: int,
        ctx: "multiprocessing.context.BaseContext",
        policy: str = "block",
        registry: MetricsRegistry,
        stall_hook: Callable[[], None] | None = None,
    ) -> None:
        super().__init__(
            shard_id, policy=policy, registry=registry, stall_hook=stall_hook
        )
        self.queue_depth = queue_depth
        self._ctx = ctx
        self._inbox: "Queue | None" = None
        self._control: "Queue | None" = None
        self._outbox: "Queue | None" = None

    # -- lifecycle ----------------------------------------------------------

    def open(self) -> QueueWorkerTransport:
        self.incarnation += 1
        self._inbox = self._ctx.Queue(maxsize=self.queue_depth)
        self._control = self._ctx.Queue()
        self._outbox = self._ctx.Queue()
        return QueueWorkerTransport(self._inbox, self._control, self._outbox)

    def abandon(self) -> None:
        for q in (self._inbox, self._control, self._outbox):
            if q is not None:
                q.close()
                q.cancel_join_thread()
        self._inbox = self._control = self._outbox = None

    def close(self) -> None:
        self.abandon()

    # -- data plane ---------------------------------------------------------

    def _offer_chunk(
        self,
        seq: int,
        packets: npt.NDArray[np.uint64],
        lengths: npt.NDArray[np.int64] | None,
        wait: float,
    ) -> bool:
        try:
            if wait > 0:
                self._inbox.put(("chunk", seq, packets, lengths), timeout=wait)
            else:
                self._inbox.put_nowait(("chunk", seq, packets, lengths))
            return True
        except queue_mod.Full:
            return False

    def _send_marker(self, marker: tuple, timeout: float) -> None:
        # In-band on the inbox so it is ordered after every sent chunk.
        import time

        deadline = time.monotonic() + timeout
        while True:
            try:
                self._inbox.put(marker, timeout=STALL_SLICE_SECONDS)
                return
            except queue_mod.Full:
                self._record_stall(STALL_SLICE_SECONDS, count=False)
                if time.monotonic() > deadline:
                    from repro.errors import IngestError

                    raise IngestError(
                        f"shard {self.shard_id} queue stayed full for {timeout:.0f}s"
                    ) from None

    def send_drain(self, timeout: float = 60.0) -> None:
        self._send_marker(("drain",), timeout)

    def send_seal(self, timeout: float = 60.0) -> None:
        self._send_marker(("seal",), timeout)

    # -- control plane ------------------------------------------------------

    def send_control(self, message: tuple) -> None:
        self._control.put(message)

    # -- message plane ------------------------------------------------------

    def poll(self) -> list[tuple]:
        out: list[tuple] = []
        if self._outbox is None:
            return out
        while True:
            try:
                out.append(self._outbox.get_nowait())
            except (queue_mod.Empty, OSError, ValueError):
                return out

    def recv(self, timeout: float) -> tuple | None:
        try:
            return self._outbox.get(timeout=timeout)
        except queue_mod.Empty:
            return None

    def message_waitable(self) -> object | None:
        return None if self._outbox is None else queue_waitable(self._outbox)

    # -- observability ------------------------------------------------------

    def data_depth(self) -> int | None:
        if self._inbox is None:
            return None
        try:
            return self._inbox.qsize()
        except NotImplementedError:  # pragma: no cover - macOS qsize
            return None

    def data_fill(self) -> float | None:
        depth = self.data_depth()
        return None if depth is None else min(depth / self.queue_depth, 1.0)


@dataclass(frozen=True)
class QueueTransport(Transport):
    """The portable default-depth bounded-queue transport."""

    queue_depth: int = DEFAULT_QUEUE_DEPTH
    name: str = field(default="queue", init=False)

    def __post_init__(self) -> None:
        if self.queue_depth < 1:
            from repro.errors import IngestError

            raise IngestError(
                f"queue_depth must be >= 1, got {self.queue_depth}"
            )

    def channel(
        self,
        shard_id: int,
        *,
        ctx: "multiprocessing.context.BaseContext",
        policy: str,
        registry: MetricsRegistry,
        stall_hook: Callable[[], None] | None = None,
    ) -> QueueShardChannel:
        return QueueShardChannel(
            shard_id,
            queue_depth=self.queue_depth,
            ctx=ctx,
            policy=policy,
            registry=registry,
            stall_hook=stall_hook,
        )
