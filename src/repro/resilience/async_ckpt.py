"""Asynchronous + incremental checkpointing.

PRs 3–6 made checkpoints crash-consistent and cheap-ish (zlib level 1),
but the worker still paid the whole encode+compress+fsync bill inside
its ingest loop — a periodic full stop that grows with counter-bank
size. This module splits the work the way training-stack checkpointers
do:

* **Snapshot** (synchronous, fast): ``Checkpoint.capture`` already
  copies every array out of the live scheme — a memcpy-shaped cost.
  That is the *only* part the ingest loop waits for.
* **Write** (asynchronous): digest, compress, fsync, and atomic-rename
  happen on a :class:`CheckpointWriter` background thread. One write in
  flight at a time; the next capture back-pressures until the previous
  write lands, so a slow disk degrades smoothly to today's synchronous
  behavior instead of queueing unbounded copies of the SRAM.
* **Delta** (incremental): :class:`~repro.sram.counterarray.
  BankedCounterArray` tracks dirty 256-counter stripes on its update
  paths; when few stripes changed since the previous checkpoint, only
  those stripes are written (format v3: base digest + changed-stripe
  payloads). :func:`load_checkpoint` composes base + deltas back to the
  bit-identical full state, verifying every link's digest. Dense update
  patterns fall back to full checkpoints automatically, and chains are
  capped so recovery cost stays bounded.

Crash safety is inherited unchanged: writes go to ``.tmp_``-prefixed
siblings and are published with
:func:`~repro.resilience.atomic.atomic_publish`, so a SIGKILL mid-write
leaves exactly the torn-``.tmp_`` leftover today's sweeps already
collect, and a delta whose base was never published fails its digest
check and is skipped like any other unreadable checkpoint.

The digest reported for a delta checkpoint is the digest of the
*composed full state* — identical to what a full checkpoint of the same
moment would report — so digest-based contracts (supervisor messages,
``--verify-offline``) are checkpoint-mode-invariant.
"""

from __future__ import annotations

import json
import os
import threading
import time
import zipfile
from dataclasses import dataclass, field
from multiprocessing.connection import wait as _connection_wait
from pathlib import Path
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.errors import ConfigError, TraceFormatError
from repro.resilience.atomic import atomic_publish
from repro.resilience.checkpoint import _ARRAY_MEMBERS, Checkpoint, write_npz

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.caesar import Caesar

#: Incremental checkpoint format: base digest + changed-stripe payloads.
DELTA_FORMAT_VERSION = 3

#: Recovery refuses to follow longer chains (corrupt prev_name loops).
MAX_CHAIN_DEPTH = 64

#: Checkpoint modes a runtime/worker accepts.
CHECKPOINT_MODES = ("sync", "async", "delta")


# -- delta format -------------------------------------------------------------


def save_delta(
    ckpt: Checkpoint,
    path: str | Path,
    *,
    prev_name: str,
    prev_digest: str,
    stripe_ids: np.ndarray,
    stripe_size: int,
    level: int = 1,
    digest: str | None = None,
) -> Path:
    """Write ``ckpt`` as a v3 delta over the checkpoint file ``prev_name``.

    Every member except ``counter_values`` is stored whole (cache, memo,
    RNG, stats — all small); the counter banks, which dominate the
    bytes, are stored as ``(stripe_ids, concatenated stripe payloads)``.
    The stored ``digest`` is the composed-full-state digest, so loaders
    and digest-based contracts cannot tell a delta from a full
    checkpoint once recovered.
    """
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(path.suffix + ".npz")
    values = ckpt.arrays["counter_values"]
    n = len(values)
    stripe_ids = np.asarray(stripe_ids, dtype=np.int64)
    starts = stripe_ids * stripe_size
    pieces = [values[a : min(a + stripe_size, n)] for a in starts.tolist()]
    payload = (
        np.concatenate(pieces) if pieces else np.empty(0, dtype=values.dtype)
    )
    members = {
        name: ckpt.arrays[name]
        for name in _ARRAY_MEMBERS
        if name != "counter_values"
    }
    members["delta_stripe_ids"] = stripe_ids
    members["delta_payload"] = payload
    members["delta_json"] = np.array(
        json.dumps(
            {
                "format_version": DELTA_FORMAT_VERSION,
                "prev_name": Path(prev_name).name,
                "prev_digest": prev_digest,
                "stripe_size": int(stripe_size),
                "num_counters": n,
            },
            sort_keys=True,
        )
    )
    members["config_json"] = np.array(ckpt.config_json)
    members["state_json"] = np.array(ckpt.state_json)
    members["digest"] = np.array(digest if digest is not None else ckpt.digest)
    write_npz(path, members, level=level)
    return path


def load_checkpoint(path: str | Path) -> Checkpoint:
    """Load a checkpoint file, full or delta, verifying the whole chain.

    A delta recursively loads its base (resolved as a sibling file),
    verifies the base's digest matches the recorded ``prev_digest``,
    overlays the changed stripes, and verifies the composed state
    against the stored full digest. Any damage anywhere in the chain —
    a missing base, a torn member, a digest mismatch — raises
    :class:`TraceFormatError`, so callers' fall-back-to-older-checkpoint
    loops treat broken chains exactly like torn full checkpoints.
    """
    return _load_chain(Path(path), 0)


def _load_chain(path: Path, depth: int) -> Checkpoint:
    if depth > MAX_CHAIN_DEPTH:
        raise TraceFormatError(
            f"checkpoint delta chain at {path} exceeds {MAX_CHAIN_DEPTH} links"
        )
    try:
        with np.load(path, allow_pickle=False) as data:
            if "delta_json" not in data.files:
                is_delta = False
            else:
                is_delta = True
                arrays = {
                    name: data[name]
                    for name in _ARRAY_MEMBERS
                    if name != "counter_values"
                }
                stripe_ids = data["delta_stripe_ids"]
                payload = data["delta_payload"]
                delta_meta = json.loads(str(data["delta_json"]))
                config_json = str(data["config_json"])
                state_json = str(data["state_json"])
                stored_digest = str(data["digest"])
    except (KeyError, OSError, ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise TraceFormatError(f"cannot read checkpoint {path}: {exc}") from exc
    if not is_delta:
        return Checkpoint.load(path)
    if delta_meta.get("format_version") != DELTA_FORMAT_VERSION:
        raise TraceFormatError(
            f"delta checkpoint format {delta_meta.get('format_version')!r} "
            f"is not version {DELTA_FORMAT_VERSION}"
        )
    base = _load_chain(path.parent / Path(delta_meta["prev_name"]).name, depth + 1)
    if base.digest != delta_meta["prev_digest"]:
        raise TraceFormatError(
            f"delta checkpoint {path} does not chain to its base "
            f"{delta_meta['prev_name']} (base digest mismatch)"
        )
    values = np.array(base.arrays["counter_values"], copy=True)
    n = int(delta_meta["num_counters"])
    if len(values) != n:
        raise TraceFormatError(
            f"delta checkpoint {path} describes {n} counters, "
            f"base holds {len(values)}"
        )
    stripe_size = int(delta_meta["stripe_size"])
    ids = np.asarray(stripe_ids, dtype=np.int64)
    if len(ids) and (
        ids.min() < 0 or ids.max() * stripe_size >= n or stripe_size < 1
    ):
        raise TraceFormatError(f"delta checkpoint {path} has stripe ids out of range")
    cursor = 0
    for s in ids.tolist():
        a = s * stripe_size
        b = min(a + stripe_size, n)
        values[a:b] = payload[cursor : cursor + (b - a)]
        cursor += b - a
    if cursor != len(payload):
        raise TraceFormatError(
            f"delta checkpoint {path} payload length mismatch "
            f"({len(payload)} stored, {cursor} consumed)"
        )
    arrays = dict(arrays)
    arrays["counter_values"] = values
    ckpt = Checkpoint(arrays, config_json, state_json)
    if ckpt.digest != stored_digest:
        raise TraceFormatError(
            f"delta checkpoint {path} failed its integrity check "
            "(composed digest mismatch)"
        )
    return ckpt


# -- the background writer ----------------------------------------------------


@dataclass
class CheckpointDone:
    """Completion record of one background checkpoint write."""

    seq: int
    digest: str
    path: Path
    kind: str  # "full" | "delta"
    info: dict = field(default_factory=dict)


class CheckpointWriter:
    """One background thread that runs checkpoint write jobs.

    Single producer (the worker main thread), one job in flight at a
    time. :meth:`submit` requires the writer to be idle — callers
    back-pressure through :meth:`wait` first, which is where the ingest
    stall (if any) is actually paid and measured. A job that raises
    stores its exception, re-raised to the producer at the next
    :meth:`poll`/:meth:`wait` — a failed durability write must kill the
    worker loudly, not rot silently.

    The writer is *waitable*: :meth:`fileno` is a pipe that turns
    readable whenever a write finishes, so a caller can block on the
    writer and on its own pipes (the worker's control plane) in one
    ``multiprocessing.connection.wait``.
    """

    def __init__(self, name: str = "ckpt-writer") -> None:
        self._lock = threading.Lock()
        self._job: Callable[[], CheckpointDone] | None = None
        self._results: list[CheckpointDone] = []
        self._error: BaseException | None = None
        self._has_job = threading.Event()
        self._idle = threading.Event()
        self._idle.set()
        self._closed = False
        self._wake_r, self._wake_w = os.pipe()
        os.set_blocking(self._wake_r, False)
        os.set_blocking(self._wake_w, False)
        self._thread = threading.Thread(target=self._run, name=name, daemon=True)
        self._thread.start()

    def fileno(self) -> int:
        """Readable once a write finished since the last :meth:`wait`."""
        return self._wake_r

    def _set_idle(self) -> None:
        # Idle first, then the wake byte: a waiter that clears the pipe
        # and re-checks idle can never miss a completion.
        self._idle.set()
        try:
            os.write(self._wake_w, b"\x01")
        except BlockingIOError:  # full pipe: already readable
            pass

    def _run(self) -> None:
        while True:
            self._has_job.wait()
            with self._lock:
                job = self._job
                self._job = None
                self._has_job.clear()
                closed = self._closed
            if job is None:
                if closed:
                    self._set_idle()
                    return
                continue
            try:
                result = job()
            except BaseException as exc:  # noqa: BLE001 - re-raised to producer
                with self._lock:
                    self._error = exc
            else:
                with self._lock:
                    self._results.append(result)
            self._set_idle()

    @property
    def idle(self) -> bool:
        return self._idle.is_set()

    def submit(self, job: Callable[[], CheckpointDone]) -> None:
        if not self._idle.is_set():
            raise RuntimeError("previous checkpoint write still in flight")
        with self._lock:
            if self._closed:
                raise RuntimeError("checkpoint writer is closed")
            self._idle.clear()
            self._job = job
            self._has_job.set()

    def poll(self) -> list[CheckpointDone]:
        """Collect finished writes without blocking; re-raise a failure."""
        with self._lock:
            results, self._results = self._results, []
            error, self._error = self._error, None
        if error is not None:
            raise error
        return results

    def wait(
        self,
        tick: Callable[[], None] | None = None,
        poll_interval: float = 0.05,
        block: "Callable[[list, float], object]" = _connection_wait,
    ) -> list[CheckpointDone]:
        """Block until idle (calling ``tick`` while waiting), then poll.

        ``tick`` lets the worker keep heartbeating through a long wait —
        a back-pressured write is the one legitimately silent span the
        watchdog must not mistake for a hang. ``block(waitables,
        timeout)`` is the blocking primitive, called with ``[self]``; the
        default is ``multiprocessing.connection.wait``, and the worker
        passes its safe-point wait, which also wakes on (and answers)
        control-plane queries.
        """
        while not self._idle.is_set():
            block([self], poll_interval)
            self._clear_wake()
            if tick is not None:
                tick()
        return self.poll()

    def _clear_wake(self) -> None:
        try:
            while os.read(self._wake_r, 4096):
                pass
        except BlockingIOError:
            pass

    def close(
        self,
        tick: Callable[[], None] | None = None,
        block: "Callable[[list, float], object]" = _connection_wait,
    ) -> list[CheckpointDone]:
        """Finish the in-flight write (if any), stop the thread, poll."""
        results = self.wait(tick, block=block)
        with self._lock:
            if self._closed:
                return results
            self._closed = True
            self._has_job.set()
        self._thread.join(timeout=30)
        os.close(self._wake_r)
        os.close(self._wake_w)
        return results + self.poll()


# -- per-shard orchestration --------------------------------------------------


class ShardCheckpointer:
    """Drives async (and optionally incremental) checkpoints for one shard.

    The worker calls :meth:`wait_idle` (back-pressure + completion
    collection), then :meth:`capture` inside its compute slot — the
    synchronous cost is ``Checkpoint.capture`` plus, in delta mode, a
    dirty-bitmap read. Everything else runs on the writer thread.

    Delta policy: a capture is written incrementally only when the mode
    is ``delta``, a previous checkpoint exists *in this incarnation*
    (the first checkpoint after any boot is always full, so recovery
    never chains into a pre-crash incarnation's bookkeeping), the chain
    since the last full is shorter than ``max_chain``, and the dirty
    fraction is at most ``full_above``. Dense workloads therefore
    degrade to plain async-full checkpoints — reported honestly via
    ``delta_fraction`` — instead of writing deltas bigger than fulls.
    """

    def __init__(
        self,
        mode: str = "async",
        *,
        level: int = 1,
        slow_write: float = 0.0,
        full_above: float = 0.5,
        max_chain: int = 8,
    ) -> None:
        if mode not in ("async", "delta"):
            raise ConfigError(f"checkpoint mode must be async or delta, got {mode!r}")
        self.mode = mode
        self.level = int(level)
        self.slow_write = float(slow_write)
        self.full_above = float(full_above)
        self.max_chain = int(max_chain)
        self.writer = CheckpointWriter()
        self._prev_name: str | None = None
        self._prev_digest: str | None = None
        self._chain = 0

    def _absorb(self, done: list[CheckpointDone]) -> list[CheckpointDone]:
        for d in done:
            self._prev_name = d.path.name
            self._prev_digest = d.digest
            self._chain = self._chain + 1 if d.kind == "delta" else 0
        return done

    def poll(self) -> list[CheckpointDone]:
        """Non-blocking completion collection (worker loop top)."""
        return self._absorb(self.writer.poll())

    def wait_idle(
        self, block: "Callable[[list, float], object]" = _connection_wait
    ) -> tuple[list[CheckpointDone], float]:
        """Block until no write is in flight (``block`` as in
        :meth:`CheckpointWriter.wait`).

        Returns ``(completions, stall_seconds)`` — the stall is the
        back-pressure actually charged to the ingest path, attributed to
        the write that caused it (the first completion's info).
        """
        t0 = time.perf_counter()
        done = self._absorb(self.writer.wait(block=block))
        stall = time.perf_counter() - t0
        if done:
            done[0].info["stall_seconds"] = done[0].info.get("stall_seconds", 0.0) + stall
        return done, stall

    def capture(self, scheme: "Caesar", seq: int, *, full: Path, delta: Path) -> None:
        """Snapshot ``scheme`` now; write it durably in the background.

        The writer must be idle (call :meth:`wait_idle` first). ``full``
        and ``delta`` are the two candidate target paths; which one is
        written is decided here from the dirty fraction and chain state.
        """
        t0 = time.perf_counter()
        ckpt = scheme.checkpoint()
        counters = scheme.counters
        dirty_fraction = counters.dirty_fraction()
        use_delta = (
            self.mode == "delta"
            and self._prev_name is not None
            and self._chain < self.max_chain
            and dirty_fraction <= self.full_above
        )
        stripe_ids = counters.dirty_stripes() if use_delta else None
        if self.mode == "delta":
            # This capture is the new baseline for the next delta
            # decision, whether it lands as a delta or a full.
            counters.clear_dirty()
        snapshot_seconds = time.perf_counter() - t0
        target = delta if use_delta else full
        kind = "delta" if use_delta else "full"
        prev_name, prev_digest = self._prev_name, self._prev_digest
        stripe_size = counters.stripe_size
        level, slow = self.level, self.slow_write

        def job() -> CheckpointDone:
            t1 = time.perf_counter()
            digest = ckpt.digest
            tmp = target.parent / f".tmp_{target.name}"
            if use_delta:
                save_delta(
                    ckpt,
                    tmp,
                    prev_name=prev_name,
                    prev_digest=prev_digest,
                    stripe_ids=stripe_ids,
                    stripe_size=stripe_size,
                    level=level,
                    digest=digest,
                )
            else:
                ckpt.save(tmp, level=level)
            if slow > 0:
                # Injected fault (slow_ckpt_write): stretch the window
                # between the tmp write and publication, so chaos tests
                # can reliably SIGKILL mid-write and exercise the torn-
                # .tmp_ sweep path.
                time.sleep(slow)
            atomic_publish(tmp, target)
            return CheckpointDone(
                seq=seq,
                digest=digest,
                path=target,
                kind=kind,
                info={
                    "kind": kind,
                    "mode": self.mode,
                    "snapshot_seconds": snapshot_seconds,
                    "write_seconds": time.perf_counter() - t1,
                    "bytes": target.stat().st_size,
                    "delta_fraction": dirty_fraction if use_delta else 1.0,
                    "stall_seconds": 0.0,
                },
            )

        self.writer.submit(job)

    def close(
        self, block: "Callable[[list, float], object]" = _connection_wait
    ) -> list[CheckpointDone]:
        """Join the writer, finishing any in-flight write durably."""
        return self._absorb(self.writer.close(block=block))
