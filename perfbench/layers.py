"""Which entry points the traced run wraps, and the per-layer metrics
derived from the spans they record.

Layer names follow the program's packages: ``cachesim``, ``hashing``,
``core``, ``sram``, ``resilience``, ``runtime`` and ``fabric``.
"""

from __future__ import annotations

import importlib
import statistics

from spans import PHASE, Span, Target, first_len, self_times, uncovered_share

#: The benchmark's timed phases, in cycle order.
PHASES = ("setup", "build", "query_floor", "serve", "idle_query", "recover", "fabric")


#: The wrapped entry points: (module, name as the program calls it, layer,
#: item count from the positional arguments).
ENTRY_POINTS = (
    ("repro.cachesim.cache", "FlowCache.process_into", "cachesim", first_len),
    ("repro.cachesim.cache", "FlowCache.dump_into", "cachesim", None),
    ("repro.cachesim.runs", "replay_runs_into", "cachesim", lambda args: len(args[1])),
    ("repro.hashing.family", "BankedIndexMemo.indices_for", "hashing", first_len),
    ("repro.hashing.family", "BankedIndexer.indices", "hashing", first_len),
    ("repro.core.split", "split_batch", "core", first_len),
    ("repro.core.csm", "csm_estimate", "core", first_len),
    ("repro.core.mlm", "mlm_estimate", "core", first_len),
    ("repro.sram.counterarray", "BankedCounterArray.add_at", "sram", first_len),
    ("repro.sram.counterarray", "BankedCounterArray.gather", "sram", first_len),
    ("repro.resilience.checkpoint", "Checkpoint.load", "resilience", None),
    ("repro.resilience.checkpoint", "Checkpoint.restore", "resilience", None),
    ("repro.runtime.partitioner", "StreamPartitioner.partition", "runtime", first_len),
    ("repro.runtime.supervisor", "ShardSupervisor.send_chunk", "runtime",
     lambda args: len(args[1])),
    ("repro.runtime.client", "StreamingRuntime.ingest", "runtime", first_len),
    ("repro.runtime.client", "StreamingRuntime.drain", "runtime", None),
    ("repro.runtime.client", "StreamingRuntime.query", "runtime", first_len),
    ("repro.fabric.fabric", "Fabric.ingest_stream", "fabric", first_len),
    ("repro.fabric.fabric", "Fabric.drain", "fabric", None),
    ("repro.fabric.fabric", "Fabric.query", "fabric", first_len),
)


def targets() -> tuple[list[Target], list[str]]:
    """The entry points that exist in the program, and the names of those
    that do not (a later change may remove one; its metrics then read 0)."""
    found, missing = [], []
    for module_name, name, layer, count in ENTRY_POINTS:
        owner_name, _, attr = name.rpartition(".")
        try:
            module = importlib.import_module(module_name)
            owner = getattr(module, owner_name) if owner_name else module_name
            getattr(owner if owner_name else module, attr)
        except (ImportError, AttributeError):
            missing.append(name)
            continue
        found.append(Target(owner, attr, name, layer, count))
    return found, missing


class SpanView:
    """Spans of one traced cycle, indexed by the phase each falls in."""

    def __init__(self, spans: list[Span]) -> None:
        self.spans = spans
        self.self_s = self_times(spans)
        self.phase_of: list[str] = []
        self.phase_spans: dict[str, list[int]] = {}
        for i, span in enumerate(spans):
            if span.layer == PHASE and span.parent < 0:
                self.phase_spans.setdefault(span.name, []).append(i)
                self.phase_of.append(span.name)
            elif span.parent < 0:
                self.phase_of.append("")
            else:
                self.phase_of.append(self.phase_of[span.parent])

    def _select(self, phase: str, name: str | None = None, layer: str | None = None):
        for i, span in enumerate(self.spans):
            if (
                self.phase_of[i] == phase
                and span.layer != PHASE
                and (name is None or span.name == name)
                and (layer is None or span.layer == layer)
            ):
                yield i, span

    def self_time(self, phase: str, *, name: str | None = None, layer: str | None = None):
        return sum(self.self_s[i] for i, _ in self._select(phase, name, layer))

    def total(self, phase: str, name: str) -> float:
        return sum(span.duration for _, span in self._select(phase, name))

    def calls(self, phase: str, name: str) -> int:
        return sum(1 for _ in self._select(phase, name))

    def items(self, phase: str, name: str) -> int:
        return sum(span.count for _, span in self._select(phase, name))

    def median_call(self, phase: str, names: tuple[str, ...]) -> float:
        durations = [
            span.duration for _, span in self._select(phase) if span.name in names
        ]
        return statistics.median(durations) if durations else 0.0

    def nested_under(self, phase: str, parents: tuple[str, ...]) -> float:
        """Time in other layers' spans called directly from ``parents``."""
        return sum(
            span.duration
            for _, span in self._select(phase)
            if span.parent >= 0
            and self.spans[span.parent].name in parents
            and span.layer != self.spans[span.parent].layer
        )

    def uncovered(self, phase: str) -> float:
        """Share of the phase's wall time no layer span covers (0 if the
        workload has no such phase)."""
        indices = self.phase_spans.get(phase, [])
        total = sum(self.spans[i].duration for i in indices)
        if total <= 0:
            return 0.0
        bare = sum(uncovered_share(self.spans, i) * self.spans[i].duration for i in indices)
        return bare / total


def layer_metrics(view: SpanView, facts: dict) -> dict[str, float]:
    """Per-layer metrics of one traced cycle.

    ``facts`` carries what the spans cannot see: the offline build's
    cache statistics, the supervisor registry's worker-side counters,
    the fabric ledger and the run descriptors.
    """
    processed = view.items("build", "FlowCache.process_into")
    coalesced = view.items("build", "replay_runs_into")
    return {
        "cachesim.self_s": view.self_time("build", layer="cachesim"),
        "cachesim.packets": facts["cache_accesses"],
        "cachesim.evictions": facts["cache_evictions"],
        "cachesim.hit_ratio": facts["cache_hits"] / max(facts["cache_accesses"], 1),
        "cachesim.coalesced_share": coalesced / max(processed, 1),
        "cachesim.packets_per_run": facts["packets_per_run"],
        "hashing.index_s": view.self_time("build", layer="hashing"),
        "hashing.flows_indexed": view.items("build", "BankedIndexer.indices"),
        "core.split_s": view.self_time("build", name="split_batch"),
        "core.drain_chunks": view.calls("build", "split_batch"),
        "core.estimate_s": view.median_call("query_floor", ("csm_estimate", "mlm_estimate")),
        "sram.scatter_add_s": view.self_time("build", name="BankedCounterArray.add_at"),
        "sram.gather_s": view.median_call("query_floor", ("BankedCounterArray.gather",)),
        "resilience.ckpt_writes": facts["checkpoint.writes"],
        "resilience.ckpt_stall_s": facts["checkpoint.ingest_stall_us"] / 1e6,
        "resilience.ckpt_mib_written": facts["checkpoint.bytes"] / 2**20,
        "resilience.restore_s": view.self_time("recover", layer="resilience"),
        "runtime.partition_s": view.total("serve", "StreamPartitioner.partition"),
        "runtime.send_wait_s": view.total("serve", "ShardSupervisor.send_chunk"),
        "runtime.drain_s": view.total("serve", "StreamingRuntime.drain"),
        "runtime.chunks_sent": facts["runtime.chunks_sent"],
        "runtime.queries": view.calls("serve", "StreamingRuntime.query")
        + view.calls("idle_query", "StreamingRuntime.query"),
        "runtime.query_s": view.total("serve", "StreamingRuntime.query")
        + view.total("idle_query", "StreamingRuntime.query"),
        "runtime.query_degraded": facts["runtime.query.degraded"],
        "runtime.restarts": facts["runtime.restarts"],
        "runtime.shed_chunks": facts["runtime.backpressure.shed_chunks"],
        "runtime.workers": facts["workers"],
        "runtime.usable_cores": facts["usable_cores"],
        "fabric.self_s": view.self_time("fabric", layer="fabric"),
        "fabric.vantage_build_s": view.nested_under(
            "fabric", ("Fabric.ingest_stream", "Fabric.drain")
        ),
        "fabric.observations": facts["fabric_observations"],
        **{f"trace.uncovered_share.{p}": view.uncovered(p) for p in PHASES},
        "trace.spans": len(view.spans),
    }
