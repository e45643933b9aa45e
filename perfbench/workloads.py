"""Seeded workload generators for the benchmark.

Every workload is a pure function of its seed: the same seed gives the
same packets, ground truth, chunking and query batches. The program
under test only ever sees the generated arrays.

- ``shuffled``: the paper-Zipf trace (mean flow size 27.32) in a global
  random interleave, so runs average about one packet and the run
  kernel declines.
- ``bursty``: the same Zipf law with burst-32 arrival, pushed in the
  ``repro serve`` chunk size with one live query after every chunk.
- ``flood``: nearly every packet a distinct one-packet flow over a small
  Zipf background, so every packet misses the cache and per-flow state
  grows with the input.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cachesim.runs import count_runs
from repro.cli import build_parser
from repro.hashing.flowid import unique_flow_ids
from repro.runtime.partitioner import DEFAULT_CHUNK_PACKETS
from repro.traffic.distributions import calibrate_zipf_to_mean
from repro.traffic.flows import FlowSet
from repro.traffic.packets import bursty_stream, uniform_stream
from repro.traffic.trace import PAPER_MEAN_FLOW_SIZE, PAPER_NUM_PACKETS, default_paper_trace

#: Packets per workload. The count is exact and the same for every seed:
#: the CSM estimator de-noises with ``k * n / L``, so a seed-dependent
#: ``n`` would move every mouse estimate and the accuracy metrics with it.
TARGET_PACKETS = 1_000_000
#: ``flood`` is half as long: every packet misses and grows state, so a
#: cycle costs about twice a ``shuffled`` one, and half the packets still
#: give it over ten times the distinct flows.
FLOOD_PACKETS = 500_000
#: Streams are generated this much longer than the target, then cut.
_HEADROOM = 1.25
#: Burst length of the ``bursty`` workload (a TCP-train-sized burst).
BURST_LENGTH = 32
#: Share of ``flood`` packets that are distinct one-packet flows.
FLOOD_SHARE = 0.9
#: Flow IDs per query batch.
QUERY_BATCH = 1024
#: Query batches issued after drain in each cycle of workloads without
#: live queries (three cycles pool the 100 a p90 needs).
IDLE_QUERIES = 34

WORKLOADS = ("shuffled", "bursty", "flood")


@dataclass(frozen=True)
class Workload:
    """One generated input: packets, ground truth and how to feed it."""

    name: str
    seed: int
    packets: np.ndarray  # uint64 flow IDs in arrival order
    flow_ids: np.ndarray  # distinct flows (ground truth keys)
    flow_sizes: np.ndarray  # true packet counts, aligned with flow_ids
    chunk_packets: int
    live_queries: bool  # one query after every chunk (else after drain)
    query_batches: tuple[np.ndarray, ...]

    @property
    def num_packets(self) -> int:
        return len(self.packets)

    @property
    def packets_per_run(self) -> float:
        return self.num_packets / count_runs(self.packets)

    def chunks(self) -> list[np.ndarray]:
        step = self.chunk_packets
        return [self.packets[i : i + step] for i in range(0, self.num_packets, step)]


def serve_chunk_packets() -> int:
    """The ``repro serve`` default chunk size, read from the CLI."""
    args = ["serve", "--trace", "-", "--sram-kb", "1", "--cache-kb", "1"]
    return int(build_parser().parse_args(args).chunk_packets)


def _paper_flows(seed: int, packets: int) -> FlowSet:
    return default_paper_trace(scale=packets / PAPER_NUM_PACKETS, seed=seed).flows


def _query_batches(flow_ids: np.ndarray, count: int, seed: int) -> tuple[np.ndarray, ...]:
    rng = np.random.default_rng(seed ^ 0x9E3779B9)
    return tuple(
        flow_ids[rng.choice(len(flow_ids), size=QUERY_BATCH, replace=False)]
        for _ in range(count)
    )


def _finish(name, seed, stream, target, chunk_packets, live_queries) -> Workload:
    if len(stream) < target:
        raise ValueError(f"{name}: generated {len(stream)} packets, need {target}")
    packets = stream[:target]
    flow_ids, flow_sizes = np.unique(packets, return_counts=True)
    n_chunks = -(-len(packets) // chunk_packets)
    return Workload(
        name=name,
        seed=seed,
        packets=packets,
        flow_ids=flow_ids,
        flow_sizes=flow_sizes.astype(np.int64),
        chunk_packets=chunk_packets,
        live_queries=live_queries,
        query_batches=_query_batches(
            flow_ids, n_chunks if live_queries else IDLE_QUERIES, seed
        ),
    )


def make_workload(name: str, seed: int, packets: int | None = None) -> Workload:
    """Build workload ``name`` from ``seed``: exactly ``packets`` packets
    (default ``TARGET_PACKETS``, ``FLOOD_PACKETS`` for ``flood``), the
    prefix of a longer generated stream, with ground truth recounted."""
    if packets is None:
        packets = FLOOD_PACKETS if name == "flood" else TARGET_PACKETS
    if name == "shuffled":
        flows = _paper_flows(seed, int(packets * _HEADROOM))
        stream = uniform_stream(flows, seed=seed + 1)
        return _finish(name, seed, stream, packets, DEFAULT_CHUNK_PACKETS, False)
    if name == "bursty":
        flows = _paper_flows(seed, int(packets * _HEADROOM))
        stream = bursty_stream(flows, BURST_LENGTH, seed=seed + 1)
        return _finish(name, seed, stream, packets, serve_chunk_packets(), True)
    if name == "flood":
        n_flood = int(packets * FLOOD_SHARE * _HEADROOM)
        background_packets = int(packets * (1 - FLOOD_SHARE) * _HEADROOM)
        # A small paper-shaped Zipf background: the support bound keeps
        # the largest flow at the paper trace's 1.5 % of its packets.
        dist = calibrate_zipf_to_mean(
            PAPER_MEAN_FLOW_SIZE, max(1000, int(background_packets * 0.015))
        )
        n_background = max(1, round(background_packets / PAPER_MEAN_FLOW_SIZE))
        ids = unique_flow_ids(n_background + n_flood, seed=seed)
        rng = np.random.default_rng(seed)
        sizes = np.concatenate(
            [dist.sample(n_background, rng), np.ones(n_flood, dtype=np.int64)]
        )
        flows = FlowSet(ids=ids, sizes=sizes.astype(np.int64))
        stream = uniform_stream(flows, seed=seed + 1)
        return _finish(name, seed, stream, packets, DEFAULT_CHUNK_PACKETS, False)
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
