"""The repository benchmark: one command, every end-to-end metric.

Usage (from the repository root)::

    python3 perfbench/run.py --workload shuffled --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1          # every workload

Each workload is generated from ``--seed`` (see ``workloads.py``) and
driven from this one process on a closed loop: ingest pushes chunks as
fast as the bounded data plane accepts them, and one query client waits
for each reply before sending the next query. The program is exercised
through the public API of ``repro.core``, ``repro.runtime``,
``repro.resilience`` and ``repro.fabric`` in repeated *cycles* of
phases (see ``layers.PHASES``); within a cycle each phase repeats until
it has taken its ``REPEAT_S``, so short phases yield more samples.

Cycles repeat until ``--seconds`` have been measured (at least
``MIN_CYCLES``), and each timing is the median of its samples. With
``--trace 0`` the last stdout line is the end-to-end result; with
``--trace 1`` untraced and traced cycles alternate, and the last line
carries the per-layer metrics of the traced cycles, the tracing
overhead per phase and the share of each phase no layer span covers.

Every run is checked: the drained runtime must equal an in-process
``ShardedCaesar`` twin (estimates and per-shard checkpoint digests),
every fused estimate must be finite, and cycles that run the same
configuration (traced or not) must produce bit-identical outputs. A
failed check prints the result with ``"correct": false`` and exits 1.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import hashlib
import inspect
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
WORK_DIR = ROOT / ".bench_work"
OUT_DIR = ROOT / ".bench_out"

#: Fewest cycles a run measures, however long each takes.
MIN_CYCLES = 3
#: Fewest query round trips a run pools (p90 then has 10 beyond it).
MIN_QUERIES = 100
#: Within a cycle, a phase runs again until its samples add up to this
#: long. The host's speed drifts over seconds, so long phases run once per
#: cycle and the run takes more, shorter cycles: each phase is sampled at
#: more points in time. Short phases repeat for more samples.
REPEAT_S = {"build": 0.5, "setup.runtime": 0.2, "serve": 0.5, "recover": 0.3, "fabric": 0.5}
#: Hash-seed replicas of the sketch. Cycle ``i`` runs replica ``i % REPLICAS``
#: and the accuracy metrics are the mean over the replicas: a binned ARE
#: over one hash draw is set by a handful of mouse/elephant counter
#: collisions, so it moves far more from seed to seed than its mean does.
REPLICAS = 3
#: The fabric topology every workload runs (in-process vantages).
FABRIC_TOPOLOGY = "PATH:3"

#: Supervisor registry counters fed by the workers' reports.
WORKER_COUNTERS = (
    "checkpoint.writes",
    "checkpoint.ingest_stall_us",
    "checkpoint.bytes",
    "runtime.chunks_sent",
    "runtime.query.degraded",
    "runtime.restarts",
    "runtime.backpressure.shed_chunks",
)

END_TO_END = {
    "setup_s": "s",
    "build_pps": "packets/s",
    "serve_pps": "packets/s",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "worker_rss_mib": "MiB",
    "ckpt_mib": "MiB",
    "recover_s": "s",
    "fabric_pps": "packets/s",
    "are_csm": "ratio",
    "ci_cover_gap": "ratio",
    "fused_are": "ratio",
}

#: The three parts of set-up, each timed where the program pays it.
SETUP_PARTS = ("setup.caesar", "setup.runtime", "setup.fabric")


def _exit_on_sigterm(signum: int, frame: object) -> None:
    # Unwind through the finally blocks, which stop the shard workers.
    raise SystemExit(128 + signum)


def _stop_resource_tracker() -> None:
    """Stop multiprocessing's resource tracker and wait until it has ended.

    The runtime's shared-memory rings start the tracker as a separate
    process, which would otherwise outlive the benchmark until it sees
    its pipe close. Called once every runtime is shut down.
    """
    from multiprocessing import resource_tracker

    gc.collect()  # run pending finalizers while the tracker still listens
    resource_tracker._resource_tracker._stop()


def _import_program() -> None:
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no program sources under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH_DIR))


def bench_config():
    """``_bench_runtime``'s geometry: M=2048, y=54, k=3, L=2^20."""
    from repro.core.config import CaesarConfig

    return CaesarConfig(cache_entries=2048, entry_capacity=54, k=3, bank_size=1 << 20)


def replica_config(config, replica: int):
    return replace(config, seed=config.seed + replica)


def runtime_defaults() -> dict:
    """The ``StreamingRuntime`` keyword defaults in force (read, not copied)."""
    from repro.runtime.client import StreamingRuntime

    out = {}
    for name, param in inspect.signature(StreamingRuntime.__init__).parameters.items():
        if param.kind is param.KEYWORD_ONLY and param.default is not param.empty:
            value = param.default
            plain = isinstance(value, (int, float, str, bool, type(None)))
            out[name] = value if plain else repr(value)
    return out


def usable_cores() -> int:
    return len(os.sched_getaffinity(0))


def _digest(*items) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(item.tobytes() if isinstance(item, np.ndarray) else repr(item).encode())
    return h.hexdigest()


def _trim_heap() -> None:
    """Hand the freed heap back to the OS before the runtime forks.

    The workers start as copies of this process, so their ``VmHWM``
    counts every resident page the benchmark holds at the fork,
    including memory it has freed but glibc still keeps (freed counter
    banks, earlier cycles' sketches). Trimming makes the metric measure
    the workers, not the benchmark's allocation history.
    """
    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:
        return
    libc.malloc_trim.argtypes = [ctypes.c_size_t]
    libc.malloc_trim.restype = ctypes.c_int
    libc.malloc_trim(0)


def _vm_hwm_mib(pid: int) -> float:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


@dataclass
class Cycle:
    """What one cycle measured and produced."""

    replica: int
    phase_s: dict[str, list[float]] = field(default_factory=dict)
    query_ms: list[float] = field(default_factory=list)
    worker_rss_mib: float = 0.0
    ckpt_mib: float = 0.0
    accuracy: dict[str, float] = field(default_factory=dict)
    outputs: dict[str, str] = field(default_factory=dict)
    attempted: dict[str, int] = field(default_factory=dict)
    failed: dict[str, int] = field(default_factory=dict)
    facts: dict = field(default_factory=dict)
    checks: dict[str, bool] = field(default_factory=dict)

    def first(self, key: str) -> float:
        """The first sample of a phase (a traced cycle has only that one)."""
        if key == "setup":
            return sum(self.phase_s[part][0] for part in SETUP_PARTS)
        return self.phase_s[key][0] if key in self.phase_s else 0.0


class _Phase:
    """Times one phase sample; also a span when the cycle is traced."""

    def __init__(self, cycle: Cycle, tracer, key: str) -> None:
        self.cycle, self.tracer, self.key = cycle, tracer, key

    def __enter__(self) -> None:
        if self.tracer is not None:
            self.span = self.tracer.open(self.key.split(".")[0], "phase")
        self.t0 = time.perf_counter()

    def __exit__(self, *exc: object) -> None:
        self.cycle.phase_s.setdefault(self.key, []).append(time.perf_counter() - self.t0)
        if self.tracer is not None:
            self.tracer.close(self.span)


def run_cycle(
    wl, config, workers: int, state_dir: Path, cycle: Cycle, *,
    tracer=None, full: bool = False, twin: bool = False, idle: bool = True,
) -> Cycle:
    """One pass of every phase over workload ``wl`` under ``config``.

    Every cycle fingerprints its cheap outputs (offline and idle query
    replies, final checkpoint digests, recovered estimates, fabric
    digests). A ``full`` cycle also scores accuracy and fingerprints the
    estimates of every flow; ``twin`` builds the ``ShardedCaesar`` twin.
    Scoring and the twin run outside the timed phases. A traced cycle
    runs each phase once.
    """
    from repro.analysis.metrics import ci_coverage, evaluate
    from repro.core.caesar import Caesar
    from repro.core.sharded import ShardedCaesar
    from repro.fabric import Fabric, parse_topology
    from repro.obs.registry import MetricsRegistry
    from repro.runtime.client import StreamingRuntime

    from layers import targets

    entry_points = targets()[0] if tracer is not None else []

    def phase(key: str) -> _Phase:
        return _Phase(cycle, tracer, key)

    def again(key: str) -> bool:
        return tracer is None and sum(cycle.phase_s[key]) < REPEAT_S[key]

    registry = MetricsRegistry() if tracer is not None else None
    all_ids = wl.flow_ids
    chunks = wl.chunks()
    failed = cycle.failed
    failed.update(query_degraded=0, query_nan=0, shed_chunks=0, restarts=0)
    rt = None

    def ask(batch):
        t0 = time.perf_counter()
        reply = rt.query(batch, detail=True)
        cycle.query_ms.append((time.perf_counter() - t0) * 1e3)
        if reply.degraded or any(s.status != "ok" for s in reply.shards):
            failed["query_degraded"] += 1
        elif not np.isfinite(reply.estimates).all():
            failed["query_nan"] += 1
        return reply.estimates

    try:
        if tracer is not None:
            tracer.install(entry_points)
        gc.collect()
        while True:
            with phase("setup.caesar"):
                caesar = Caesar(config)
            with phase("build"):
                caesar.process(wl.packets)
                caesar.finalize()
            if not again("build"):
                break
        if tracer is not None:
            stats = caesar.cache.stats
            cycle.facts.update(
                cache_accesses=stats.accesses,
                cache_hits=stats.hits,
                cache_evictions=stats.overflow_evictions + stats.replacement_evictions,
            )
        with phase("query_floor"):
            floor = [caesar.estimate(batch) for batch in wl.query_batches]
        cycle.outputs["build"] = _digest(*floor)
        if full:
            est = caesar.estimate(all_ids)
            lo, hi = caesar.confidence_interval(all_ids)
            alpha = inspect.signature(Caesar.confidence_interval).parameters["alpha"].default
            cycle.accuracy["are_csm"] = evaluate(est, wl.flow_sizes).binned_are
            cycle.accuracy["ci_cover_gap"] = abs(ci_coverage(lo, hi, wl.flow_sizes) - alpha)
            cycle.outputs["build.all"] = _digest(est, lo, hi)
            del est, lo, hi
        del caesar, floor

        starts = serves = 0
        while True:
            gc.collect()
            _trim_heap()
            if tracer is not None:
                tracer.uninstall()  # the workers fork without the wrappers
            with phase("setup.runtime"):
                rt = StreamingRuntime(
                    config, workers, state_dir=state_dir / f"rt{starts}", registry=registry
                )
                rt.start()
            starts += 1
            if again("setup.runtime"):
                rt.shutdown()  # set-up is short: sample it more than serve
                continue
            if tracer is not None:
                tracer.install(entry_points)
            serves += 1
            with phase("serve"):
                for i, chunk in enumerate(chunks):
                    if rt.ingest(chunk) < len(chunk):
                        failed["shed_chunks"] += 1
                    if wl.live_queries:
                        ask(wl.query_batches[i])
                result = rt.drain()
            failed["restarts"] += result.restarts
            if not again("serve"):
                break
            rt.shutdown()
            rt = None
        if idle and not wl.live_queries:
            with phase("idle_query"):
                replies = [ask(batch) for batch in wl.query_batches]
            cycle.outputs["idle"] = _digest(*replies)
        cycle.worker_rss_mib = max(_vm_hwm_mib(rt.worker_pid(s)) for s in range(workers))
        cycle.outputs["serve"] = _digest(*result.shard_digests)
        cycle.ckpt_mib = sum(os.path.getsize(p) for p in result.checkpoint_paths) / 2**20
        if registry is not None:
            cycle.facts.update((name, registry.counter(name).value) for name in WORKER_COUNTERS)
        served = rt.query(all_ids) if twin else None

        while True:
            with phase("recover"):
                recovered = result.load_scheme()
            if not again("recover"):
                break
        cycle.outputs["recover"] = _digest(
            recovered.estimate(wl.query_batches[0], "csm", clip_negative=True)
        )
        del recovered
        rt.shutdown()
        rt = None

        if twin:  # a check, not a phase: untimed, and never in a traced cycle
            offline = ShardedCaesar(
                config,
                shard_map=result.shard_map,
                divide_budget=result.divide_budget,
                shard_seed=result.shard_seed,
            )
            offline.process(wl.packets)
            offline.finalize()
            same = np.array_equal(offline.estimate(all_ids, "csm", clip_negative=True), served)
            digests = tuple(s.checkpoint().digest for s in offline.shards)
            cycle.checks["twin"] = same and digests == result.shard_digests
            failed["twin_mismatch"] = 0 if cycle.checks["twin"] else 1
            cycle.attempted["twin_checks"] = 1
            del offline
        del served

        while True:
            with phase("setup.fabric"):
                fabric = Fabric(config, parse_topology(FABRIC_TOPOLOGY))
            with phase("fabric"):
                fabric.ingest_stream(wl.packets, chunk_packets=wl.chunk_packets)
                ledger = fabric.drain()
            if not again("fabric"):
                break
        cycle.facts["fabric_observations"] = ledger.total_observations
        cycle.outputs["fabric"] = _digest(*ledger.shard_digests)
        if full:
            fused = fabric.query(all_ids)
            cycle.checks["fused_finite"] = bool(np.isfinite(fused).all())
            cycle.accuracy["fused_are"] = evaluate(fused, wl.flow_sizes).binned_are
            cycle.outputs["fabric.all"] = _digest(fused)
            del fused
        del fabric
        cycle.attempted.update(queries=len(cycle.query_ms), chunks=serves * len(chunks))
    finally:
        if tracer is not None:
            tracer.uninstall()
        if rt is not None:
            rt.shutdown()
        shutil.rmtree(state_dir, ignore_errors=True)
    return cycle


def git_descriptor() -> dict:
    """Commit and dirty flag, when the checkout is a git work tree."""
    if not (ROOT / ".git").exists():
        return {"commit": None, "dirty": None}
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))

    def git(*args: str) -> str:
        return subprocess.run(
            ["git", *args], cwd=ROOT, env=env, capture_output=True, text=True, check=True
        ).stdout.strip()

    try:
        return {"commit": git("rev-parse", "HEAD"), "dirty": bool(git("status", "--porcelain"))}
    except (OSError, subprocess.CalledProcessError):
        return {"commit": None, "dirty": None}


def end_to_end(wl, cycles: list[Cycle]) -> dict[str, float]:
    from stats import percentile

    median = statistics.median

    n = wl.num_packets
    queries = [q for c in cycles for q in c.query_ms]

    def med(key: str) -> float:
        return median([s for c in cycles for s in c.phase_s[key]])

    def accuracy(key: str) -> float:
        return statistics.fmean(c.accuracy[key] for c in cycles[:REPLICAS])

    return {
        "setup_s": sum(med(part) for part in SETUP_PARTS),
        "build_pps": n / med("build"),
        "serve_pps": n / med("serve"),
        "query_p50_ms": percentile(queries, 50),
        "query_p90_ms": percentile(queries, 90),
        "worker_rss_mib": median([c.worker_rss_mib for c in cycles]),
        "ckpt_mib": median([c.ckpt_mib for c in cycles]),
        "recover_s": med("recover"),
        "fabric_pps": n / med("fabric"),
        "are_csm": accuracy("are_csm"),
        "ci_cover_gap": accuracy("ci_cover_gap"),
        "fused_are": accuracy("fused_are"),
    }


def consistency_checks(cycles: list[Cycle]) -> dict[str, bool]:
    """Cycles of one replica agree on every output both produced."""
    ok_outputs = ok_accuracy = True
    for a in cycles:
        for b in cycles:
            if a.replica != b.replica:
                continue
            common = a.outputs.keys() & b.outputs.keys()
            ok_outputs &= all(a.outputs[k] == b.outputs[k] for k in common)
            if a.accuracy and b.accuracy:
                ok_accuracy &= a.accuracy == b.accuracy
    full = [c for c in cycles if c.accuracy]
    return {
        "twin": cycles[0].checks.get("twin", False),
        "fused_finite": bool(full) and all(c.checks["fused_finite"] for c in full),
        "outputs_identical": ok_outputs,
        "accuracy_identical": ok_accuracy,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload; returns the result object (last stdout line)."""
    from layers import PHASES, SpanView, layer_metrics, targets
    from spans import Tracer
    from workloads import make_workload

    t0 = time.perf_counter()
    wl = make_workload(name, seed)
    gen_s = time.perf_counter() - t0
    config = bench_config()
    workers = usable_cores()
    run_dir = WORK_DIR / f"{name}-{seed}-{os.getpid()}"
    descriptors = {
        "workload": name,
        "seed": seed,
        "packets": wl.num_packets,
        "distinct_flows": len(wl.flow_ids),
        "packets_per_run": wl.packets_per_run,
        "chunk_packets": wl.chunk_packets,
        "usable_cores": usable_cores(),
        "workers": workers,
        "runtime_defaults": runtime_defaults(),
        "config": config.describe(),
        "replica_seeds": [replica_config(config, r).seed for r in range(REPLICAS)],
        "fabric_topology": FABRIC_TOPOLOGY,
        "input_generation_s": gen_s,
        "trace": trace,
        **git_descriptor(),
    }
    plain: list[Cycle] = []
    traced: list[tuple[Cycle, Tracer]] = []
    start = time.perf_counter()
    try:
        while True:
            index = len(plain)
            replica = index % REPLICAS
            cfg = replica_config(config, replica)
            pooled = sum(len(c.query_ms) for c in plain)
            plain.append(
                run_cycle(
                    wl, cfg, workers, run_dir / f"cycle{index}", Cycle(replica),
                    full=trace or index < REPLICAS,
                    twin=index == 0,
                    idle=trace or pooled < MIN_QUERIES,
                )
            )
            if trace:
                tracer = Tracer(run_id=f"{name}-{seed}-traced{index}")
                cycle = run_cycle(
                    wl, cfg, workers, run_dir / f"traced{index}", Cycle(replica),
                    tracer=tracer, full=True,
                )
                traced.append((cycle, tracer))
            pooled = sum(len(c.query_ms) for c in plain)
            if time.perf_counter() - start >= seconds and (
                trace or (len(plain) >= MIN_CYCLES and pooled >= MIN_QUERIES)
            ):
                break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass  # another run still uses it
    measured_s = time.perf_counter() - start

    cycles = plain + [c for c, _ in traced]
    checks = consistency_checks(cycles)
    attempted = sum(v for c in cycles for v in c.attempted.values())
    failed = sum(v for c in cycles for v in c.failed.values())
    failures = {
        key: sum(c.failed.get(key, 0) for c in cycles)
        for key in sorted({k for c in cycles for k in c.failed})
    }
    descriptors.update(
        cycles=len(plain),
        traced_cycles=len(traced),
        measured_s=measured_s,
        phase_s={k: [s for c in plain for s in c.phase_s.get(k, [])] for k in plain[0].phase_s},
        query_samples=sum(len(c.query_ms) for c in plain),
        checks=checks,
        attempted=attempted,
        failures=failures,
    )
    if trace:
        rows = []
        for (cycle, tracer), base in zip(traced, plain):
            facts = dict(
                cycle.facts,
                packets_per_run=wl.packets_per_run,
                workers=workers,
                usable_cores=usable_cores(),
            )
            row = layer_metrics(SpanView(tracer.spans), facts)
            for p in PHASES:
                row[f"trace.overhead_s.{p}"] = cycle.first(p) - base.first(p)
            rows.append(row)
        metrics = {key: statistics.median(row[key] for row in rows) for key in rows[0]}
        OUT_DIR.mkdir(exist_ok=True)
        for _, tracer in traced:
            tracer.write(OUT_DIR / f"spans-{tracer.run_id}.jsonl")
        descriptors["spans_dir"] = str(OUT_DIR.relative_to(ROOT))
        descriptors["entry_points_missing"] = targets()[1]
        units = per_layer_units()
        out = {key: {"value": value, "unit": units[key]} for key, value in metrics.items()}
    else:
        metrics = end_to_end(wl, plain)
        out = {key: {"value": value, "unit": END_TO_END[key]} for key, value in metrics.items()}
    print(json.dumps({"descriptors": descriptors}))
    return {
        "correct": all(checks.values()),
        "attempted": attempted,
        "failed": failed,
        "metrics": out,
    }


def per_layer_units() -> dict[str, str]:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="shuffled, bursty, flood or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    _import_program()
    from workloads import WORKLOADS

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    if any(n not in WORKLOADS for n in names):
        parser.error(f"--workload must be one of {WORKLOADS} or all")
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
            if len(names) > 1:
                print(json.dumps({name: results[name]}))
    finally:
        _stop_resource_tracker()
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{key}": value
                for name, r in results.items()
                for key, value in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
