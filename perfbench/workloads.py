"""The three benchmark workloads, driven through the public API only.

``uniform_t1`` and ``adaptive_t2`` are batch runs: a lazy
:class:`~repro.core.yields.ChipSource` streamed through the engine's shard
pipeline (:func:`repro.api.engine.iter_shard_summaries`, the same loop
``Engine.run`` and the daemon use) one shard at a time.  ``service_sweep``
drives an in-process :class:`~repro.service.daemon.EffiTestDaemon` over
loopback HTTP with two closed-loop :class:`~repro.service.client.ServiceClient`
threads.

Every workload runs serially in one process: no shard threads, no process
pool, one daemon worker.  A workload returns a :class:`Outcome`: the
end-to-end metrics of its untraced measurement, and, when traced, the
per-layer metrics of a second, traced pass over the same inputs.

The host's speed swings by up to 1.5x in phases of ten seconds to
minutes, so each timing uses the statistic that spread least over ten
seeds: the mean of a batch workload's few long repetitions (total time
over work done), the lower quartile of the service's thousands of short
store hits (whose tail swells with the host's load) and the median of the
set-ups.

Functions the traced pass wraps (``generator.generate_circuit``,
``api_engine.iter_shard_summaries``) are called through their modules so
the wrappers see the calls.
"""

from __future__ import annotations

import gc
import random
import resource
import shutil
import statistics
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
from repro.api import Engine, OnlineConfig
from repro.api import engine as api_engine
from repro.circuit import CircuitSpec, generator
from repro.core.reduction import merge_run_summaries
from repro.core.yields import ChipSource, chip_source
from repro.experiments.benchdata import benchmark_spec
from repro.experiments.context import DEFAULT_OFFLINE
from repro.service.client import ServiceClient, ServiceError
from repro.service.daemon import EffiTestDaemon, ServiceCore
from repro.service.protocol import RunRequest
from repro.utils.rng import derive_seed

from perfbench import layers
from perfbench.spans import Tracer, adopt_across_threads, select, self_times

#: Circuit generator seed shared with the experiments and the service's
#: ``{"bench": ...}`` references, so every run sees the same circuit.
CIRCUIT_SEED = 20160605
#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: Phase-2 requests per client that the traced service pass repeats.
TRACED_HITS = 100
#: Untraced/traced run pairs of a traced batch pass.
TRACED_PAIRS = 2
#: Chips in the adaptive workload's chip-for-chip verdict check.
VERDICT_CHIPS = 512


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    metrics: dict[str, float] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)
    spans: list = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        """Count one operation; record why it failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(f"FAILED: {what}")


def peak_rss_mb() -> float:
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def bench_circuit(name: str):
    """One of the paper's Table 1 circuits, generated the experiments' way."""
    return generator.generate_circuit(
        benchmark_spec(name), seed=derive_seed(CIRCUIT_SEED, name, "circuit")
    )


def operating_points(circuit, n_chips: int = 4096) -> tuple[float, float]:
    """The paper's T1/T2 from a fixed calibration population.

    The same periods as ``operating_periods(sample_circuit(...))``, but the
    population is streamed in 1024-chip shards and only each chip's worst
    no-buffer delay is kept, so calibrating never holds the dense
    population and does not set the process's peak memory.
    """
    source = chip_source(
        circuit, n_chips, derive_seed(CIRCUIT_SEED, circuit.name, "calibration")
    )
    worst = np.concatenate([
        np.maximum(
            shard.required.max(axis=1, initial=-np.inf),
            shard.background.max(axis=1, initial=-np.inf),
        )
        for _, _, shard in source.iter_shards(1024)
    ])
    t1, t2 = np.quantile(worst, (0.5, 0.8413))
    return float(t1), float(t2)


def warm_up() -> None:
    """Pay imports and lazy set-up on a toy circuit before any timing."""
    circuit = generator.generate_circuit(
        CircuitSpec("warmup", 40, 800, 2, 24), seed=1
    )
    period = operating_points(circuit, 256)[0]
    engine = Engine()
    prep = engine.prepare(circuit, period)
    for budget in ("uniform", "adaptive"):
        online = OnlineConfig(
            test_budget=budget, chip_shard_size=8, artifacts="summary"
        )
        for _ in api_engine.iter_shard_summaries(
            circuit, ChipSource(circuit, 16, 1), period, prep, online
        ):
            pass


# ----------------------------------------------------------------------------
# Batch workloads
# ----------------------------------------------------------------------------


@dataclass(frozen=True)
class BatchWorkload:
    """A streamed population run of one circuit at one operating point."""

    name: str
    bench: str
    budget: str
    point: str  # "t1" or "t2"
    period_factor: float
    n_chips: int
    shard: int


BATCH = {
    "uniform_t1": BatchWorkload("uniform_t1", "s13207", "uniform", "t1", 1.0,
                                512, 256),
    "adaptive_t2": BatchWorkload("adaptive_t2", "s9234", "adaptive", "t2",
                                 1.05, 8192, 4096),
}


def tiny_batch(workload: BatchWorkload) -> BatchWorkload:
    """The same flow on few chips, for the benchmark's own tests."""
    return replace(workload, bench="s9234", n_chips=64, shard=32)


def _online(workload: BatchWorkload, artifacts: str = "summary"):
    return OnlineConfig(
        test_budget=workload.budget,
        chip_shard_size=workload.shard,
        artifacts=artifacts,
    )


def _batch_setup(workload: BatchWorkload, period: float):
    """Circuit generation plus a cold ``Engine.prepare``, timed."""
    start = time.perf_counter()
    circuit = bench_circuit(workload.bench)
    engine = Engine(offline=DEFAULT_OFFLINE)
    engine.prepare(circuit, period)
    return time.perf_counter() - start, circuit, engine


def _batch_rep(workload, engine, circuit, source, period, outcome, digest):
    """One timed operation: prepare (cached) + the streamed online stages.

    Returns the run's wall time and the merged summary.
    """
    start = time.perf_counter()
    prep = engine.prepare(circuit, period)
    parts = list(api_engine.iter_shard_summaries(
        circuit, source, period, prep, _online(workload)
    ))
    summary = merge_run_summaries(parts)
    wall = time.perf_counter() - start
    expected_shards = -(-workload.n_chips // workload.shard)
    ok = (
        len(parts) == expected_shards
        and sum(p.n_chips for p in parts) == summary.n_chips == workload.n_chips
        and sum(p.n_passed for p in parts) == summary.n_passed
        and summary.n_passed <= summary.n_feasible
        and (digest is None or summary.digest() == digest)
    )
    outcome.check(ok, f"{workload.name} shard counts / yield / digest")
    return wall, summary


def _verdicts_match_uniform(workload, engine, circuit, source, period) -> bool:
    """The ``test_budget`` contract on one shard: same pass/fail per chip.

    The shard is the population's first ``VERDICT_CHIPS`` chips (sources
    are counter-based, so a shorter source yields the same chips).
    """
    shard = ChipSource(circuit, min(workload.shard, VERDICT_CHIPS), source.seed)
    prep = engine.prepare(circuit, period)
    passed = []
    for budget in ("uniform", "adaptive"):
        online = replace(_online(workload, "compact"), test_budget=budget)
        (part,) = api_engine.iter_shard_summaries(
            circuit, shard, period, prep, online
        )
        passed.append(part.passed)
    return bool((passed[0] == passed[1]).all())


def run_batch(
    workload: BatchWorkload, seed: int, seconds: float, trace: bool
) -> Outcome:

    outcome = Outcome()
    warm_up()
    calibration = bench_circuit(workload.bench)
    t1, t2 = operating_points(calibration)
    period = workload.period_factor * (t1 if workload.point == "t1" else t2)
    del calibration

    setups = []
    for _ in range(SETUPS):
        elapsed, circuit, engine = _batch_setup(workload, period)
        setups.append(elapsed)
    source = ChipSource(
        circuit, workload.n_chips, derive_seed(seed, workload.name, "population")
    )

    walls: list[float] = []
    digest = None
    deadline = time.perf_counter() + seconds
    while len(walls) < 2 or time.perf_counter() < deadline:
        wall, summary = _batch_rep(
            workload, engine, circuit, source, period, outcome, digest
        )
        digest = digest or summary.digest()
        walls.append(wall)

    if workload.budget == "adaptive":
        outcome.check(
            _verdicts_match_uniform(workload, engine, circuit, source, period),
            "adaptive verdicts differ from the uniform budget",
        )

    rep_s = statistics.mean(walls)
    outcome.metrics = {
        "chips_per_s": workload.n_chips / rep_s,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb(),
        "ta_iters": summary.mean_iterations,
        "yield_pct": 100.0 * summary.yield_fraction,
        "op_ms": 1e3 * rep_s,
    }
    outcome.notes.append(
        f"{len(walls)} runs of {workload.n_chips} chips at T={period:.3f} "
        f"({' '.join(f'{w:.3f}' for w in walls)} s), digest {digest[:16]}"
    )
    if trace:
        del engine
        gc.collect()
        _trace_batch(workload, period, source.seed, digest, outcome)
    return outcome


def _trace_batch(workload, period, population_seed, digest, outcome):
    """A traced set-up, then ``TRACED_PAIRS`` pairs of untraced/traced runs.

    Alternating the two kinds of run exposes both to the same host phases;
    the overhead compares the fastest of each kind.  Layer times are those
    of the fastest traced run (and of the set-up).
    """
    tracer = Tracer()
    layers.install(tracer)
    try:
        tracer.run = "setup"
        _, circuit, engine = _batch_setup(workload, period)
    finally:
        tracer.restore()
    source = ChipSource(circuit, workload.n_chips, population_seed)
    untraced, roots = [], []
    for rep in range(TRACED_PAIRS):
        untraced.append(
            _batch_rep(workload, engine, circuit, source, period, outcome,
                       digest)[0]
        )
        layers.install(tracer)
        try:
            tracer.run = f"rep{rep}"
            with tracer.span("bench.rep") as root:
                _batch_rep(workload, engine, circuit, source, period,
                           outcome, digest)
        finally:
            tracer.restore()
        roots.append(tracer.spans[root.index])
    fastest = min(roots, key=lambda span: span.duration)
    spans = select(tracer.spans, {"setup", fastest.run})
    accounted = sum(
        t for span, t in zip(spans, self_times(spans))
        if span.run == fastest.run and span.name != "bench.rep"
    )
    untraced_s = min(untraced)
    outcome.spans = tracer.spans
    outcome.layers.update(layers.layer_metrics(spans))
    outcome.layers["trace.overhead_pct"] = 100.0 * (
        fastest.duration / untraced_s - 1.0
    )
    outcome.layers["trace.accounted_pct"] = 100.0 * accounted / untraced_s


# ----------------------------------------------------------------------------
# Service workload
# ----------------------------------------------------------------------------


@dataclass(frozen=True)
class ServiceWorkload:
    """Two closed-loop clients sweeping one circuit over design periods."""

    bench: str
    period_factors: tuple[float, ...]
    n_chips: int
    min_hits: int


#: A miss's offline prepare of a new design period (~4.5 s on mem_ctrl) feeds
#: no end-to-end metric; 128-chip populations give ``chips_per_s`` about
#: 9 s of online work a run to measure while leaving time for store hits.
SERVICE = ServiceWorkload("mem_ctrl", (1.00, 1.04, 1.08), 128, 110)


def tiny_service(workload: ServiceWorkload) -> ServiceWorkload:
    return replace(
        workload, bench="s9234", period_factors=(1.0, 1.05), n_chips=8,
        min_hits=12,
    )


@dataclass
class Reply:
    """One request as its client saw it."""

    client: int
    key: int
    phase: int
    label: str = ""
    tier: str = ""
    run_key: str = ""
    digest: str = ""
    latency: float = 0.0
    offline: float = 0.0
    error: str = ""
    summary: object = None


class _Daemon:
    """One daemon with a fresh store and engine, plus its set-up time."""

    def __init__(self, work: Path, ref: dict):
        start = time.perf_counter()
        self.root = work
        core = ServiceCore(work / "store", engine=Engine(), n_workers=1)
        self.daemon = EffiTestDaemon(core, port=0).start()
        host, port = self.daemon.address
        if not ServiceClient(host, port, timeout=30.0).healthy():
            raise RuntimeError("daemon did not answer /healthz")
        self.circuit = core.registry.resolve(ref)
        self.setup_s = time.perf_counter() - start
        self.core = core
        self.ref = ref
        self.address = (host, port)

    def stop(self) -> None:
        self.daemon.stop()
        shutil.rmtree(self.root, ignore_errors=True)


def _service_warm_up(work: Path) -> None:
    """One miss and one hit on a toy circuit: imports, sockets, store code."""
    daemon = _Daemon(work, {"spec": {
        "name": "warmup", "n_flipflops": 40, "n_gates": 800,
        "n_buffers": 2, "n_paths": 24,
    }, "seed": 1})
    try:
        period = operating_points(daemon.circuit, 256)[0]
        request = {"circuit": daemon.ref, "period": period, "n_chips": 8}
        for _ in range(2):
            ServiceClient(*daemon.address, timeout=60.0).run(request)
    finally:
        daemon.stop()


def _sweep(daemon, requests, order, seconds, min_hits, seed, tracer=None,
           hits=None):
    """Phase 1 fires every key from both clients at once; phase 2 re-reads.

    Each client is a closed loop: it sends its next request only after the
    previous reply is complete.  In phase 2 each client draws keys from its
    own seeded stream until ``seconds`` have passed since the sweep began
    and both together have made ``min_hits`` requests, or, when ``hits``
    is given, until client ``c`` has made ``hits[c]`` requests (the same
    keys a sweep with the same ``seed`` made first).  Returns the replies
    per client.

    In phase 2 the clients take strict turns, so one request is in flight.
    Clients and daemon share one process and its interpreter lock: two hits
    in flight at once time the lock's hand-offs between four threads on the
    host's two CPUs (their median swung 4.2-8.8 ms between 4 s windows of
    one daemon), not the service, while a hit in flight alone holds at
    2.1 ms.
    """
    barrier = threading.Barrier(2)
    turns = threading.Condition()
    turn = {"next": 0, "active": {0, 1}}
    replies: list[list[Reply]] = [[], []]
    crashed: list[BaseException] = []
    start = time.perf_counter()

    def wait_turn(client: int) -> None:
        with turns:
            if not turns.wait_for(
                lambda: turn["next"] == client or turn["active"] == {client},
                timeout=170.0,
            ):
                raise TimeoutError("the other client kept its turn")

    def pass_turn(client: int, leave: bool = False) -> None:
        with turns:
            turn["next"] = 1 - client
            if leave:
                turn["active"].discard(client)
            turns.notify_all()

    def fire(service, client: int, key: int, phase: int) -> None:
        label = f"c{client}-{len(replies[client])}"
        reply = Reply(client, key, phase, label)
        payload = dict(requests[key], label=label)
        begin = time.perf_counter()
        try:
            if tracer is not None:
                tracer.run = label
            result = service.run(payload)
        except (ServiceError, OSError) as exc:
            reply.error = f"{type(exc).__name__}: {exc}"
        else:
            reply.tier = result.tier
            reply.run_key = result.digest
            reply.offline = result.offline_seconds
            reply.digest = result.summary.digest()
            reply.summary = result.summary
        reply.latency = time.perf_counter() - begin
        replies[client].append(reply)

    def client_loop(client: int) -> None:
        try:
            service = ServiceClient(*daemon.address, timeout=170.0)
            for key in order:
                barrier.wait(timeout=170.0)
                fire(service, client, key, 1)
            rng = random.Random(seed * 2 + client)
            made = 0
            while (
                made < hits[client] if hits is not None
                else 2 * made < min_hits
                or time.perf_counter() < start + seconds
            ):
                wait_turn(client)
                fire(service, client, rng.randrange(len(requests)), 2)
                pass_turn(client)
                made += 1
        except Exception as exc:  # reported by the caller
            crashed.append(exc)
            barrier.abort()
        finally:
            pass_turn(client, leave=True)

    threads = [
        threading.Thread(target=client_loop, args=(client,),
                         name=f"perfbench-client-{client}")
        for client in range(2)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=175.0)
    if crashed or any(thread.is_alive() for thread in threads):
        raise RuntimeError(f"a service client failed: {crashed!r}")
    return replies


def _check_replies(replies, n_keys: int, outcome: Outcome) -> dict[int, Reply]:
    """Every request is one operation; returns the leader reply per key.

    A request passes when it got no error event and its summary digest
    equals the leader's (the miss-tier reply of its key); phase-2 requests
    must also come from the store tier.
    """
    flat = [reply for client in replies for reply in client]
    leaders = {r.key: r for r in flat if r.phase == 1 and r.tier == "miss"}
    for reply in flat:
        leader = leaders.get(reply.key)
        ok = (
            not reply.error
            and leader is not None
            and reply.digest == leader.digest
            and reply.run_key == leader.run_key
            and (reply.phase == 1 or reply.tier == "store")
        )
        outcome.check(ok, f"request for key {reply.key} ({reply.tier or reply.error})")
    outcome.check(len(leaders) == n_keys, "a key had no miss-tier leader")
    return leaders


def run_service(
    workload: ServiceWorkload, seed: int, seconds: float, trace: bool,
    work: Path,
) -> Outcome:
    outcome = Outcome()
    _service_warm_up(work / "warmup")
    ref = {"bench": workload.bench, "seed": CIRCUIT_SEED}
    setups = []
    for index in range(SETUPS):
        daemon = _Daemon(work / f"daemon-{index}", ref)
        setups.append(daemon.setup_s)
        if index < SETUPS - 1:
            daemon.stop()
    try:
        t1 = operating_points(daemon.circuit, 1024)[0]
        requests = [
            RunRequest(
                circuit=ref, period=factor * t1, n_chips=workload.n_chips,
                seed=CIRCUIT_SEED,
            ).to_json()
            for factor in workload.period_factors
        ]
        order = random.Random(seed).sample(range(len(requests)), len(requests))
        replies = _sweep(
            daemon, requests, order, seconds, workload.min_hits, seed
        )
        engine_runs = daemon.core.engine_runs
    finally:
        daemon.stop()

    leaders = _check_replies(replies, len(requests), outcome)
    summaries = [leaders[k].summary for k in sorted(leaders)]
    outcome.check(
        engine_runs == len(requests)
        and all(s.n_passed <= s.n_feasible for s in summaries),
        f"engine runs {engine_runs} != {len(requests)} keys, or yield > feasible",
    )
    chips = sum(s.n_chips for s in summaries)
    by_tier = _tier_latencies(replies)
    # A miss also prepares its new design period offline; the reply says
    # how long that took, and the rest is the online test->verify run.
    online_s = [
        r.latency - r.offline for client in replies for r in client
        if r.tier == "miss"
    ]
    outcome.metrics = {
        "chips_per_s": workload.n_chips * len(online_s)
        / (sum(online_s) or float("inf")),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb(),
        "ta_iters": sum(s.n_chips * s.mean_iterations for s in summaries)
        / max(chips, 1),
        "yield_pct": 100.0 * sum(s.n_passed for s in summaries) / max(chips, 1),
        # The lower quartile: while the host is loaded, a share of the hits
        # wait for a CPU and the median drifts with that share.
        "op_ms": 1e3 * float(np.quantile(
            [r.latency for client in replies for r in client if r.phase == 2],
            0.25,
        )),
    }
    outcome.notes.append(
        "misses' online part, s: " + " ".join(f"{t:.3f}" for t in online_s)
    )
    for tier, values in sorted(by_tier.items()):
        outcome.notes.append(
            f"{tier}: {len(values)} requests, latency ms p10/p25/p50/p90 "
            + "/".join(
                f"{1e3 * q:.2f}"
                for q in np.quantile(values, (0.1, 0.25, 0.5, 0.9))
            )
        )
    if trace:
        gc.collect()
        _trace_service(
            ref, requests, order, seed, replies, by_tier, leaders, work,
            outcome,
        )
    return outcome


def _tier_latencies(replies) -> dict[str, list[float]]:
    tiers: dict[str, list[float]] = {}
    for client in replies:
        for reply in client:
            tiers.setdefault(reply.tier or "error", []).append(reply.latency)
    return tiers


def _trace_service(ref, requests, order, seed, untraced, latencies, leaders,
                   work, outcome):
    """A traced daemon set-up and a second sweep with the same seed.

    The traced sweep repeats phase 1 and the first ``TRACED_HITS`` phase-2
    requests of each client.  The same requests then run again, untraced,
    on the same daemon; overhead and accounting compare the phase-2
    requests (store hits) of the two sweeps by their medians, as the tail
    of a hit's latency swells with the host's load and the host's speed
    drifts between the untraced sweep and this pass.  The compute-bound
    misses' tracing overhead is the batch workloads'.
    A request's daemon-side spans run on a handler thread; they are tied
    to the client's ``service.transport`` span of the same request, so its
    self time is the client's own share of the transport.
    """
    untraced = [
        [r for r in client if r.phase == 2][:TRACED_HITS] for client in untraced
    ]
    tracer = Tracer()
    layers.install(tracer)
    try:
        tracer.run = "setup"
        daemon = _Daemon(work / "traced", ref)
        caps = [len(client) for client in untraced]
        try:
            traced = _sweep(daemon, requests, order, 0.0, 0, seed,
                            tracer=tracer, hits=caps)
            stats = daemon.core.stats()
            tracer.restore()
            again = _sweep(daemon, requests, order, 0.0, 0, seed, hits=caps)
        finally:
            daemon.stop()
    finally:
        tracer.restore()

    spans = adopt_across_threads(tracer.spans)
    for old, new in zip(untraced, traced):
        outcome.check(
            [r.key for r in old] == [r.key for r in new if r.phase == 2],
            "traced sweep requested other keys than the untraced one",
        )
    for client in traced + again:
        for reply in client:
            leader = leaders.get(reply.key)
            outcome.check(
                not reply.error and leader is not None
                and reply.digest == leader.digest,
                f"traced-pass request for key {reply.key} differs from the "
                "untraced sweep",
            )
    before = [r.latency for client in again for r in client if r.phase == 2]
    after = [r.latency for client in traced for r in client if r.phase == 2]
    labels = {r.label for client in traced for r in client if r.phase == 2}
    accounted = dict.fromkeys(labels, 0.0)
    for span, own in zip(spans, self_times(spans)):
        if span.run in accounted:
            accounted[span.run] += own
    tiers = _tier_latencies(traced)
    hits = latencies.get("store", [])
    outcome.spans = spans
    outcome.layers.update(layers.layer_metrics(spans))
    outcome.layers.update({
        "service.tier_store": float(len(tiers.get("store", []))),
        "service.tier_inflight": float(len(tiers.get("inflight", []))),
        "service.tier_miss": float(len(tiers.get("miss", []))),
        "service.engine_runs": float(stats["engine_runs"]),
        "service.miss_p50_ms": 1e3 * statistics.median(
            latencies.get("miss", [0.0])
        ),
        "service.hit_p50_ms": 1e3 * statistics.median(hits or [0.0]),
        "service.hit_p90_ms": 1e3 * float(np.quantile(hits or [0.0], 0.9)),
        "service.hits": float(len(hits)),
        "coalesce.coalesced_frac": float(
            stats["coalescing"]["coalesced_fraction"]
        ),
        "trace.overhead_pct": 100.0 * (
            statistics.median(after) / statistics.median(before) - 1.0
        ),
        "trace.accounted_pct": 100.0
        * statistics.median(accounted.values()) / statistics.median(before),
    })
    outcome.check(
        stats["engine_runs"] == len(requests),
        "traced daemon ran the engine more often than there are keys",
    )
