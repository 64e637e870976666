"""Where the traced run wraps the package, and how spans become metrics.

Each row of :func:`install` wraps one public function at the name its
*calling* module looks up at call time, so the package itself is never
edited.  Span names are ``<layer>`` or ``<layer>.<detail>``; the layer
names are this repository's modules (``alignment`` is
``repro.core.alignment``, ``store`` is ``repro.results.store`` and so on).

:data:`PER_LAYER` lists every per-layer metric the benchmark prints, with
its unit; :func:`layer_metrics` computes them from a finished trace.
Times named ``*.self_s`` or ``*.s`` are self times (the span minus its
traced children), and so is ``service.transport_s`` (client and HTTP
handler around a request, less the daemon's package code); ``stages.*``, ``offline.prepare_s``,
``circuit.generate_s`` and ``budget.*_s`` are whole-call times.
"""

from __future__ import annotations

import numpy as np
from repro.api import engine, stages
from repro.api.cache import PreparationCache
from repro.circuit import generator
from repro.core import alignment, population, yields
from repro.core.prediction import ConditionalPredictor
from repro.results.store import RunStore
from repro.service import client, daemon, protocol

from perfbench.spans import Span, Tracer, layer_totals

#: Per-layer metric name -> unit, in report order.
PER_LAYER: dict[str, str] = {
    "alignment.self_s": "s",
    "alignment.calls": "count",
    "alignment.rows": "count",
    "weighted_median.s": "s",
    "weighted_median.rows": "count",
    "stages.test_s": "s",
    "stages.predict_s": "s",
    "stages.configure_s": "s",
    "stages.verify_s": "s",
    "population.batch_s": "s",
    "population.chip_iters": "count",
    "oracle.s": "s",
    "sampling.s": "s",
    "sampling.chips": "count",
    "prediction.s": "s",
    "configuration.s": "s",
    "verify.s": "s",
    "engine.self_s": "s",
    "engine.shards": "count",
    "budget.coarse_s": "s",
    "budget.coarse_calls": "count",
    "budget.certify_s": "s",
    "budget.certified_frac": "fraction",
    "budget.rerun_chips": "count",
    "circuit.generate_s": "s",
    "offline.prepare_s": "s",
    "offline.prepares": "count",
    "grouping.s": "s",
    "multiplexing.s": "s",
    "holdtime.s": "s",
    "cache.hit_frac": "fraction",
    "store.probe_s": "s",
    "store.load_s": "s",
    "store.write_s": "s",
    "store.reads": "count",
    "store.writes": "count",
    "service.tier_store": "count",
    "service.tier_inflight": "count",
    "service.tier_miss": "count",
    "service.engine_runs": "count",
    "service.miss_p50_ms": "ms",
    "service.hit_p50_ms": "ms",
    "service.hit_p90_ms": "ms",
    "service.hits": "count",
    "coalesce.coalesced_frac": "fraction",
    "protocol.encode_s": "s",
    "service.transport_s": "s",
    "error_rate": "fraction",
    "trace.overhead_pct": "%",
    "trace.accounted_pct": "%",
}


def _rows(arg_index: int):
    """Counter: the row count of positional argument ``arg_index``."""

    def counts(result, *args, **kwargs):
        return {"rows": float(np.shape(args[arg_index])[0])}

    return counts


def _chip_iters(result, *args, **kwargs):
    return {"chip_iters": float(np.sum(result[2]))}


def _sampled(result, models, seed, start, stop, *args, **kwargs):
    return {"chips": float(stop - start)}


def _certified(result, *args, **kwargs):
    certified = np.asarray(result, dtype=bool)
    return {"certified": float(certified.sum()), "chips": float(certified.size)}


def _lease_run(store, key):
    return "key:" + key.digest()[:12]


def _request_run(core, payload):
    return str(payload.get("label", "")) if isinstance(payload, dict) else ""


def install(tracer: Tracer) -> None:
    """Wrap every traced layer boundary (undo with ``tracer.restore()``)."""
    rows = [
        # test stage internals, where repro.core.population binds them
        (population, "solve_alignment", "alignment", _rows(1)),
        (population, "weighted_median_rows", "weighted_median", _rows(0)),
        (alignment, "weighted_median_rows", "weighted_median", _rows(0)),
        (population, "run_batch_population", "population.batch", _chip_iters),
        (population, "shifted_slack_pass", "oracle", None),
        (yields, "sample_correlated_shard", "sampling", _sampled),
        # stages and what repro.api.stages calls
        (stages.AlignedTestStage, "run", "stages.test", None),
        (stages.PredictStage, "run", "stages.predict", None),
        (stages.ConfigureStage, "run", "stages.configure", None),
        (stages.VerifyStage, "run", "stages.verify", None),
        (ConditionalPredictor, "predict_intervals", "prediction", None),
        (stages, "configure_chips", "configuration", None),
        (stages, "configured_pass", "verify", None),
        (stages, "coarse_epsilon", "budget.coarse", None),
        (stages, "certify_refinement", "budget.certify", _certified),
        # offline
        (stages.OfflineStage, "run", "offline.prepare", None),
        (stages, "group_and_select", "grouping", None),
        (stages, "plan_multiplexing", "multiplexing", None),
        (stages, "compute_hold_bounds", "holdtime", None),
        (stages, "hold_feasible_settings", "holdtime", None),
        (generator, "generate_circuit", "circuit.generate", None),
        (protocol, "generate_circuit", "circuit.generate", None),
        # engine and preparation cache
        (engine.Engine, "prepare", "engine.prepare", None),
        (PreparationCache, "get_or_compute", "cache", None),
        (engine, "iter_shard_summaries", "engine.shard", None),
        # store and service
        (RunStore, "probe", "store.probe", None),
        (RunStore, "load", "store.load", None),
        (RunStore, "store", "store.write", None),
        (RunStore, "store_under_lease", "store.write", None),
        (daemon, "iter_shard_summaries", "engine.shard", None),
        (daemon, "shard_event", "protocol.encode", None),
        (daemon, "encode_event", "protocol.encode", None),
        (client, "decode_summary", "protocol.decode", None),
        (client, "decode_event", "protocol.decode", None),
        # the HTTP transport on both ends of a request
        (client.ServiceClient, "run", "service.transport", None),
        (daemon._ServiceHandler, "do_POST", "service.transport", None),
    ]
    for owner, attr, name, counts in rows:
        tracer.patch(owner, attr, name, counts)
    tracer.patch(RunStore, "lease", "store.lease", run=_lease_run, context=True)
    tracer.patch(daemon.ServiceCore, "handle", "service.handle",
                 run=_request_run)


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """The span-derived per-layer metrics (the rest come from the run)."""
    totals = layer_totals(spans)

    def get(name: str, key: str) -> float:
        return float(totals.get(name, {}).get(key, 0.0))

    cache_calls = get("cache", "calls")
    certified_chips = get("budget.certify", "chips")
    return {
        "alignment.self_s": get("alignment", "self_s"),
        "alignment.calls": get("alignment", "calls"),
        "alignment.rows": get("alignment", "rows"),
        "weighted_median.s": get("weighted_median", "self_s"),
        "weighted_median.rows": get("weighted_median", "rows"),
        "stages.test_s": get("stages.test", "total_s"),
        "stages.predict_s": get("stages.predict", "total_s"),
        "stages.configure_s": get("stages.configure", "total_s"),
        "stages.verify_s": get("stages.verify", "total_s"),
        "population.batch_s": get("population.batch", "self_s"),
        "population.chip_iters": get("population.batch", "chip_iters"),
        "oracle.s": get("oracle", "self_s"),
        "sampling.s": get("sampling", "self_s"),
        "sampling.chips": get("sampling", "chips"),
        "prediction.s": get("prediction", "self_s"),
        "configuration.s": get("configuration", "self_s"),
        "verify.s": get("verify", "self_s"),
        "engine.self_s": get("engine.shard", "self_s")
        + get("engine.prepare", "self_s"),
        "engine.shards": get("engine.shard", "items"),
        "budget.coarse_s": get("budget.coarse", "total_s"),
        "budget.coarse_calls": get("budget.coarse", "calls"),
        "budget.certify_s": get("budget.certify", "total_s"),
        "budget.certified_frac": (
            get("budget.certify", "certified") / certified_chips
            if certified_chips
            else 0.0
        ),
        "budget.rerun_chips": certified_chips - get("budget.certify", "certified"),
        "circuit.generate_s": get("circuit.generate", "total_s"),
        "offline.prepare_s": get("offline.prepare", "total_s"),
        "offline.prepares": get("offline.prepare", "calls"),
        "grouping.s": get("grouping", "self_s"),
        "multiplexing.s": get("multiplexing", "self_s"),
        "holdtime.s": get("holdtime", "self_s"),
        "cache.hit_frac": (
            1.0 - get("offline.prepare", "calls") / cache_calls
            if cache_calls
            else 0.0
        ),
        "store.probe_s": get("store.probe", "self_s"),
        "store.load_s": get("store.load", "self_s"),
        "store.write_s": get("store.write", "self_s"),
        "store.reads": get("store.load", "calls"),
        "store.writes": get("store.write", "calls"),
        "protocol.encode_s": get("protocol.encode", "self_s"),
        "service.transport_s": get("service.transport", "self_s"),
    }
