"""WhoWas end-to-end benchmark: campaign → analysis → served queries.

Each workload is a declared shape (IPs × days × seed × workers) over
the EC2 simulator.  One run of a workload does the whole WhoWas path
once: build the scenario and open the store (set-up), run every scan
round of the calendar into the sqlite store, load and cluster the
finished store (§5), then start ``repro serve`` on it in its own
process and drive open-loop HTTP load at fixed rates and up to the
highest rate that still meets the latency limit.

Usage::

    python3 perfbench/run.py --workload campaign_warm --seed 7 \
        --seconds 10 --trace 0
    python3 perfbench/run.py --all          # every workload, one table

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` makes a
separate traced run that prints the per-layer ledger (see spans.py).
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Every run checks its
outputs (see gate.py) and exits nonzero when they are wrong.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import multiprocessing
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, replace
from multiprocessing import resource_tracker
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

sys.path.insert(0, str(HERE))
sys.path.insert(0, str(SRC))

from repro.analysis import clustering as clustering_module  # noqa: E402
from repro.analysis.clustering import WebpageClusterer  # noqa: E402
from repro.analysis.dataset import Dataset  # noqa: E402
from repro.core import WhoWas  # noqa: E402
from repro.core.store import MeasurementStore  # noqa: E402
from repro.core.store.base import rows_checksum  # noqa: E402
from repro.workloads import (  # noqa: E402
    SimTransportFactory,
    ec2_scenario,
    simulation_config,
)

import gate  # noqa: E402
import serveload  # noqa: E402
from spans import (  # noqa: E402
    LEAF_LAYERS,
    Patches,
    TracedTransportFactory,
    Tracer,
    TracingTransport,
    read_child_totals,
    trace_features_module,
    trace_shard_writes,
    trace_store,
)


@dataclass(frozen=True)
class Workload:
    """One declared shape of the WhoWas path."""

    name: str
    ips: int
    days: int
    #: Partition worker processes; 0 runs rounds in-process.
    workers: int
    #: Cold first rounds timed per run (the campaign's own included).
    #: An extra one also warms the process up before set-up is timed.
    first_rounds: int = 1


WORKLOADS = {
    # 11 rounds over 8,192 IPs: after round 1 nearly every page hits
    # the extractor's simhash cache, so steady rounds are bound by
    # store write / view fold plus scan and fetch, and the analysis
    # phase by the store's full scan.
    "campaign_warm": Workload("campaign_warm", ips=8192, days=31, workers=0,
                              first_rounds=2),
    # 2 rounds over 32,768 IPs through the worker pool: spawn,
    # per-partition journals and the checksum-verified merge.  Each
    # round starts fresh workers, so both rounds are cold-cache and
    # feature extraction (simhash) dominates, the opposite mix.
    "wide_cold_2w": Workload("wide_cold_2w", ips=32768, days=4, workers=2),
}

#: Serve-phase load shape: open loop, Poisson arrivals, at most two
#: connections in flight, every latency timed from the due time.  The
#: fixed rates are about 20% and 65% of the ≈440 rps that two
#: closed-loop connections reach on the 2-vCPU box.
FIXED_RATES = (100.0, 300.0)
P99_LIMIT_MS = 50.0
MAX_FAIL_SHARE = 0.01
MAX_INFLIGHT = 2
REQUEST_TIMEOUT_S = 2.0
#: The max-rate search bisects this range in SEARCH_STEPS steps, i.e.
#: to 450 / 2**4 ≈ 28 rps.
SEARCH_RANGE = (150.0, 600.0)
SEARCH_STEPS = 4
#: Share of ``--seconds`` spent at each fixed rate; the rest is split
#: evenly over the search steps.
RATE_SHARES = (0.55, 0.2)
#: Path mix per endpoint class, the weights of the repository's serve
#: overload bench (benchmarks/bench_serve.py, PATH_MIX): 7/11 per-IP
#: lookups, 2/11 round listings, 1/11 each round's stats and server
#: aggregate.  The per-IP share is spread evenly over every IP the last
#: round found responsive, so lookups stay cold in sqlite's page cache.
MIX_WEIGHTS = {"ip": 7.0, "rounds": 2.0, "round": 1.0, "clusters": 1.0}
SETUP_REPEATS = 5
SERVE_STARTS = 5
ANALYSIS_REPEATS = 2
#: The traced run fails when its leaf layers claim more CPU than the
#: process (plus its workers) used by more than this share.
LEDGER_TOLERANCE = 0.02

END_TO_END = {
    "setup_s": "s",
    "ingest_rec_per_s": "rec/s",
    "steady_round_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "store_bytes_per_json_byte": "B/B",
    "serve_cpu_ms_per_req": "ms",
}
#: Printed with the end-to-end table but not gated.  Serve latency and
#: the highest passing rate move by more than any allowed bound from
#: run to run on a shared 2-vCPU host (hypervisor steal bursts turn a
#: 5 ms p50 into 15 ms and collapse the 300 rps step), so they are
#: reported here and in the traced run, and the serve layer is gated on
#: its CPU per request instead.  The host's CPU also runs up to 1.6x
#: slower for minutes at a time on cache-heavy code, which moves the
#: analysis passes and the cold first rounds past the largest allowed
#: bound over ten runs; ``cpu_s`` and ``ingest_rec_per_s`` carry them
#: in the gate.  ``ops_failed_pct`` reads 0 on a clean run; the
#: result's ``attempted``/``failed`` carry its base.  Bytes per record
#: follow the seed's page mix (±8% between seeds), so the store's size
#: is gated as bytes per byte of the rows it holds.
REPORT_ONLY = {
    "first_round_s": "s",
    "analysis_s": "s",
    "store_bytes_per_rec": "B/rec",
    "serve_p50_ms_100rps": "ms",
    "serve_p99_ms_100rps": "ms",
    "serve_p50_ms_300rps": "ms",
    "serve_p99_ms_300rps": "ms",
    "serve_max_rps": "1/s",
    "ops_failed_pct": "%",
}

ENDPOINTS = ("ip", "rounds", "round", "clusters")
PER_LAYER = {
    "cloudsim.advance_s": "s",
    "cloudsim.probe_calls": "count",
    "cloudsim.probe_s": "s",
    "cloudsim.get_calls": "count",
    "cloudsim.get_s": "s",
    "cloudsim.banner_s": "s",
    "scanner.probes_sent": "count",
    "scanner.busy_s": "s",
    "scanner.backpressure_waits": "count",
    "fetcher.gets": "count",
    "fetcher.busy_s": "s",
    "features.pages": "count",
    "features.extract_s": "s",
    "features.extract_cpu_s": "s",
    "features.simhash_calls": "count",
    "features.simhash_s": "s",
    "features.cache_hit_ratio": "ratio",
    "guard.quarantined": "count",
    "pipeline.residual_cpu_s": "s",
    "store.write_calls": "count",
    "store.rows_written": "count",
    "store.write_s": "s",
    "store.write_cpu_s": "s",
    "store.write_wait_s": "s",
    "store.flushes": "count",
    "store.finalize_s": "s",
    "store.scan_rows": "count",
    "store.scan_s": "s",
    "store.ip_history_ms": "ms",
    "store.round_stats_ms": "ms",
    "store.aggregate_ms": "ms",
    "workers.children_cpu_s": "s",
    "workers.merge_s": "s",
    "workers.merge_rows": "count",
    "analysis.load_s": "s",
    "analysis.threshold_s": "s",
    "analysis.level2_s": "s",
    "analysis.cluster_s": "s",
    "analysis.unique_simhashes": "count",
    "serve.p50_ms_100rps": "ms",
    "serve.p99_ms_100rps": "ms",
    "serve.p50_ms_300rps": "ms",
    "serve.p99_ms_300rps": "ms",
    "serve.max_rps": "1/s",
    **{f"serve.http_ms_p50.{name}": "ms" for name in ENDPOINTS},
    "serve.status_200": "count",
    "serve.status_429": "count",
    "serve.status_503": "count",
    "loadgen.late_ms_p99": "ms",
    "loadgen.max_inflight": "count",
    "trace.overhead_pct": "%",
    "trace.attributed_pct": "%",
}


class GateFailure(Exception):
    """The run's outputs are wrong; the benchmark must not score it."""


# ----------------------------------------------------------------------
# measurement helpers


def cpu_now() -> float:
    """CPU seconds of this process plus its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def children_cpu() -> float:
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Peak resident set of this process or its largest child (KiB on
    Linux).  Both are lifetime peaks, so a process measures one
    workload only (``--all`` runs each in a process of its own)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def scaled(workload: Workload, scale: float) -> Workload:
    return replace(workload, ips=max(64, int(workload.ips * scale)))


# ----------------------------------------------------------------------
# phases


@dataclass
class Built:
    scenario: object
    store: MeasurementStore
    path: str


def build(workload: Workload, seed: int, path: str) -> Built:
    """The workload's simulated cloud and a fresh store at *path*."""
    scenario = ec2_scenario(
        total_ips=workload.ips, seed=seed, duration_days=workload.days
    )
    return Built(scenario, MeasurementStore(path), path)


def setup(workload: Workload, seed: int, workdir: str) -> tuple[Built, float]:
    """Build the scenario and open a fresh store, several times; keeps
    the last and returns the median set-up time."""
    times = []
    built = None
    for attempt in range(SETUP_REPEATS):
        if built is not None:
            # Free the previous scenario first, so the peak RSS holds
            # one scenario as a real campaign would.
            built.store.close()
            built = None
            gc.collect()
        began = time.perf_counter()
        built = build(workload, seed,
                      os.path.join(workdir, f"whowas-{attempt}.sqlite"))
        times.append(time.perf_counter() - began)
    return built, statistics.median(times)


def platform_for(workload: Workload, seed: int, scenario, store, *,
                 transport=None, factory_wrapper=None) -> WhoWas:
    config = simulation_config()
    factory = None
    if workload.workers > 1:
        config = replace(config,
                         workers=replace(config.workers, count=workload.workers))
        factory = SimTransportFactory({
            "cloud": "ec2", "ips": workload.ips, "seed": seed,
            "days": workload.days,
        })
        if factory_wrapper is not None:
            factory = factory_wrapper(factory)
    return WhoWas(transport or scenario.transport, store, config,
                  transport_factory=factory)


@dataclass
class CampaignRun:
    wall: float
    round_walls: list[float]
    summaries: list
    cpu: float


def run_campaign(built: Built, platform: WhoWas) -> CampaignRun:
    """Advance the cloud day by day and run the round on each scan day
    (the loop ``Campaign.run`` drives), timing each round."""
    scenario = built.scenario
    targets = scenario.targets
    round_walls, summaries = [], []
    cpu0 = cpu_now()
    began = time.perf_counter()
    for day in scenario.scan_days:
        round_began = time.perf_counter()
        scenario.simulation.advance_to(day)
        summaries.append(platform.run_round(targets, timestamp=day))
        round_walls.append(time.perf_counter() - round_began)
    wall = time.perf_counter() - began
    platform.close()
    built.store.close()
    return CampaignRun(wall, round_walls, summaries, cpu_now() - cpu0)


def run_analysis(path: str, tracer: Tracer | None = None):
    """Finished store → :class:`ClusteringResult`; returns
    ``(result, seconds, cpu seconds)``."""
    cpu0 = cpu_now()
    began = time.perf_counter()
    store = MeasurementStore.open_readonly(path)
    patches = Patches()
    try:
        if tracer is None:
            dataset = Dataset.from_store(store)
            result = WebpageClusterer().cluster(dataset)
        else:
            patches.set(store, "records",
                        tracer.wrap_iter("store.scan", store.records))
            patches.set(clustering_module, "select_threshold",
                        tracer.wrap("analysis.threshold",
                                    clustering_module.select_threshold))
            patches.set(clustering_module, "cluster_by_threshold",
                        tracer.wrap("analysis.level2",
                                    clustering_module.cluster_by_threshold))
            dataset = tracer.wrap("analysis.load", Dataset.from_store)(store)
            result = tracer.wrap("analysis.cluster",
                                 WebpageClusterer().cluster)(dataset)
    finally:
        patches.restore()
        store.close()
    return result, time.perf_counter() - began, cpu_now() - cpu0


def verified_digest(path: str, clustering) -> dict:
    """``verify_round`` on every round, then the store's digest."""
    store = MeasurementStore.open_readonly(path)
    try:
        problems = gate.verify_rounds(store)
        if problems:
            raise GateFailure("verify_round failed: " + "; ".join(problems))
        return gate.store_digest(store, clustering)
    finally:
        store.close()


def check_store(path: str, clustering, workload: Workload, seed: int,
                scale: float) -> tuple[dict, str]:
    """Verify every round and compare the digest with the recorded
    reference; returns ``(digest, note)`` or raises GateFailure."""
    digest = verified_digest(path, clustering)
    key = gate.reference_key(workload.name, seed, scale)
    reference = gate.load_references().get(key)
    if reference is None:
        return digest, f"no reference digest for {key}; verify_round only"
    problems = gate.compare(digest, reference)
    if problems:
        raise GateFailure("digest differs from reference: "
                          + "; ".join(problems[:5]))
    return digest, f"digest matches reference {key}"


def store_bytes(path: str) -> int:
    return sum(
        os.path.getsize(candidate)
        for candidate in (path, path + "-wal")
        if os.path.exists(candidate)
    )


# ----------------------------------------------------------------------
# serve phase


def serve_mix(path: str) -> tuple[list[str], list[float]]:
    """Every path the mix draws from, over what the store holds, and
    their cumulative weights (the schedule's seed picks among them)."""
    store = MeasurementStore.open_readonly(path)
    try:
        rounds = [info.round_id for info in store.rounds()]
        responsive = sorted(store.responsive_ips(rounds[-1]))
    finally:
        store.close()
    paths, cum_weights = [], []
    total = 0.0

    def add(group: list[str], kind: str) -> None:
        nonlocal total
        for item in group:
            total += MIX_WEIGHTS[kind] / len(group)
            paths.append(item)
            cum_weights.append(total)

    add([f"/ip/{ip >> 24 & 255}.{ip >> 16 & 255}.{ip >> 8 & 255}.{ip & 255}"
         for ip in responsive], "ip")
    add(["/rounds"], "rounds")
    add([f"/rounds/{rid}" for rid in rounds], "round")
    add([f"/clusters/{rid}?column=server" for rid in rounds], "clusters")
    return paths, cum_weights


@dataclass
class ServeRun:
    ready_s: float
    #: The fixed-rate steps, in FIXED_RATES order.
    steps: list
    max_rps: float
    #: Quiet-server body of every path answered 200 under load.
    reference_bodies: dict
    #: Server process CPU per request served at the fixed rates.
    cpu_ms_per_request: float


def start_server(path: str) -> tuple[serveload.ServeProcess, float]:
    """Start ``repro serve`` several times (the start-up time is part
    of set-up), keeping the last instance running."""
    times = []
    server = None
    for attempt in range(SERVE_STARTS):
        if server is not None:
            server.stop()
        server = serveload.ServeProcess(path, str(SRC))
        try:
            times.append(server.wait_ready())
        except BaseException:
            server.stop()
            raise
    return server, statistics.median(times)


def run_serve(path: str, seed: int, seconds: float) -> ServeRun:
    """The fixed-rate steps, then the max-rate search, against one
    ``repro serve`` process; every outcome of either goes through the
    serve gate."""
    paths, cum_weights = serve_mix(path)
    server, ready_s = start_server(path)
    every = []
    try:
        def step(rate: float, duration: float, salt: int):
            schedule = serveload.poisson_schedule(
                rate, duration, paths, cum_weights, seed * 1000 + salt
            )
            result = asyncio.run(serveload.run_open_loop(
                server.port, schedule, rate=rate, duration=duration,
                max_inflight=MAX_INFLIGHT, timeout=REQUEST_TIMEOUT_S,
            ))
            every.append(result)
            time.sleep(0.3)  # let the admission bucket refill
            return result

        server_cpu0 = server.cpu_seconds()
        steps = [
            step(rate, max(0.5, seconds * share), index)
            for index, (rate, share) in enumerate(zip(FIXED_RATES,
                                                      RATE_SHARES))
        ]
        served = sum(1 for result in steps for o in result.outcomes
                     if o.status == 200)
        server_cpu_ms = 1000.0 * (server.cpu_seconds() - server_cpu0) \
            / max(served, 1)
        search_seconds = max(
            0.5, seconds * (1 - sum(RATE_SHARES)) / SEARCH_STEPS
        )
        max_rps = search_max_rate(
            lambda rate, salt: step(rate, search_seconds, salt)
        )
        outcomes = [o for result in every for o in result.outcomes]
        # The reference bodies are fetched after the load, from the
        # quiet server: fetched before, they would warm the very pages
        # the lookups are meant to find cold.
        answered = sorted({o.path for o in outcomes if o.status == 200})
        quiet = asyncio.run(
            serveload.fetch_all(server.port, answered, MAX_INFLIGHT)
        )
    finally:
        server.stop()
    references = {}
    for item, outcome in quiet.items():
        if outcome.error or outcome.status != 200:
            raise GateFailure(
                f"GET {item} after load: {outcome.error or outcome.status}"
            )
        references[item] = outcome.body
    for outcome in outcomes:
        if outcome.error == "malformed":
            raise GateFailure(f"malformed response to {outcome.path}")
        if outcome.status and outcome.status not in \
                serveload.ALLOWED_STATUSES:
            raise GateFailure(
                f"status {outcome.status} for {outcome.path}"
            )
        if outcome.status == 200 and \
                outcome.body != references[outcome.path]:
            raise GateFailure(f"200 body of {outcome.path} changed "
                              "under load")
    return ServeRun(ready_s, steps, max_rps, references, server_cpu_ms)


def latency_metrics(serve: ServeRun, prefix: str) -> dict:
    """p50/p99 at each fixed rate and the highest passing rate."""
    metrics = {f"{prefix}max_rps": serve.max_rps}
    for step in serve.steps:
        rate = int(step.rate)
        metrics[f"{prefix}p50_ms_{rate}rps"] = step.latency_percentile(0.50)
        metrics[f"{prefix}p99_ms_{rate}rps"] = step.latency_percentile(0.99)
    return metrics


def search_max_rate(run_step) -> float:
    """Highest offered rate meeting the p99 limit with <1% failures and
    no growing backlog: bisection over a fixed range, so every run
    probes the same ladder whatever its fixed-rate steps did."""
    low, high = SEARCH_RANGE
    best = None
    for salt in range(SEARCH_STEPS):
        middle = (low + high) / 2
        result = run_step(middle, 100 + salt)
        if result.meets(P99_LIMIT_MS, MAX_FAIL_SHARE):
            low, best = middle, result
        else:
            high = middle
    # The rate the seeded schedule actually offered at the best step;
    # a run in which nothing passed reports the bottom of the range.
    return best.sent / best.duration if best is not None else SEARCH_RANGE[0]


# ----------------------------------------------------------------------
# one workload run


def failure_counts(campaign: CampaignRun, serve: ServeRun) -> tuple[int, int]:
    """``(attempted, failed)``: pages and rounds, plus requests sent at
    the fixed rates (search steps overload the server on purpose)."""
    pages = sum(s.fetched for s in campaign.summaries)
    quarantined = sum(s.quarantined for s in campaign.summaries)
    degraded = sum(1 for s in campaign.summaries if s.degraded)
    sent = sum(step.sent for step in serve.steps)
    refused = sum(len(step.failed()) for step in serve.steps)
    attempted = pages + len(campaign.summaries) + sent
    return attempted, quarantined + degraded + refused


def cold_first_rounds(workload: Workload, seed: int, workdir: str) -> list:
    """Wall times of extra first rounds, each on a fresh scenario,
    store and platform (so the simhash cache starts cold)."""
    walls = []
    for index in range(workload.first_rounds - 1):
        built = build(workload, seed,
                      os.path.join(workdir, f"first-{index}.sqlite"))
        scenario = built.scenario
        platform = platform_for(workload, seed, scenario, built.store)
        began = time.perf_counter()
        platform.run_round(scenario.targets, timestamp=scenario.scan_days[0])
        walls.append(time.perf_counter() - began)
        platform.close()
        built.store.close()
        del built, scenario, platform
        gc.collect()
    return walls


def end_to_end(workload: Workload, seed: int, seconds: float, scale: float,
               workdir: str) -> tuple[dict, int, int, list[str]]:
    first_rounds = cold_first_rounds(workload, seed, workdir)
    built, setup_s = setup(workload, seed, workdir)
    path = built.path
    campaign = run_campaign(built, platform_for(
        workload, seed, built.scenario, built.store
    ))
    # Analysis and queries run in processes of their own in practice:
    # drop the simulated cloud (and later the clustering) so the
    # collector does not walk them while those phases are timed.
    built.scenario = None
    gc.collect()
    times, cpus = [], []
    for _ in range(ANALYSIS_REPEATS):
        clustering = None
        gc.collect()
        clustering, elapsed, cpu = run_analysis(path)
        times.append(elapsed)
        cpus.append(cpu)
    analysis_s = statistics.median(times)
    cpu_s = campaign.cpu + statistics.median(cpus)
    rss = peak_rss_mb()
    digest, note = check_store(path, clustering, workload, seed, scale)
    del clustering
    gc.collect()
    serve = run_serve(path, seed, seconds)
    records = sum(s.pipeline.records_written for s in campaign.summaries)
    attempted, failed = failure_counts(campaign, serve)
    metrics = {
        "setup_s": setup_s + serve.ready_s,
        "ingest_rec_per_s": records / campaign.wall,
        "first_round_s": statistics.median(
            first_rounds + campaign.round_walls[:1]
        ),
        "steady_round_s": statistics.median(campaign.round_walls[1:]),
        "analysis_s": analysis_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": rss,
        "store_bytes_per_rec": store_bytes(path) / records,
        "store_bytes_per_json_byte": store_bytes(path) / digest["row_bytes"],
        "serve_cpu_ms_per_req": serve.cpu_ms_per_request,
        "ops_failed_pct": 100.0 * failed / attempted,
        **latency_metrics(serve, "serve_"),
    }
    notes = [
        note,
        f"{len(campaign.summaries)} rounds, {records} records, "
        f"{len(serve.reference_bodies)} distinct serve paths",
    ]
    return metrics, attempted, failed, notes


# ----------------------------------------------------------------------
# traced run


def traced_platform(workload: Workload, seed: int, built: Built,
                    tracer: Tracer, child_dir: str) -> tuple[WhoWas, Patches]:
    """A platform whose every layer call is wrapped in a span; undo the
    returned patches once the campaign is done."""
    patches = Patches()
    platform = platform_for(
        workload, seed, built.scenario, built.store,
        transport=TracingTransport(built.scenario.transport, tracer),
        factory_wrapper=lambda inner: TracedTransportFactory(
            inner, child_dir, tracer.run_id
        ),
    )
    simulation = built.scenario.simulation
    patches.set(simulation, "advance_to",
                tracer.wrap("cloudsim.advance", simulation.advance_to))
    patches.set(platform.features, "extract",
                tracer.wrap("features.extract", platform.features.extract))
    trace_features_module(tracer, patches)
    # In a worker-pool round the coordinator's write_shard calls are
    # the partition merge.
    merge_layer = "workers.merge" if workload.workers > 1 \
        else "store.write_shard"
    trace_store(tracer, patches, built.store, shard_layer=merge_layer)
    return platform, patches


def replay_on_workers(workload: Workload, seed: int, path: str,
                      workdir: str, tracer: Tracer) -> tuple[float, str]:
    """Replay an in-process campaign's last round on a two-worker pool
    into a fresh store and require the rows the in-process round wrote:
    the partition merge must not change what was measured.  It also
    gives the ``workers.*`` layers a measurement on every workload.
    Returns the workers' CPU seconds and a note."""
    pool = replace(workload, workers=2)
    built = build(pool, seed, os.path.join(workdir, "pool.sqlite"))
    scenario, store = built.scenario, built.store
    day = scenario.scan_days[-1]
    scenario.simulation.advance_to(day)
    patches = Patches()
    platform = platform_for(pool, seed, scenario, store)
    trace_shard_writes(tracer, patches, store, "workers.merge")
    children0 = children_cpu()
    try:
        replayed = platform.run_round(scenario.targets, timestamp=day)
    finally:
        patches.restore()
        platform.close()
    children = children_cpu() - children0
    try:
        report = store.verify_round(replayed.round_id)
        if not report.ok:
            raise GateFailure("worker replay: " + report.describe())
        pooled = _rows_without_round(store, replayed.round_id)
    finally:
        store.close()
    original = MeasurementStore.open_readonly(path)
    try:
        last = original.rounds()[-1]
        if _rows_without_round(original, last.round_id) != pooled:
            raise GateFailure(
                f"day {day} replayed on 2 workers differs from the "
                "in-process round"
            )
    finally:
        original.close()
    return children, f"day {day} replayed on 2 workers: identical rows"


def _rows_without_round(store, round_id: int) -> str:
    rows = []
    for record in store.records(round_id):
        row = record.to_row()
        del row["round_id"]
        rows.append(row)
    return rows_checksum(rows)


def traced(workload: Workload, seed: int, seconds: float, scale: float,
           workdir: str) -> tuple[dict, int, int, list[str]]:
    """Untraced pass (the overhead baseline), then the same campaign and
    analysis with every wrapper installed, then the fixed-rate serve
    steps with direct store reads over the same mix."""
    base_dir = os.path.join(workdir, "untraced")
    os.makedirs(base_dir)
    base, _ = setup(workload, seed, base_dir)
    base_campaign = run_campaign(base, platform_for(
        workload, seed, base.scenario, base.store
    ))
    base.scenario = None
    gc.collect()
    base_clustering, base_analysis_s, _ = run_analysis(base.path)
    base_wall = base_campaign.wall + base_analysis_s
    base_digest = verified_digest(base.path, base_clustering)
    del base_clustering

    trace_dir = os.path.join(workdir, "traced")
    os.makedirs(trace_dir)
    built, _ = setup(workload, seed, trace_dir)
    tracer = Tracer(f"{workload.name}-{seed}-{os.getpid()}")
    child_dir = os.path.join(trace_dir, "children")
    os.makedirs(child_dir)
    platform, patches = traced_platform(workload, seed, built, tracer,
                                        child_dir)

    process0 = time.process_time()
    children0 = children_cpu()
    try:
        campaign = run_campaign(built, platform)
    finally:
        patches.restore()
    campaign_process = time.process_time() - process0
    campaign_children = children_cpu() - children0
    built.scenario = None
    gc.collect()
    child_totals, child_reported, workers_seen = read_child_totals(child_dir)
    campaign_leaf = tracer.leaf_self_cpu()
    tracer.merge_totals(child_totals)
    campaign_attributed = campaign_leaf + sum(
        child_totals.get(name).self_cpu for name in LEAF_LAYERS
        if name in child_totals
    )
    campaign_total = campaign_process + campaign_children

    analysis_cpu0 = time.process_time()
    clustering, analysis_s, _ = run_analysis(built.path, tracer)
    analysis_total = time.process_time() - analysis_cpu0
    analysis_attributed = sum(
        tracer.layer(name).self_cpu for name in (
            "store.scan", "analysis.load", "analysis.threshold",
            "analysis.level2", "analysis.cluster",
        )
    )
    for label, attributed, total in (
        ("campaign", campaign_attributed, campaign_total),
        ("analysis", analysis_attributed, analysis_total),
    ):
        if attributed > total * (1 + LEDGER_TOLERANCE) + 0.01:
            raise GateFailure(
                f"{label} ledger double counts: layers claim "
                f"{attributed:.3f} CPU s of {total:.3f}"
            )

    digest, note = check_store(built.path, clustering, workload, seed, scale)
    if digest != base_digest:
        raise GateFailure("traced run wrote a different store than the "
                          "untraced run")
    traced_wall = campaign.wall + analysis_s
    workers_cpu, notes_extra = campaign_children, []
    if workload.workers <= 1:
        workers_cpu, replay_note = replay_on_workers(
            workload, seed, built.path, trace_dir, tracer
        )
        notes_extra.append(replay_note)
    # Self times are folded into the totals as spans close; release
    # the span list so the collector does not walk it during serving.
    span_count = len(tracer.spans)
    tracer.spans.clear()
    del clustering
    gc.collect()
    serve = run_serve(built.path, seed, seconds)
    reads = direct_reads(built.path, serve, tracer)
    attempted, failed = failure_counts(campaign, serve)

    layer = tracer.layer
    stages = {}
    for summary in campaign.summaries:
        pipeline = summary.pipeline
        # A multi-process round keeps its stage stats per partition.
        views = list(pipeline.partitions.values()) or [pipeline.stages]
        for name, stage in (item for view in views
                            for item in view.items()):
            totals = stages.setdefault(name, [0, 0.0, 0])
            totals[0] += stage.items
            totals[1] += stage.busy_seconds
            totals[2] += stage.backpressure_waits
    operations = 0
    store = MeasurementStore.open_readonly(built.path)
    try:
        for summary in campaign.summaries:
            operations += store.shard_stats(summary.round_id)[1]
    finally:
        store.close()
    writes = layer("store.write_shards")
    shard_writes = layer("store.write_shard")
    extract = layer("features.extract")
    simhash = layer("features.simhash")
    fixed = serve.steps[0]
    by_class: dict[str, list[float]] = {name: [] for name in ENDPOINTS}
    statuses: dict[int, int] = {}
    late = []
    for step in serve.steps:
        for outcome in step.outcomes:
            statuses[outcome.status] = statuses.get(outcome.status, 0) + 1
            late.append(outcome.late_ms)
    for outcome in fixed.outcomes:
        if outcome.status == 200:
            by_class[serveload.endpoint_class(outcome.path)].append(
                outcome.latency_ms
            )
    metrics = {
        "cloudsim.advance_s": layer("cloudsim.advance").wall,
        "cloudsim.probe_calls": layer("cloudsim.probe").calls,
        "cloudsim.probe_s": layer("cloudsim.probe").wall,
        "cloudsim.get_calls": layer("cloudsim.get").calls,
        "cloudsim.get_s": layer("cloudsim.get").wall,
        "cloudsim.banner_s": layer("cloudsim.banner").wall,
        "scanner.probes_sent": operations - stages["fetch"][0],
        "scanner.busy_s": stages["scan"][1],
        "scanner.backpressure_waits": stages["scan"][2],
        "fetcher.gets": stages["fetch"][0],
        "fetcher.busy_s": stages["fetch"][1],
        "features.pages": extract.calls,
        "features.extract_s": extract.wall,
        "features.extract_cpu_s": extract.self_cpu,
        "features.simhash_calls": simhash.calls,
        "features.simhash_s": simhash.wall,
        "features.cache_hit_ratio": (
            1.0 - simhash.calls / extract.calls if extract.calls else 0.0
        ),
        "guard.quarantined": sum(s.quarantined for s in campaign.summaries),
        "pipeline.residual_cpu_s": campaign_total - campaign_attributed,
        "store.write_calls": writes.calls + shard_writes.calls,
        "store.rows_written": writes.items + shard_writes.items,
        "store.write_s": writes.wall + shard_writes.wall,
        "store.write_cpu_s": writes.cpu + shard_writes.cpu,
        "store.write_wait_s": (writes.wall + shard_writes.wall
                               - writes.cpu - shard_writes.cpu),
        "store.flushes": sum(s.pipeline.writer_flushes
                             for s in campaign.summaries),
        "store.finalize_s": layer("store.finalize_round").wall,
        "store.scan_rows": layer("store.scan").items,
        "store.scan_s": layer("store.scan").wall,
        **reads,
        "workers.children_cpu_s": workers_cpu,
        "workers.merge_s": layer("workers.merge").wall,
        "workers.merge_rows": layer("workers.merge").items,
        "analysis.load_s": layer("analysis.load").self_wall,
        "analysis.threshold_s": layer("analysis.threshold").wall,
        "analysis.level2_s": layer("analysis.level2").wall,
        "analysis.cluster_s": layer("analysis.cluster").wall,
        "analysis.unique_simhashes": digest["funnel"]["unique_simhashes"],
        **latency_metrics(serve, "serve."),
        **{f"serve.http_ms_p50.{name}": (serveload.percentile(values, 0.5)
                                         if values else 0.0)
           for name, values in by_class.items()},
        "serve.status_200": statuses.get(200, 0),
        "serve.status_429": statuses.get(429, 0),
        "serve.status_503": statuses.get(503, 0),
        "loadgen.late_ms_p99": serveload.percentile(late, 0.99),
        "loadgen.max_inflight": max(s.max_inflight for s in serve.steps),
        "trace.overhead_pct": 100.0 * (traced_wall - base_wall) / base_wall,
        "trace.attributed_pct": 100.0 * campaign_attributed / campaign_total,
    }
    notes = [
        note,
        "traced and untraced stores have identical digests",
        f"ledger: campaign layers {campaign_attributed:.3f} of "
        f"{campaign_total:.3f} CPU s (process {campaign_process:.3f} + "
        f"{workers_seen} workers {campaign_children:.3f}, workers reported "
        f"{child_reported:.3f}); analysis {analysis_attributed:.3f} of "
        f"{analysis_total:.3f}; tolerance {LEDGER_TOLERANCE:.0%}",
        f"{span_count} spans in the coordinator, run id {tracer.run_id}",
        *notes_extra,
    ]
    return metrics, attempted, failed, notes


def direct_reads(path: str, serve: ServeRun, tracer: Tracer) -> dict:
    """The store calls behind each endpoint, made directly over the
    same request mix the 100 rps step sent, in milliseconds per call."""
    store = MeasurementStore.open_readonly(path)
    calls = {
        "ip": ("store.ip_history", store.ip_history_rows),
        "round": ("store.round_stats", store.round_stats),
        "clusters": ("store.aggregate", store.aggregate_column),
    }
    wrapped = {kind: tracer.wrap(name, fn) for kind, (name, fn) in
               calls.items()}
    try:
        for outcome in serve.steps[0].outcomes:
            kind = serveload.endpoint_class(outcome.path)
            if kind not in wrapped:
                continue
            tail = outcome.path.split("/")[2].split("?")[0]
            if kind == "ip":
                a, b, c, d = (int(part) for part in tail.split("."))
                wrapped[kind]((a << 24) | (b << 16) | (c << 8) | d)
            elif kind == "round":
                wrapped[kind](int(tail))
            else:
                wrapped[kind](int(tail), "server")
    finally:
        store.close()
    out = {}
    for kind, (name, _) in calls.items():
        totals = tracer.layer(name)
        out[f"{name}_ms"] = (1000.0 * totals.wall / totals.calls
                             if totals.calls else 0.0)
    return out


# ----------------------------------------------------------------------
# entry points


def run_one(name: str, seed: int, seconds: float, trace: bool,
            scale: float) -> dict:
    """One run of one workload; the result object for the last line."""
    workload = scaled(WORKLOADS[name], scale)
    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=WORK)
    try:
        measure = traced if trace else end_to_end
        metrics, attempted, failed, notes = measure(
            workload, seed, seconds, scale, workdir
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    units = PER_LAYER if trace else END_TO_END
    shown = PER_LAYER if trace else {**END_TO_END, **REPORT_ONLY}
    print(f"# {name}: {workload.ips} IPs x {workload.days} days, seed "
          f"{seed}, workers {workload.workers}")
    for note in notes:
        print(f"#   {note}")
    for metric, unit in shown.items():
        print(f"{name:14s} {metric:28s} {metrics[metric]:14.6g} {unit}")
    return {
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            metric: {"value": float(metrics[metric]), "unit": unit}
            for metric, unit in units.items()
        },
    }


def record_reference(name: str, seed: int, scale: float) -> None:
    """Run the campaign and analysis and store their digest as the
    reference later runs must reproduce."""
    workload = scaled(WORKLOADS[name], scale)
    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"ref-{name}-", dir=WORK)
    try:
        built, _ = setup(workload, seed, workdir)
        run_campaign(built, platform_for(workload, seed, built.scenario,
                                         built.store))
        clustering, _, _ = run_analysis(built.path)
        digest = verified_digest(built.path, clustering)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    key = gate.reference_key(name, seed, scale)
    gate.save_reference(key, digest)
    print(f"recorded {key}")


def stop_resource_tracker() -> None:
    """Stop multiprocessing's resource tracker and wait for it.

    Spawning the partition workers starts a tracker process that would
    otherwise outlive this process for a moment and, where nothing
    reaps orphans, stay behind as a zombie.  Workers still alive (a run
    cut short mid-round) hold its pipe open, so they go first."""
    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    resource_tracker._resource_tracker._stop()


def _exit_on_sigterm(signum, frame) -> None:
    # Raise instead of dying, so every ``finally`` stops what it started.
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    try:
        return _main(argv)
    finally:
        stop_resource_tracker()


def _main(argv: list[str] | None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--all", action="store_true",
                        help="run every workload and print every metric")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="offered-load time of the serve phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="fraction of each workload's IPs (tests)")
    parser.add_argument("--record-reference", action="store_true",
                        help="store this seed's digest as the reference")
    args = parser.parse_args(argv)
    names = sorted(WORKLOADS) if args.all else [args.workload]
    if names == [None]:
        parser.error("give --workload or --all")
    if args.record_reference:
        for name in names:
            record_reference(name, args.seed, args.scale)
        return 0
    if args.all:
        return run_all(names, args)
    try:
        result = run_one(args.workload, args.seed, args.seconds,
                         bool(args.trace), args.scale)
    except GateFailure as exc:
        print(f"{args.workload}: correctness gate FAILED: {exc}",
              file=sys.stderr)
        return 1
    print(json.dumps(result, sort_keys=True))
    return 0


def run_all(names: list[str], args) -> int:
    """Each workload in a fresh process of its own, so that lifetime
    figures such as the peak RSS belong to that workload alone."""
    results = {}
    for name in names:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--scale", str(args.scale)],
            stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.splitlines()
        if proc.returncode != 0:
            print("\n".join(lines), flush=True)
            return proc.returncode
        print("\n".join(lines[:-1]), flush=True)
        results[name] = json.loads(lines[-1])
    print(json.dumps(results, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
