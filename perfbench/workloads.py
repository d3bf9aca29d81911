"""One run of one pipeline-benchmark workload, in a fresh process.

    python3 perfbench/workloads.py --workload ingest-downtown --seed 3 [--trace] [--warmup] [--score]

Builds the workload's inputs from the seed (set-up), runs the timed
phase through the layers' public functions, then scores the result
against ground truth and checks it.  Prints one JSON object on the last
line of standard output; ``perfbench/run.py`` starts these processes and
takes medians over them.

Workloads (see ``perfbench/README.md`` for why each exists):

* ``ingest-downtown`` -- raw reports on the 221-segment downtown network:
  map-match, aggregate into 30-minute slots, complete at the paper's
  (r, lambda), build the three ``apps`` services and answer a seeded
  stream of route, plan and congestion queries from one closed-loop
  client.
* ``reproduce-day`` -- the paper's estimation path on the same network:
  synthesize a day of ground truth, simulate the fleet, aggregate on the
  simulator's ids, tune (r, lambda) with the genetic tuner and complete.
* ``live-metro`` -- a replay of a working day's raw reports (07:00 to
  16:00) on the 5,812-segment metro network in fixed chunks of simulated
  time: each chunk is map-matched and fed to the sharded streaming
  estimator; every closed slot refreshes the services with the window's
  estimate and answers a standing query set.

Queries follow the request model of ``repro.experiments.serving_bench``:
its three per-app request generators, an equal number of requests per
app.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import resource
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Callable, Dict, List, Sequence, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from repro.apps.congestion import CongestionMonitor  # noqa: E402
from repro.apps.travel_time import TravelTimeService  # noqa: E402
from repro.apps.trip_planner import TripPlannerService  # noqa: E402
from repro.core.completion import CompressiveSensingCompleter  # noqa: E402
from repro.core.tcm import TimeGrid, TrafficConditionMatrix  # noqa: E402
from repro.core.tuning import GeneticTuner  # noqa: E402
from repro.experiments.serving_bench import (  # noqa: E402
    ServingBenchConfig,
    _congestion_requests,
    _travel_time_requests,
    _trip_planner_requests,
)
from repro.metrics.errors import nmae  # noqa: E402
from repro.metrics.route_errors import route_travel_time_errors  # noqa: E402
from repro.mobility.fleet import FleetConfig, FleetSimulator  # noqa: E402
from repro.probes.aggregation import (  # noqa: E402
    AggregationConfig,
    aggregate_reports,
    reports_per_cell,
)
from repro.probes.mapmatch import MapMatcher  # noqa: E402
from repro.probes.report import ReportBatch  # noqa: E402
from repro.roadnet.generators import shanghai_downtown_like, shanghai_inner_like  # noqa: E402
from repro.roadnet.network import RoadNetwork  # noqa: E402
from repro.scale import ShardedStreamingEstimator  # noqa: E402
from repro.traffic.groundtruth import GroundTruthTraffic  # noqa: E402
from repro.utils.rng import spawn_rngs  # noqa: E402

from spans import Tracer, summarize_ms  # noqa: E402

WORKLOADS = ("ingest-downtown", "reproduce-day", "live-metro")

# Input sizes of a counted run, and of the smaller warm-up run.
SIZES: Dict[str, Dict[str, Dict[str, float]]] = {
    "ingest-downtown": {
        "run": {"days": 1.0, "vehicles": 300, "queries": 3000},
        "warmup": {"days": 1.0, "vehicles": 30, "queries": 300},
    },
    "reproduce-day": {
        "run": {"days": 1.0, "vehicles": 400},
        "warmup": {"days": 1.0, "vehicles": 40},
    },
    # From 07:00, so the stream holds the morning peak, midday and the
    # start of the evening peak rather than a quiet night.
    "live-metro": {
        "run": {"start_h": 7.0, "hours": 9.0, "vehicles": 300},
        "warmup": {"start_h": 7.0, "hours": 2.0, "vehicles": 40},
    },
}

# The seed of a run drives the probe fleet (and the query stream of
# ingest-downtown): the reports the center receives.  The city stays the
# same across seeds -- network, ground truth, solver and tuner streams,
# standing queries and the routes route_err is scored on -- so that a
# metric's spread across seeds measures the program, not the city.
WORLD_SEED = 0
BASE_SLOT_S = 900.0  # ground truth is synthesized at 15 minutes ...
SLOT_S = 1800.0  # ... and the downtown TCMs use the paper's 30 minutes
METRO_SLOT_S = 300.0
CHUNK_S = 60.0  # simulated time per producer chunk on live-metro
SHARDS = 16
WINDOW_SLOTS = 24
# Routes scored by route_err.  The metro network has 26x the segments of
# the downtown one; 400 routes left its route_err spreading 16% across
# ten seeds, 1,600 routes 11%.
ROUTE_ERR_ROUTES = {"ingest-downtown": 400, "reproduce-day": 400, "live-metro": 1600}
STANDING_PER_APP = 2  # live-metro queries per app answered on every closed slot
AGG = AggregationConfig()  # the center's defaults: idle < 2 km/h, glitch > 150 km/h


def _ms(seconds: float) -> float:
    return seconds * 1e3


def report_hash(batch: ReportBatch) -> str:
    """SHA-256 over the raw report columns the program receives."""
    h = hashlib.sha256()
    for col in (batch.vehicle_ids, batch.times_s, batch.xs, batch.ys,
                batch.speeds_kmh, batch.headings_deg):
        h.update(np.ascontiguousarray(col).tobytes())
    return h.hexdigest()


def strip_ids(batch: ReportBatch) -> ReportBatch:
    """The reports as a monitoring center receives them: no segment id."""
    return ReportBatch.from_columns(
        batch.vehicle_ids, batch.times_s, batch.xs, batch.ys, batch.speeds_kmh,
        headings_deg=batch.headings_deg, assume_sorted=True,
    )


def slice_batch(batch: ReportBatch, lo: int, hi: int) -> ReportBatch:
    """Reports ``lo:hi`` of a time-ordered batch."""
    return ReportBatch.from_columns(
        batch.vehicle_ids[lo:hi], batch.times_s[lo:hi], batch.xs[lo:hi], batch.ys[lo:hi],
        batch.speeds_kmh[lo:hi], headings_deg=batch.headings_deg[lo:hi], assume_sorted=True,
    )


def concat(batches: List[ReportBatch]) -> ReportBatch:
    """The matched chunks of a stream as one batch, in arrival order."""
    def col(name: str) -> np.ndarray:
        return np.concatenate([getattr(b, name) for b in batches])
    return ReportBatch.from_columns(
        col("vehicle_ids"), col("times_s"), col("xs"), col("ys"), col("speeds_kmh"),
        col("segment_ids"), headings_deg=col("headings_deg"), assume_sorted=True,
    )


def simulate(tracer: Tracer, network: RoadNetwork, grid: TimeGrid, vehicles: int,
             traffic_rng: np.random.Generator, fleet_rng: np.random.Generator,
             ) -> Tuple[GroundTruthTraffic, ReportBatch]:
    """Ground truth plus the fleet's reports, each layer call in a span."""
    with tracer.span("traffic.synthesize"):
        truth = GroundTruthTraffic.synthesize(network, grid, seed=traffic_rng)
    with tracer.span("mobility.simulate"):
        reports = FleetSimulator(
            truth, FleetConfig(num_vehicles=vehicles), seed=fleet_rng
        ).run()
    return truth, reports


def completer(seed: int, rank: int = 2, lam: float = 100.0) -> CompressiveSensingCompleter:
    """Algorithm 1 as the center runs it (TrafficEstimator's production settings)."""
    return CompressiveSensingCompleter(
        rank=rank, lam=lam, center=True, clip_min=0.0, clip_max=150.0, seed=seed
    )


# ----------------------------------------------------------------------
# Report accounting, computed from the arrays by the benchmark itself and
# held against what the program returned.

def batch_accounting(truth_ids: np.ndarray, matched: ReportBatch, grid: TimeGrid,
                     segment_ids: Sequence[int]) -> Dict[str, Any]:
    """Where every report went: generated -> matched -> kept or dropped(reason)."""
    segs = matched.segment_ids
    is_matched = segs >= 0
    times, speeds = matched.times_s, matched.speeds_kmh
    out_of_window = is_matched & ~((times >= grid.start_s) & (times < grid.end_s))
    unknown = is_matched & ~out_of_window & ~np.isin(segs, np.asarray(segment_ids, np.int64))
    usable = is_matched & ~out_of_window & ~unknown
    idle = usable & (speeds < AGG.min_speed_kmh)
    glitch = usable & (speeds > AGG.max_speed_kmh)
    kept = usable & ~(idle | glitch)
    counts = {
        "generated": int(segs.size),
        "matched": int(is_matched.sum()),
        "unmatched": int((~is_matched).sum()),
        "kept": int(kept.sum()),
        "dropped_out_of_window": int(out_of_window.sum()),
        "dropped_unknown_segment": int(unknown.sum()),
        "dropped_idle": int(idle.sum()),
        "dropped_glitch": int(glitch.sum()),
    }
    has_truth = is_matched & (truth_ids >= 0)
    counts["agree"] = int((segs[has_truth] == truth_ids[has_truth]).sum())
    counts["matched_with_truth"] = int(has_truth.sum())
    return {"counts": counts, "kept": kept, "usable": usable}


def cell_keys(matched: ReportBatch, rows: np.ndarray, grid: TimeGrid,
              segment_ids: Sequence[int]) -> np.ndarray:
    """Flat (slot, column) cell index of each report selected by ``rows``."""
    col_of = {sid: j for j, sid in enumerate(segment_ids)}
    slots = ((matched.times_s[rows] - grid.start_s) // grid.slot_s).astype(np.int64)
    cols = np.array([col_of[int(s)] for s in matched.segment_ids[rows]], dtype=np.int64)
    return slots * len(segment_ids) + cols


def conservation_errors(raw: ReportBatch, matched: ReportBatch, acct: Dict[str, Any],
                        grid: TimeGrid, segment_ids: Sequence[int]) -> List[str]:
    """Reports are conserved, each side of the ledger from the program's output.

    The matcher returns every raw report, unchanged apart from its
    segment id, so generated = matched + unmatched.  Of the matched
    reports, the program's ``reports_per_cell`` counts exactly those the
    benchmark did not drop as out of window or on an unknown segment,
    cell by cell; the idle and glitch drops are held against the TCM
    itself (``tcm_cell_errors``, ``stream_cell_errors``).
    """
    errors = []
    if len(matched) != len(raw):
        errors.append(f"matcher returned {len(matched)} reports for {len(raw)}")
        return errors
    for col in ("vehicle_ids", "times_s", "xs", "ys", "speeds_kmh"):
        if not np.array_equal(getattr(matched, col), getattr(raw, col)):
            errors.append(f"matcher changed the reports' {col}")
    c = acct["counts"]
    program = reports_per_cell(matched, grid, segment_ids)
    usable = c["matched"] - c["dropped_out_of_window"] - c["dropped_unknown_segment"]
    if int(program.sum()) != usable:
        errors.append(f"program counts {int(program.sum())} usable reports, the ledger"
                      f" {usable} (matched - out of window - unknown segment)")
    elif not np.array_equal(program.ravel(), np.bincount(
            cell_keys(matched, acct["usable"], grid, segment_ids), minlength=program.size)):
        errors.append("program's reports per cell differ from the ledger's")
    return errors


def tcm_cell_errors(tcm: TrafficConditionMatrix, matched: ReportBatch,
                    kept: np.ndarray) -> List[str]:
    """The TCM observes exactly the cells of the kept reports, at their mean speed."""
    keys = cell_keys(matched, kept, tcm.grid, tcm.segment_ids)
    size = tcm.num_slots * tcm.num_segments
    sums = np.bincount(keys, weights=matched.speeds_kmh[kept], minlength=size)
    counts = np.bincount(keys, minlength=size)
    errors = []
    if not np.array_equal(counts.reshape(tcm.shape) > 0, tcm.mask):
        errors.append("TCM mask differs from the cells of the kept reports")
    else:
        observed = counts > 0
        means = sums[observed] / counts[observed]
        if not np.allclose(means, tcm.values.ravel()[observed], rtol=1e-12, atol=1e-9):
            errors.append("TCM values differ from the kept reports' mean speeds")
    return errors


# ----------------------------------------------------------------------
# Queries (set-up) and the closed-loop client (timed).

def make_queries(network: RoadNetwork, tcm: TrafficConditionMatrix, per_app: int,
                 seed: int) -> List[Tuple[str, Any]]:
    """``per_app`` requests per app from ``serving_bench``'s generators, interleaved."""
    config = ServingBenchConfig(requests_per_level=per_app, seed=seed)
    streams = [
        [("route", q) for q in _travel_time_requests(network, tcm, config)],
        [("plan", q) for q in _trip_planner_requests(network, tcm, config)],
        [("congestion", q) for q in _congestion_requests(network, tcm, config)],
    ]
    return [q for group in zip(*streams) for q in group]


def unreachable_pairs(network: RoadNetwork, queries: List[Tuple[str, Any]]
                      ) -> Set[Tuple[int, int]]:
    """The plan queries' (origin, destination) pairs with no directed path.

    For these the planner's correct answer is ``None``.
    """
    reach: Dict[int, Set[int]] = {}
    pairs = set()
    for kind, args in queries:
        if kind != "plan":
            continue
        origin, dest = args[0], args[1]
        if origin not in reach:
            seen, todo = {origin}, [origin]
            while todo:
                for seg in network.outgoing_segments(todo.pop()):
                    if seg.end not in seen:
                        seen.add(seg.end)
                        todo.append(seg.end)
            reach[origin] = seen
        if dest not in reach[origin]:
            pairs.add((origin, dest))
    return pairs


class Services:
    """The three ``apps`` services and a client that checks their answers."""

    def __init__(self, network: RoadNetwork, tcm: TrafficConditionMatrix,
                 unreachable: Set[Tuple[int, int]]) -> None:
        self.unreachable = unreachable
        self.wrong: List[str] = []  # answers that are finite but wrong
        self.travel = TravelTimeService(network, tcm)
        self.planner = TripPlannerService(network, tcm)
        self.congestion = CongestionMonitor(network, tcm)

    def refresh(self, tcm: TrafficConditionMatrix) -> None:
        self.travel.refresh(tcm)
        self.planner.refresh(tcm)
        self.congestion.refresh(tcm)

    def answer(self, tracer: Tracer, kind: str, args: Any) -> bool:
        """Answer one query as ``serving_bench`` does; True when the answer is finite.

        A plan is ``None`` exactly when its destination is unreachable;
        any other outcome is recorded in :attr:`wrong`.
        """
        try:
            with tracer.span("apps." + kind):
                if kind == "route":
                    value = self.travel.route_time_s(*args)
                elif kind == "plan":
                    plan = self.planner.plan(*args)
                    if (plan is None) != (args[:2] in self.unreachable):
                        self.wrong.append(f"plan {args!r}: reachability is wrong")
                    value = 0.0 if plan is None else plan.travel_time_s
                elif args[0] == "ranking":
                    value = sum(self.congestion.segment_ranking(args[1:]).scores)
                else:
                    value = sum(h.mean_congestion for h in self.congestion.hotspots(args[1]))
        except Exception:  # a failed query is counted, not fatal
            print(f"query {kind} {args!r} failed:", file=sys.stderr)
            traceback.print_exc()
            return False
        return math.isfinite(value)


# ----------------------------------------------------------------------
# Workloads.  Each has a set-up function (inputs from the seed) and a
# timed function; both take the tracer.

def setup_ingest_downtown(seed: int, size: Dict[str, float], tracer: Tracer) -> Dict[str, Any]:
    traffic_rng, solver_rng = spawn_rngs(WORLD_SEED, 2)
    fleet_rng, query_rng = spawn_rngs(seed, 2)
    network = shanghai_downtown_like(seed=0)
    fine, reports = simulate(tracer, network, TimeGrid.over_days(size["days"], BASE_SLOT_S),
                             int(size["vehicles"]), traffic_rng, fleet_rng)
    truth = fine.resample(SLOT_S).tcm
    queries = make_queries(network, truth, int(size["queries"]) // 3,
                           int(query_rng.integers(2**31)))
    return {
        "network": network,
        "truth": truth,
        "truth_ids": reports.segment_ids,
        "raw": strip_ids(reports),
        "matcher": MapMatcher(network),
        "completer": completer(int(solver_rng.integers(2**31))),
        "queries": queries,
        "unreachable": unreachable_pairs(network, queries),
    }


def run_ingest_downtown(ctx: Dict[str, Any], tracer: Tracer) -> Dict[str, Any]:
    network, truth, raw = ctx["network"], ctx["truth"], ctx["raw"]
    segment_ids = network.segment_ids
    answered: List[float] = []
    failed = 0
    with tracer.span("timed"):
        t0 = time.perf_counter()
        with tracer.span("mapmatch"):
            matched = ctx["matcher"].match_batch(raw)
        with tracer.span("aggregate"):
            measured = aggregate_reports(matched, truth.grid, segment_ids, AGG)
        with tracer.span("complete"):
            result = ctx["completer"].complete(measured)
        with tracer.span("apps.refresh"):
            estimate = TrafficConditionMatrix(result.estimate, grid=truth.grid,
                                              segment_ids=segment_ids)
            services = Services(network, estimate, ctx["unreachable"])
        for kind, args in ctx["queries"]:
            failed += not services.answer(tracer, kind, args)
            answered.append(time.perf_counter())
        t1 = time.perf_counter()

    acct = batch_accounting(ctx["truth_ids"], matched, truth.grid, segment_ids)
    errors = conservation_errors(raw, matched, acct, truth.grid, segment_ids)
    errors += tcm_cell_errors(measured, matched, acct["kept"])
    errors += services.wrong
    if not np.isfinite(result.estimate).all():
        errors.append("completed estimate is not finite")
    fresh = np.asarray(answered) - t0
    return {
        "t0": t0,
        "wall_s": t1 - t0,
        "reports": len(raw),
        "fresh_ms_p50": _ms(float(np.percentile(fresh, 50))),
        "fresh_ms_p90": _ms(float(np.percentile(fresh, 90))),
        "attempted": 4 + len(ctx["queries"]),
        "failed": failed,
        "errors": errors,
        "counts": acct["counts"],
        "estimate": estimate,
        "truth": truth,
        "layers": {
            "mapmatch.calls": 1,
            "complete.iterations": result.iterations_run,
            "apps.queries": len(ctx["queries"]),
        },
    }


def setup_reproduce_day(seed: int, size: Dict[str, float], tracer: Tracer) -> Dict[str, Any]:
    traffic_rng, tuner_rng, solver_rng = spawn_rngs(WORLD_SEED, 3)
    (fleet_rng,) = spawn_rngs(seed, 1)
    return {
        "network": shanghai_downtown_like(seed=0),
        "grid": TimeGrid.over_days(size["days"], BASE_SLOT_S),
        "vehicles": int(size["vehicles"]),
        "traffic_rng": traffic_rng,
        "fleet_rng": fleet_rng,
        "tuner": GeneticTuner(max_workers=None, seed=int(tuner_rng.integers(2**31))),
        "solver_seed": int(solver_rng.integers(2**31)),
    }


def run_reproduce_day(ctx: Dict[str, Any], tracer: Tracer) -> Dict[str, Any]:
    network = ctx["network"]
    segment_ids = network.segment_ids
    with tracer.span("timed"):
        t0 = time.perf_counter()
        fine, reports = simulate(tracer, network, ctx["grid"], ctx["vehicles"],
                                 ctx["traffic_rng"], ctx["fleet_rng"])
        with tracer.span("traffic.synthesize"):
            truth = fine.resample(SLOT_S).tcm
        with tracer.span("aggregate"):
            measured = aggregate_reports(reports, truth.grid, segment_ids, AGG)
        with tracer.span("tune"):
            tuning = ctx["tuner"].tune(measured)
        with tracer.span("complete"):
            result = completer(ctx["solver_seed"], tuning.rank, tuning.lam).complete(measured)
        t1 = time.perf_counter()

    acct = batch_accounting(reports.segment_ids, reports, truth.grid, segment_ids)
    # No matcher here: the simulator's ids are the matched ids.
    errors = conservation_errors(reports, reports, acct, truth.grid, segment_ids)
    errors += tcm_cell_errors(measured, reports, acct["kept"])
    if not np.isfinite(result.estimate).all():
        errors.append("completed estimate is not finite")
    stats = tuning.cache_stats
    return {
        "t0": t0,
        "wall_s": t1 - t0,
        "reports": len(reports),
        # One publication: the completed estimate.
        "fresh_ms_p50": _ms(t1 - t0),
        "fresh_ms_p90": _ms(t1 - t0),
        "attempted": 5,
        "failed": 0,
        "errors": errors,
        "counts": acct["counts"],
        "input_hash": report_hash(reports),
        "tuned": {"rank": tuning.rank, "lam": tuning.lam},
        "estimate": TrafficConditionMatrix(result.estimate, grid=truth.grid,
                                           segment_ids=segment_ids),
        "truth": truth,
        "layers": {
            "complete.iterations": result.iterations_run,
            "tune.evaluations": stats.evaluations,
            "tune.cache_hit_frac": stats.hits / stats.requested,
            "tune.generations": tuning.generations_run,
        },
    }


def setup_live_metro(seed: int, size: Dict[str, float], tracer: Tracer) -> Dict[str, Any]:
    traffic_rng, query_rng, stream_rng = spawn_rngs(WORLD_SEED, 3)
    (fleet_rng,) = spawn_rngs(seed, 1)
    network = shanghai_inner_like(seed=0)
    grid = TimeGrid.over_days(size["hours"] / 24.0, METRO_SLOT_S,
                              start_s=size["start_h"] * 3600.0)
    truth, reports = simulate(tracer, network, grid, int(size["vehicles"]),
                              traffic_rng, fleet_rng)
    raw = strip_ids(reports)
    bounds = np.searchsorted(raw.times_s, np.arange(grid.start_s, grid.end_s, CHUNK_S))
    bounds = np.r_[bounds, len(raw)]
    chunks = [slice_batch(raw, lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]
    segment_ids = network.segment_ids
    free_flow = np.array([network.segment(s).free_flow_kmh for s in segment_ids])
    prior = TrafficConditionMatrix(free_flow[None, :], grid=TimeGrid(grid.start_s, METRO_SLOT_S, 1),
                                   segment_ids=segment_ids)
    # Departure times and slots are set when a slot closes: the standing
    # queries ask about the newest slot and the current window.
    standing = make_queries(network, truth.tcm, STANDING_PER_APP,
                            int(query_rng.integers(2**31)))
    return {
        "network": network,
        "truth": truth.tcm,
        "truth_ids": reports.segment_ids,
        "raw": raw,
        "chunks": chunks,
        "matcher": MapMatcher(network),
        "stream": ShardedStreamingEstimator(
            network, shards=SHARDS, slot_s=METRO_SLOT_S, window_slots=WINDOW_SLOTS,
            start_s=grid.start_s, seed=int(stream_rng.integers(2**31)),
        ),
        "services": Services(network, prior, unreachable_pairs(network, standing)),
        "standing": standing,
    }


def run_live_metro(ctx: Dict[str, Any], tracer: Tracer) -> Dict[str, Any]:
    network, stream, services = ctx["network"], ctx["stream"], ctx["services"]
    segment_ids = network.segment_ids
    matched_chunks: List[ReportBatch] = []
    published: List[Any] = []
    fresh: List[float] = []
    closing: List[float] = []
    attempted = failed = 0

    def publish(closed: List[Any], handed: float) -> None:
        nonlocal attempted, failed
        for slot in closed:
            attempted += 1
            if not np.isfinite(slot.speeds_kmh).all():
                failed += 1
            published.append(slot)
        rows = published[-WINDOW_SLOTS:]
        with tracer.span("apps.refresh"):
            window = TrafficConditionMatrix(
                np.vstack([r.speeds_kmh for r in rows]),
                grid=TimeGrid(rows[0].slot_start_s, METRO_SLOT_S, len(rows)),
                segment_ids=segment_ids,
            )
            services.refresh(window)
        now = rows[-1].slot_start_s
        for kind, args in ctx["standing"]:
            if kind == "route":
                args = (args[0], now)
            elif kind == "plan":
                args = (args[0], args[1], now)
            elif args[0] == "ranking":
                args = ("ranking", 0, len(rows))
            else:
                args = ("hotspots", len(rows) - 1, 0)
            failed += not services.answer(tracer, kind, args)
        attempted += len(ctx["standing"])
        fresh.append(time.perf_counter() - handed)

    with tracer.span("timed"):
        t0 = time.perf_counter()
        for chunk in ctx["chunks"]:
            handed = time.perf_counter()
            attempted += 2
            with tracer.span("mapmatch"):
                matched = ctx["matcher"].match_batch(chunk)
            matched_chunks.append(matched)
            try:
                with tracer.span("stream.ingest") as span:
                    closed = stream.ingest_batch(matched)
            except Exception:  # a failed ingest is counted, not fatal
                traceback.print_exc()
                failed += 1
                continue
            if closed:
                if tracer.enabled:
                    closing.append(span.seconds)
                publish(closed, handed)
        handed = time.perf_counter()
        attempted += 1
        with tracer.span("stream.ingest"):
            last = stream.flush()
        publish([last], handed)
        t1 = time.perf_counter()

    raw = ctx["raw"]
    matched = concat(matched_chunks)
    truth = ctx["truth"]
    acct = batch_accounting(ctx["truth_ids"], matched, truth.grid, segment_ids)
    errors = conservation_errors(raw, matched, acct, truth.grid, segment_ids)
    errors += stream_cell_errors(published, matched, acct["usable"], truth.grid, segment_ids)
    errors += services.wrong
    rows = np.vstack([p.speeds_kmh for p in published])
    estimate = TrafficConditionMatrix(rows, grid=truth.grid, segment_ids=segment_ids)
    seconds = [float(s) for s in fresh]
    total = stream.recompletions + stream.recompletions_skipped
    return {
        "t0": t0,
        "wall_s": t1 - t0,
        "reports": len(raw),
        "fresh_ms_p50": _ms(float(np.percentile(seconds, 50))),
        "fresh_ms_p90": _ms(float(np.percentile(seconds, 90))),
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "counts": acct["counts"],
        "estimate": estimate,
        "truth": truth,
        "layers": {
            "mapmatch.calls": len(ctx["chunks"]),
            "stream.recompletions": stream.recompletions,
            "stream.skip_frac": stream.recompletions_skipped / total,
            "stream.slots": len(published),
            **summarize_ms("stream.closing_call", closing),
            "apps.queries": len(ctx["standing"]) * len(published),
        },
    }


def stream_cell_errors(published: List[Any], matched: ReportBatch, usable: np.ndarray,
                       grid: TimeGrid, segment_ids: Sequence[int]) -> List[str]:
    """One row per slot, each observing exactly the columns of its kept reports.

    The streaming estimator drops idle reports but has no glitch-speed
    filter, so reports above the aggregation's glitch bound count as kept
    here.
    """
    errors = []
    if len(published) != grid.num_slots:
        errors.append(f"{len(published)} rows published for {grid.num_slots} slots")
        return errors
    kept = usable & (matched.speeds_kmh >= AGG.min_speed_kmh)
    n = len(segment_ids)
    cells = np.unique(cell_keys(matched, kept, grid, segment_ids))
    observed = np.bincount(cells // n, minlength=grid.num_slots)
    reported = np.array([round(p.observed_fraction * n) for p in published])
    if not np.array_equal(observed, reported):
        errors.append("published observed fractions differ from the kept reports")
    return errors


SETUP: Dict[str, Callable[..., Dict[str, Any]]] = {
    "ingest-downtown": setup_ingest_downtown,
    "reproduce-day": setup_reproduce_day,
    "live-metro": setup_live_metro,
}
TIMED: Dict[str, Callable[..., Dict[str, Any]]] = {
    "ingest-downtown": run_ingest_downtown,
    "reproduce-day": run_reproduce_day,
    "live-metro": run_live_metro,
}


def input_hash(workload: str, seed: int, warmup: bool = False) -> str:
    """Hash of the report columns a workload generates from ``seed``."""
    size = SIZES[workload]["warmup" if warmup else "run"]
    tracer = Tracer(False)
    ctx = SETUP[workload](seed, size, tracer)
    if workload == "reproduce-day":
        _, reports = simulate(tracer, ctx["network"], ctx["grid"], ctx["vehicles"],
                              ctx["traffic_rng"], ctx["fleet_rng"])
        return report_hash(reports)
    return report_hash(ctx["raw"])


def layer_metrics(out: Dict[str, Any], tracer: Tracer) -> Dict[str, float]:
    """Per-layer metrics from the spans plus the layers' own return values."""
    c = out["counts"]
    layers = {
        "mapmatch.calls": 0,
        "complete.iterations": 0,
        "tune.evaluations": 0,
        "tune.cache_hit_frac": 0.0,
        "tune.generations": 0,
        "stream.recompletions": 0,
        "stream.skip_frac": 0.0,
        "stream.slots": 0,
        "stream.closing_call_ms_p50": 0.0,
        "stream.closing_call_ms_p90": 0.0,
        "apps.queries": 0,
    }
    layers.update(out["layers"])
    simulate_s = tracer.busy_s("mobility.simulate")
    layers["mobility.reports"] = c["generated"]
    mapmatch_s = tracer.busy_s("mapmatch")
    layers.update({
        "mobility.simulate_s": simulate_s,
        "mobility.reports_per_s": layers["mobility.reports"] / simulate_s,
        "traffic.synthesize_s": tracer.busy_s("traffic.synthesize"),
        "mapmatch.busy_s": mapmatch_s,
        "mapmatch.reports_per_s": c["generated"] / mapmatch_s if mapmatch_s else 0.0,
        "mapmatch.match_frac": c["matched"] / c["generated"] if mapmatch_s else 0.0,
        "mapmatch.agree_frac": agree_frac(c) if mapmatch_s else 0.0,
        "aggregate.busy_s": tracer.busy_s("aggregate"),
        "aggregate.kept_frac": c["kept"] / c["matched"],
        "complete.busy_s": tracer.busy_s("complete"),
        "tune.busy_s": tracer.busy_s("tune"),
        "stream.ingest_busy_s": tracer.busy_s("stream.ingest"),
        **summarize_ms("apps.refresh", tracer.durations("apps.refresh")),
        **summarize_ms("apps.route", tracer.durations("apps.route")),
        **summarize_ms("apps.plan", tracer.durations("apps.plan")),
        # The congestion monitor's queries: hotspots and rankings alternate.
        **summarize_ms("apps.hotspots", tracer.durations("apps.congestion")),
        "trace.unattributed_frac": tracer.unattributed_frac("timed"),
    })
    return layers


def agree_frac(counts: Dict[str, int]) -> float:
    """Matched reports whose id equals the simulator's, among those it knows."""
    return counts["agree"] / counts["matched_with_truth"]


def run_once(workload: str, seed: int, traced: bool, warmup: bool,
             scored: bool) -> Dict[str, Any]:
    tracer = Tracer(traced)
    ctx = SETUP[workload](seed, SIZES[workload]["warmup" if warmup else "run"], tracer)
    gc.collect()
    out = TIMED[workload](ctx, tracer)
    truth, estimate = out["truth"], out["estimate"]
    route_err = route_travel_time_errors(
        ctx["network"], truth, estimate, num_routes=ROUTE_ERR_ROUTES[workload],
        seed=WORLD_SEED).mean_relative_error if scored else None
    result = {
        "t0": out["t0"],
        "wall_s": out["wall_s"],
        "reports": out["reports"],
        "fresh_ms_p50": out["fresh_ms_p50"],
        "fresh_ms_p90": out["fresh_ms_p90"],
        "nmae": nmae(truth.values, estimate.values),
        "route_err": route_err,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "errors": out["errors"],
        "counts": out["counts"],
        "input_hash": out.get("input_hash") or report_hash(ctx["raw"]),
        "estimate_hash": hashlib.sha256(np.ascontiguousarray(estimate.values)).hexdigest(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    c = out["counts"]
    if c["matched_with_truth"] and workload != "reproduce-day":
        result["agree_frac"] = agree_frac(c)
    if "tuned" in out:
        result["tuned"] = out["tuned"]
    if traced:
        result["layers"] = layer_metrics(out, tracer)
        result["shares"] = tracer.shares("timed")
    return result


def main(argv: Sequence[str] = ()) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--warmup", action="store_true",
                        help="run the smaller warm-up inputs")
    parser.add_argument("--score", action="store_true",
                        help="score route_err (about 6 s on the metro network)")
    args = parser.parse_args(list(argv) or None)
    result = run_once(args.workload, args.seed, args.trace, args.warmup, args.score)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
