"""Tests for repro.scale.streaming (sharded sliding-window estimation)."""

import numpy as np
import pytest

from repro.probes.report import ProbeReport, ReportBatch
from repro.roadnet.generators import grid_city
from repro.scale import ShardedStreamingEstimator


@pytest.fixture(scope="module")
def network():
    return grid_city(4, 4, seed=0)


def _make_estimator(network, **kw):
    kw.setdefault("shards", 2)
    kw.setdefault("halo", 0)
    kw.setdefault("slot_s", 600.0)
    kw.setdefault("window_slots", 4)
    kw.setdefault("warm_iterations", 3)
    kw.setdefault("cold_iterations", 6)
    kw.setdefault("seed", 0)
    return ShardedStreamingEstimator(network, **kw)


def _reports(network, slots=6, per_slot=30, seed=0, segment_pool=None):
    """Synthetic time-ordered reports spread over the network."""
    rng = np.random.default_rng(seed)
    pool = list(segment_pool or network.segment_ids)
    reports = []
    for slot in range(slots):
        for k in range(per_slot):
            sid = int(pool[rng.integers(0, len(pool))])
            reports.append(
                ProbeReport(
                    vehicle_id=k,
                    time_s=slot * 600.0 + float(rng.uniform(0.0, 599.0)),
                    x=0.0,
                    y=0.0,
                    speed_kmh=float(rng.uniform(15.0, 60.0)),
                    segment_id=sid,
                )
            )
    reports.sort(key=lambda r: r.time_s)
    return reports


class TestIngest:
    def test_batch_closes_slots(self, network):
        est = _make_estimator(network)
        closed = est.ingest_many(_reports(network, slots=6))
        assert len(closed) == 5  # last slot still open
        assert est.estimates == closed
        n = network.num_segments
        for slot_est in closed:
            assert slot_est.speeds_kmh.shape == (n,)
            assert np.isfinite(slot_est.speeds_kmh).all()
            assert 0.0 < slot_est.observed_fraction <= 1.0
        assert est.recompletions > 0

    def test_flush_closes_open_slot(self, network):
        est = _make_estimator(network)
        est.ingest_many(_reports(network, slots=2))
        before = len(est.estimates)
        final = est.flush()
        assert len(est.estimates) == before + 1
        assert final is est.estimates[-1]

    def test_scalar_ingest_matches_batch(self, network):
        reports = _reports(network, slots=4, per_slot=20)
        batch_est = _make_estimator(network)
        batch_est.ingest_many(reports)
        scalar_est = _make_estimator(network)
        for report in reports:
            scalar_est.ingest(report)
        assert len(batch_est.estimates) == len(scalar_est.estimates)
        for a, b in zip(batch_est.estimates, scalar_est.estimates):
            assert a.slot_start_s == b.slot_start_s
            assert np.array_equal(a.speeds_kmh, b.speeds_kmh)
            assert a.observed_fraction == b.observed_fraction

    def test_late_reports_dropped(self, network):
        est = _make_estimator(network)
        est.ingest_many(_reports(network, slots=3))
        stale = ProbeReport(
            vehicle_id=0, time_s=0.0, x=0.0, y=0.0,
            speed_kmh=40.0, segment_id=int(network.segment_ids[0]),
        )
        assert est.ingest(stale) == []

    def test_unknown_and_idle_reports_filtered(self, network):
        est = _make_estimator(network, min_speed_kmh=2.0)
        batch = ReportBatch([
            ProbeReport(0, 10.0, 0.0, 0.0, speed_kmh=40.0, segment_id=10_000),
            ProbeReport(1, 20.0, 0.0, 0.0, speed_kmh=0.5,
                        segment_id=int(network.segment_ids[0])),
            ProbeReport(2, 30.0, 0.0, 0.0, speed_kmh=40.0, segment_id=-1),
        ])
        est.ingest_batch(batch)
        assert est._counts.sum() == 0

    def test_non_finite_time_dropped_without_moving_clock(self, network):
        from repro.obs import metrics as obs_metrics
        from repro.obs import trace as obs_trace

        sid = int(network.segment_ids[0])
        obs_trace.reset()
        obs_metrics.reset()
        obs_trace.enable()
        try:
            est = _make_estimator(network)
            est.ingest(ProbeReport(0, 100.0, 0.0, 0.0, speed_kmh=40.0, segment_id=sid))
            for t in (float("nan"), float("inf")):
                stray = ProbeReport(1, t, 0.0, 0.0, speed_kmh=40.0, segment_id=sid)
                assert est.ingest(stray) == []
            counters = obs_metrics.registry().snapshot()["counters"]
            assert counters["stream.rejected_time"] == 2.0
        finally:
            obs_trace.disable()
            obs_trace.reset()
            obs_metrics.reset()
        assert est._counts.sum() == 1
        assert est.flush().slot_start_s == 0.0

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_batch_drops_non_finite_times(self, network, bad):
        from repro.obs import metrics as obs_metrics
        from repro.obs import trace as obs_trace

        sid = int(network.segment_ids[0])
        times = np.array([100.0, bad, 700.0, bad])
        batch = ReportBatch.from_columns(
            np.arange(4), times, np.zeros(4), np.zeros(4), np.full(4, 40.0),
            segment_ids=np.full(4, sid), assume_sorted=True,
        )
        clean = ReportBatch.from_columns(
            np.arange(2), times[[0, 2]], np.zeros(2), np.zeros(2),
            np.full(2, 40.0), segment_ids=np.full(2, sid),
        )
        obs_trace.reset()
        obs_metrics.reset()
        obs_trace.enable()
        try:
            est = _make_estimator(network)
            closed = est.ingest_batch(batch)
            counters = obs_metrics.registry().snapshot()["counters"]
            assert counters["stream.rejected_time"] == 2.0
        finally:
            obs_trace.disable()
            obs_trace.reset()
            obs_metrics.reset()
        reference = _make_estimator(network)
        expected = reference.ingest_batch(clean)
        assert [c.slot_start_s for c in closed] == [0.0]
        assert np.array_equal(closed[0].speeds_kmh, expected[0].speeds_kmh)
        assert np.array_equal(est._counts, reference._counts)

    def test_trailing_dropped_reports_advance_clock(self, network):
        est = _make_estimator(network)
        batch = ReportBatch([
            ProbeReport(0, 100.0, 0.0, 0.0, speed_kmh=40.0,
                        segment_id=int(network.segment_ids[0])),
            ProbeReport(1, 1300.0, 0.0, 0.0, speed_kmh=40.0, segment_id=-1),
        ])
        closed = est.ingest_batch(batch)
        assert len(closed) == 2  # slots 0 and 1 closed by the stale report


class TestDirtyShardSkip:
    def test_quiet_shards_skip_recompletion(self, network):
        est = _make_estimator(network, shards=2)
        assert est.num_shards == 2
        quiet = est.shards[1]
        pool = est.shards[0].core_ids  # traffic only on shard 0
        est.ingest_many(_reports(network, slots=5, segment_pool=pool))
        assert est.recompletions_skipped > 0
        assert est.recompletions > 0
        # The quiet shard still publishes (zero) estimates for its columns.
        col_of = {sid: j for j, sid in enumerate(est.segment_ids)}
        cols = [col_of[s] for s in quiet.core_ids]
        for slot_est in est.estimates:
            assert np.all(slot_est.speeds_kmh[cols] == 0.0)

    def test_all_shards_dirty_when_covered(self, network):
        est = _make_estimator(network, shards=2)
        est.ingest_many(_reports(network, slots=4, per_slot=120))
        assert est.recompletions_skipped == 0


class TestDeterminism:
    def test_same_seed_same_stream(self, network):
        runs = []
        for _ in range(2):
            est = _make_estimator(network, shards=3, halo=1)
            est.ingest_many(_reports(network, slots=5))
            est.flush()
            runs.append(np.vstack([e.speeds_kmh for e in est.estimates]))
        assert np.array_equal(runs[0], runs[1])

    def test_halo_partition_stitches(self, network):
        est = _make_estimator(network, shards=3, halo=1)
        assert any(s.halo_ids for s in est.shards)
        closed = est.ingest_many(_reports(network, slots=4, per_slot=80))
        assert closed
        for slot_est in closed:
            assert np.isfinite(slot_est.speeds_kmh).all()
