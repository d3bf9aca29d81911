"""Map matching: assigning GPS fixes to road segments.

The monitoring center receives raw (x, y) positions; before aggregation
each fix must be attributed to a road segment.  We use nearest-segment
matching with a uniform grid spatial index so matching stays fast on
metropolitan-scale networks (thousands of segments, millions of fixes).
GPS error in urban canyons can exceed the matching radius, in which case
the fix is discarded (returned as ``-1``) rather than mis-attributed.

Two implementations share the same semantics:

* the **scalar** path (:meth:`MapMatcher.match_point`) — one ring search
  per report, kept as the readable reference;
* the **vectorized** path (:meth:`MapMatcher.match_arrays`) — reports
  are grouped by grid cell, each cell's candidate segments are gathered
  once into precomputed endpoint arrays, and a single broadcast
  point-to-segment distance computation scores every (report, candidate)
  pair at once.  Candidate order, the distance gate, heading penalties,
  and first-wins tie-breaking replicate the scalar loop exactly, so both
  paths return identical segment ids (enforced by property tests and the
  ``repro bench`` ingestion suite).
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.utils.contracts import hot_path
from repro.roadnet.geometry import Point, heading_deg, point_segment_distance
from repro.roadnet.network import RoadNetwork
from repro.probes.report import ReportBatch
from repro.utils.validation import check_positive

MATCH_METHODS = ("vectorized", "scalar")


def derive_cell_m(
    network: RoadNetwork, pad_m: float = 60.0, segments_per_cell: float = 8.0
) -> float:
    """Pick a grid cell size from the network's segment density.

    Sizes the cell so an average cell holds about ``segments_per_cell``
    segments: dense downtowns get small cells (short candidate lists),
    sparse metros get large ones (few empty cells).  Clamped to
    ``[max(100, 2 * pad_m), 1600]`` metres so neither a degenerate
    bounding box nor extreme density produces a pathological grid;
    correctness never depends on the value because ``pad_m`` registers
    every segment in all cells within the matching radius.
    """
    min_x, min_y, max_x, max_y = network.bounding_box()
    area = (max_x - min_x) * (max_y - min_y)
    lo = max(100.0, 2.0 * pad_m)
    if area <= 0.0:
        return lo
    cell = math.sqrt(segments_per_cell * area / network.num_segments)
    return float(min(1600.0, max(lo, cell)))


class GridIndex:
    """Uniform-grid spatial index over road segments.

    Each segment is registered in every cell its bounding box overlaps
    (padded by ``pad_m``), so a nearest-segment query only inspects the
    cells around the query point.

    ``cell_m=None`` (the default) derives the cell size from segment
    density via :func:`derive_cell_m`.  Construction is array-based:
    per-segment cell ranges are computed vectorized and bulk-grouped
    into cells with one stable sort, so indexing a metropolitan network
    does no per-segment Python work.  Cell membership lists stay in
    segment-id order — the first-wins tie-breaking of the matchers
    depends on it.
    """

    def __init__(
        self,
        network: RoadNetwork,
        cell_m: Optional[float] = None,
        pad_m: float = 60.0,
    ):
        if pad_m < 0:
            raise ValueError(f"pad_m must be >= 0, got {pad_m}")
        if cell_m is None:
            cell_m = derive_cell_m(network, pad_m)
        check_positive(cell_m, "cell_m")
        self.network = network
        self.cell_m = cell_m
        self.pad_m = pad_m
        self._cells: Dict[Tuple[int, int], List[int]] = self._build_cells()
        # (cx, cy, rings) -> candidate segment ids as an int64 array, in
        # exactly the order candidates() yields them (first-wins ties in
        # the vectorized matcher then agree with the scalar loop).
        self._array_cache: Dict[Tuple[int, int, int], np.ndarray] = {}

    def _build_cells(self) -> Dict[Tuple[int, int], List[int]]:
        """Bulk-assign every segment to the cells its padded bbox overlaps."""
        segments = self.network.segments()
        seg_ids = np.fromiter(
            (s.segment_id for s in segments), np.int64, len(segments)
        )
        sx = np.fromiter((s.start_point.x for s in segments), np.float64, len(segments))
        sy = np.fromiter((s.start_point.y for s in segments), np.float64, len(segments))
        ex = np.fromiter((s.end_point.x for s in segments), np.float64, len(segments))
        ey = np.fromiter((s.end_point.y for s in segments), np.float64, len(segments))
        pad, cell = self.pad_m, self.cell_m
        cx0 = np.floor((np.minimum(sx, ex) - pad) / cell).astype(np.int64)
        cx1 = np.floor((np.maximum(sx, ex) + pad) / cell).astype(np.int64)
        cy0 = np.floor((np.minimum(sy, ey) - pad) / cell).astype(np.int64)
        cy1 = np.floor((np.maximum(sy, ey) + pad) / cell).astype(np.int64)

        # Expand each segment to one row per overlapped cell.
        nx = cx1 - cx0 + 1
        ny = cy1 - cy0 + 1
        counts = nx * ny
        total = int(counts.sum())
        rows = np.repeat(np.arange(seg_ids.size), counts)
        starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
        k = np.arange(total) - np.repeat(starts, counts)
        cxs = cx0[rows] + k // ny[rows]
        cys = cy0[rows] + k % ny[rows]

        # Group rows by cell.  The expansion above emits segments in id
        # order, so a stable sort keeps each cell's membership list in
        # id order — the invariant the first-wins matchers rely on.
        height = int(cys.max() - cys.min()) + 1 if total else 1
        key = (cxs - (cxs.min() if total else 0)) * height + (
            cys - (cys.min() if total else 0)
        )
        order = np.argsort(key, kind="stable")
        skey = key[order]
        sseg = seg_ids[rows[order]]
        scx = cxs[order]
        scy = cys[order]
        cells: Dict[Tuple[int, int], List[int]] = defaultdict(list)
        bounds = np.flatnonzero(np.r_[True, skey[1:] != skey[:-1]])
        ends = np.r_[bounds[1:], skey.size]
        for lo, hi in zip(bounds, ends):
            cells[(int(scx[lo]), int(scy[lo]))] = sseg[lo:hi].tolist()
        return cells

    def _coord(self, v: float) -> int:
        return int(math.floor(v / self.cell_m))

    def candidates(self, point: Point, rings: int = 1) -> List[int]:
        """Segment ids registered near ``point`` (cell plus ``rings`` around)."""
        cx, cy = self._coord(point.x), self._coord(point.y)
        out: List[int] = []
        for dx in range(-rings, rings + 1):
            for dy in range(-rings, rings + 1):
                out.extend(self._cells.get((cx + dx, cy + dy), ()))
        return out

    def cell_coords(self, xs: np.ndarray, ys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Grid coordinates of many query points at once."""
        cxs = np.floor(np.asarray(xs, dtype=np.float64) / self.cell_m).astype(np.int64)
        cys = np.floor(np.asarray(ys, dtype=np.float64) / self.cell_m).astype(np.int64)
        return cxs, cys

    def candidate_array(self, cx: int, cy: int, rings: int = 1) -> np.ndarray:
        """Candidate ids for one cell as an array (memoized, scalar order)."""
        key = (cx, cy, rings)
        cached = self._array_cache.get(key)
        if cached is None:
            out: List[int] = []
            for dx in range(-rings, rings + 1):
                for dy in range(-rings, rings + 1):
                    out.extend(self._cells.get((cx + dx, cy + dy), ()))
            cached = np.asarray(out, dtype=np.int64)
            self._array_cache[key] = cached
        return cached

    @property
    def num_cells(self) -> int:
        return len(self._cells)


class MapMatcher:
    """Nearest-segment map matcher with a bounded matching radius.

    When a report carries a GPS heading, matching is heading-aware: a
    candidate whose direction of travel disagrees with the course is
    penalized by up to ``heading_penalty_m`` (at a 180-degree
    disagreement), which reliably separates the two directions of a
    two-way street — geometrically identical, directionally opposite.

    Parameters
    ----------
    network:
        Network to match against.
    max_distance_m:
        Fixes farther than this from every segment are rejected (-1).
    cell_m:
        Spatial index cell size; ``None`` (default) derives it from the
        network's segment density (:func:`derive_cell_m`).
    heading_penalty_m:
        Distance-equivalent penalty at full heading disagreement.
    """

    def __init__(
        self,
        network: RoadNetwork,
        max_distance_m: float = 50.0,
        cell_m: Optional[float] = None,
        heading_penalty_m: float = 30.0,
    ):
        check_positive(max_distance_m, "max_distance_m")
        if heading_penalty_m < 0:
            raise ValueError("heading_penalty_m must be >= 0")
        self.network = network
        self.max_distance_m = max_distance_m
        self.heading_penalty_m = heading_penalty_m
        # cell_m=None lets the index derive the cell size from segment
        # density; pad_m=max_distance_m guarantees ring-1 correctness
        # regardless of the derived value.
        self.index = GridIndex(network, cell_m=cell_m, pad_m=max_distance_m)
        self._courses: Dict[int, float] = {
            seg.segment_id: heading_deg(seg.start_point, seg.end_point)
            for seg in network.segments()
        }
        # Columnar segment geometry in canonical (sorted-id) order: the
        # vectorized matcher gathers candidate endpoints from these
        # arrays instead of touching Segment objects per report.
        segments = network.segments()
        self._sorted_ids = np.asarray(network.segment_ids, dtype=np.int64)
        self._ax = np.array([s.start_point.x for s in segments], dtype=np.float64)
        self._ay = np.array([s.start_point.y for s in segments], dtype=np.float64)
        self._vx = np.array(
            [s.end_point.x - s.start_point.x for s in segments], dtype=np.float64
        )
        self._vy = np.array(
            [s.end_point.y - s.start_point.y for s in segments], dtype=np.float64
        )
        self._len_sq = self._vx**2 + self._vy**2
        self._course_arr = np.array(
            [self._courses[int(sid)] for sid in self._sorted_ids], dtype=np.float64
        )
        # (cx, cy, rings) -> candidate *row* indices into the arrays above.
        self._row_cache: Dict[Tuple[int, int, int], np.ndarray] = {}

    def _heading_cost(self, segment_id: int, course_deg: Optional[float]) -> float:
        if course_deg is None or course_deg != course_deg:  # None or NaN
            return 0.0
        diff = abs(self._courses[segment_id] - course_deg) % 360.0
        diff = min(diff, 360.0 - diff)
        return self.heading_penalty_m * diff / 180.0

    def match_point(
        self, point: Point, heading: Optional[float] = None
    ) -> int:
        """Best segment id by distance (+ heading penalty); ``-1`` if none.

        The distance gate (``max_distance_m``) applies to the geometric
        distance only; heading merely re-ranks candidates inside it.
        This is the scalar reference; :meth:`match_arrays` replicates it
        at array speed.
        """
        best_id = -1
        best_score = float("inf")
        found_within = False
        for rings in (1, 2):
            for sid in self.index.candidates(point, rings=rings):
                seg = self.network.segment(sid)
                d = point_segment_distance(point, seg.start_point, seg.end_point)
                if d > self.max_distance_m:
                    continue
                found_within = True
                score = d + self._heading_cost(sid, heading)
                if score < best_score:
                    best_id, best_score = sid, score
            if found_within:
                break
        return best_id

    # ------------------------------------------------------------------
    # Vectorized path
    # ------------------------------------------------------------------
    def _candidate_rows(self, cx: int, cy: int, rings: int) -> np.ndarray:
        """Candidate row indices (into the geometry arrays) for one cell."""
        key = (cx, cy, rings)
        rows = self._row_cache.get(key)
        if rows is None:
            ids = self.index.candidate_array(cx, cy, rings)
            # Ids are drawn from the registered segment set, so the
            # sorted-id searchsorted lookup is exact.
            rows = np.searchsorted(self._sorted_ids, ids)
            self._row_cache[key] = rows
        return rows

    @hot_path
    def _score_candidates(
        self,
        xs: np.ndarray,
        ys: np.ndarray,
        headings: Optional[np.ndarray],
        rows: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Scores of every (point, candidate) pair and the within-gate mask.

        One broadcast point-to-segment projection evaluates the same
        arithmetic as :func:`repro.roadnet.geometry.point_segment_distance`
        (identical operation order, so distances are bit-identical), then
        adds the heading penalty for points that carry a course.
        """
        ax, ay = self._ax[rows], self._ay[rows]
        vx, vy = self._vx[rows], self._vy[rows]
        len_sq = self._len_sq[rows]
        px = xs[:, None]
        py = ys[:, None]
        safe_len = np.where(len_sq > 0.0, len_sq, 1.0)
        t = ((px - ax) * vx + (py - ay) * vy) / safe_len
        t = np.where(len_sq > 0.0, np.clip(t, 0.0, 1.0), 0.0)
        dist = np.hypot(px - (ax + t * vx), py - (ay + t * vy))
        within = dist <= self.max_distance_m
        if headings is None:
            cost = 0.0
        else:
            course = self._course_arr[rows]
            has = ~np.isnan(headings)
            diff = np.abs(course[None, :] - headings[:, None]) % 360.0
            diff = np.minimum(diff, 360.0 - diff)
            cost = np.where(
                has[:, None], self.heading_penalty_m * diff / 180.0, 0.0
            )
        scores = np.where(within, dist + cost, np.inf)
        return scores, within

    @hot_path
    def match_arrays(
        self,
        xs: np.ndarray,
        ys: np.ndarray,
        headings_deg: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Vectorized :meth:`match_point` over report position arrays.

        Reports are grouped by grid cell; each group shares one candidate
        gather and one broadcast distance computation.  Returns the
        matched segment id per report (``-1`` where rejected), identical
        to the scalar loop.
        """
        xs = np.asarray(xs, dtype=np.float64)
        ys = np.asarray(ys, dtype=np.float64)
        if xs.shape != ys.shape or xs.ndim != 1:
            raise ValueError("xs and ys must be 1-D arrays of equal length")
        if headings_deg is not None:
            headings_deg = np.asarray(headings_deg, dtype=np.float64)
            if headings_deg.shape != xs.shape:
                raise ValueError("headings_deg must match xs/ys length")
        out = np.full(xs.shape[0], -1, dtype=np.int64)
        if xs.size == 0:
            return out

        instrumented = obs_trace.enabled()
        candidates_examined = 0
        with obs_trace.span("ingest.match", reports=int(xs.size)):
            cxs, cys = self.index.cell_coords(xs, ys)
            order = np.lexsort((cys, cxs))
            scx, scy = cxs[order], cys[order]
            changed = (scx[1:] != scx[:-1]) | (scy[1:] != scy[:-1])
            starts = np.concatenate(
                ([0], np.flatnonzero(changed) + 1, [order.size])
            )
            for g in range(starts.size - 1):
                idx = order[starts[g] : starts[g + 1]]
                cx, cy = int(scx[starts[g]]), int(scy[starts[g]])
                pending = idx
                for rings in (1, 2):
                    if pending.size == 0:
                        break
                    rows = self._candidate_rows(cx, cy, rings)
                    if rows.size == 0:
                        continue
                    if instrumented:
                        candidates_examined += int(pending.size) * int(rows.size)
                    heads = None if headings_deg is None else headings_deg[pending]
                    scores, within = self._score_candidates(
                        xs[pending], ys[pending], heads, rows
                    )
                    matched = within.any(axis=1)
                    if matched.any():
                        best = np.argmin(scores[matched], axis=1)
                        out[pending[matched]] = self._sorted_ids[rows[best]]
                    pending = pending[~matched]
        if instrumented:
            obs_metrics.inc("mapmatch.candidates_examined", candidates_examined)
            obs_metrics.inc("mapmatch.reports", int(xs.size))
            obs_metrics.inc("mapmatch.matched", int(np.count_nonzero(out >= 0)))
        return out

    def match_batch(self, batch: ReportBatch, method: str = "vectorized") -> ReportBatch:
        """Match every report's (x, y) [+ heading]; unmatched keep ``-1``."""
        if method not in MATCH_METHODS:
            raise ValueError(
                f"method must be one of {MATCH_METHODS}, got {method!r}"
            )
        if method == "scalar":
            # Reference path, one ring search per report.
            # repro-lint: disable-next-line=ingestion-loop
            matched: List[int] = [
                self.match_point(Point(r.x, r.y), heading=r.heading_deg)
                for r in batch
            ]
            return batch.with_matched_segments(matched)
        ids = self.match_arrays(batch.xs, batch.ys, batch.headings_deg)
        return batch.with_matched_segments(ids)

    def match_rate(self, batch: ReportBatch) -> float:
        """Fraction of reports that matched to a segment."""
        if len(batch) == 0:
            return 0.0
        ids = self.match_arrays(batch.xs, batch.ys, batch.headings_deg)
        return float(np.mean(ids >= 0))
