"""Tests for Algorithm 1's mask-aware solve kernel and its working dtypes.

Three layers:

* kernel equivalence — :class:`repro.core.completion._WorkspaceKernel`
  against the per-column loop oracle (``tests/oracles.py``): float64
  within 1e-8, float32 within ``FLOAT32_RTOL`` relative to the oracle's
  magnitude;
* completion — dtype resolution and validation, float32 against
  float64, the closed-form and ``gesv`` rank regimes, and repeat runs;
* streaming — the warm-started solve runs the completer's own sweeps
  and keeps the working dtype across windows.
"""

import numpy as np
import pytest

from repro.core.completion import (
    FLOAT32_RTOL,
    SUPPORTED_DTYPES,
    CompressiveSensingCompleter,
    _WorkspaceKernel,
)
from repro.core.streaming import StreamingEstimator, _warm_complete
from repro.probes.report import ProbeReport
from repro.utils.rng import ensure_rng
from tests.oracles import loop_oracle, ridge_by_column


def toy_problem(seed=0, shape=(40, 24), density=0.45):
    rng = np.random.default_rng(seed)
    m, n = shape
    left = rng.uniform(0.5, 1.5, size=(m, 2))
    right = rng.uniform(0.5, 1.5, size=(n, 2))
    values = left @ right.T * 25.0 + rng.normal(0.0, 0.4, size=(m, n))
    mask = rng.random((m, n)) < density
    mask[0, :] = True
    mask[:, 0] = True
    return values, mask


def complete_with(dtype=None, lam=10.0, rank=2, **overrides):
    values, mask = toy_problem()
    params = dict(rank=rank, lam=lam, iterations=30, restarts=2, seed=7, dtype=dtype)
    params.update(overrides)
    return CompressiveSensingCompleter(**params).complete(values, mask)


@pytest.fixture(scope="module")
def reference_estimate():
    """The float64 estimate computed on the loop oracle."""
    with loop_oracle():
        return complete_with().estimate


def assert_float32_close(estimate, reference):
    scale = max(1.0, float(np.abs(reference).max()))
    diff = float(np.abs(estimate.astype(np.float64) - reference).max())
    assert diff <= FLOAT32_RTOL * scale


# ----------------------------------------------------------------------
# Kernel equivalence
# ----------------------------------------------------------------------
class TestKernelEquivalence:
    @pytest.mark.parametrize("lam", [0.0, 10.0])
    @pytest.mark.parametrize("rank", [1, 2, 3])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_matches_loop_oracle(self, dtype, rank, lam):
        values, mask = toy_problem()
        # An all-unobserved column and row: singular at lam == 0, where
        # the kernel must leave them out and return zero factor rows.
        mask[:, 5] = False
        mask[7, :] = False
        measured = np.where(mask, values, 0.0)
        rng = np.random.default_rng(rank)
        left = rng.uniform(0.5, 1.5, size=(values.shape[0], rank))
        right = rng.uniform(0.5, 1.5, size=(values.shape[1], rank))

        kernel = _WorkspaceKernel(
            measured.astype(dtype), mask, mask.astype(dtype), lam, rank
        )
        got_right = kernel.solve_right(left.astype(dtype))
        got_left = kernel.solve_left(right.astype(dtype))
        want_right = ridge_by_column(left, measured, mask, lam)
        want_left = ridge_by_column(right, measured.T, mask.T, lam)

        for got, want in ((got_right, want_right), (got_left, want_left)):
            assert got.dtype == dtype
            diff = float(np.abs(got.astype(np.float64) - want).max())
            if dtype is np.float64:
                assert diff <= 1e-8
            else:
                assert diff <= FLOAT32_RTOL * max(1.0, float(np.abs(want).max()))
        assert not got_right[5].any() and not got_left[7].any()


# ----------------------------------------------------------------------
# Completion
# ----------------------------------------------------------------------
class TestWorkDtype:
    def test_resolve_dtype_explicit_wins(self):
        completer = CompressiveSensingCompleter(dtype=np.float32)
        assert completer.work_dtype(np.dtype(np.float64)) == np.dtype(np.float32)

    def test_resolve_dtype_honors_float32_input(self):
        completer = CompressiveSensingCompleter()
        assert completer.work_dtype(np.dtype(np.float32)) == np.dtype(np.float32)

    def test_resolve_dtype_defaults_to_float64(self):
        completer = CompressiveSensingCompleter()
        for input_dtype in (np.float64, np.int64, np.float16):
            assert completer.work_dtype(np.dtype(input_dtype)) == np.dtype(
                np.float64
            )


class TestRegistry:
    """``SUPPORTED_DTYPES`` is the one registry of working dtypes."""

    def test_resolve_dtype_rejects_unsupported(self):
        for dtype in ("float16", "int64", "complex128"):
            assert np.dtype(dtype) not in SUPPORTED_DTYPES
            with pytest.raises(ValueError, match="does not support dtype"):
                CompressiveSensingCompleter(dtype=dtype)
        for dtype in SUPPORTED_DTYPES:
            completer = CompressiveSensingCompleter(dtype=dtype)
            assert completer.work_dtype(np.dtype(np.float16)) == dtype


class TestCompleterValidation:
    def test_unsupported_dtype_rejected(self):
        with pytest.raises(ValueError, match="does not support dtype"):
            CompressiveSensingCompleter(rank=2, lam=1.0, dtype="float16")


class TestWorkspaceEquivalence:
    def test_float64_matches_numpy(self, reference_estimate):
        estimate = complete_with().estimate
        assert estimate.dtype == np.float64
        assert float(np.abs(estimate - reference_estimate).max()) <= 1e-8

    def test_float32_within_documented_tolerance(self, reference_estimate):
        estimate = complete_with(dtype="float32").estimate
        assert estimate.dtype == np.float32
        assert_float32_close(estimate, reference_estimate)

    def test_numpy_backend_supports_float32(self, reference_estimate):
        # The per-column NumPy loop itself runs in float32 and stays
        # within the documented tolerance of the float64 reference.
        with loop_oracle():
            estimate = complete_with(dtype="float32").estimate
        assert estimate.dtype == np.float32
        assert_float32_close(estimate, reference_estimate)

    def test_float32_input_honored_without_explicit_dtype(self):
        values, mask = toy_problem()
        completer = CompressiveSensingCompleter(rank=2, lam=10.0, iterations=20, seed=7)
        result = completer.complete(values.astype(np.float32), mask)
        assert result.estimate.dtype == np.float32

    def test_rank_one_closed_form(self):
        with loop_oracle():
            a = complete_with(rank=1).estimate
        b = complete_with(rank=1).estimate
        assert float(np.abs(a - b).max()) <= 1e-8

    def test_rank_above_two_gesv_fallback(self):
        with loop_oracle():
            a = complete_with(rank=3).estimate
        b = complete_with(rank=3).estimate
        assert float(np.abs(a - b).max()) <= 1e-8

    def test_lam_zero_all_unobserved_column(self):
        values, mask = toy_problem()
        mask[:, 5] = False  # singular column when lam == 0
        completer = CompressiveSensingCompleter(rank=2, lam=0.0, iterations=10, seed=3)
        result = completer.complete(values, mask)
        assert np.isfinite(result.estimate).all()
        # The kernel zeroes the excluded column's factor row, as the
        # loop oracle skips it.
        assert not result.right[5].any()
        with loop_oracle():
            reference = completer.complete(values, mask)
        assert float(np.abs(result.estimate - reference.estimate).max()) <= 1e-8

    def test_repeat_runs_bit_identical(self):
        # Workspace buffers are reused across sweeps; two fresh runs
        # must still agree to the last bit.
        a = complete_with().estimate
        b = complete_with().estimate
        assert a.tobytes() == b.tobytes()


# ----------------------------------------------------------------------
# Streaming: the warm-started solve
# ----------------------------------------------------------------------
def _probe(t, seg, speed):
    return ProbeReport(
        vehicle_id=0, time_s=t, x=0.0, y=0.0, speed_kmh=speed, segment_id=seg
    )


class TestWarmComplete:
    @pytest.mark.parametrize("dtype", [None, "float32"])
    def test_bit_identical_to_completer_sweeps(self, dtype):
        # complete() draws its init from the seed stream; started from
        # that same factor, the warm path must run the very same sweeps.
        values, mask = toy_problem()
        measured = np.where(mask, values, 0.0)
        completer = CompressiveSensingCompleter(
            rank=2, lam=10.0, iterations=12, dtype=dtype, seed=5
        )
        cold = completer.complete(measured, mask)
        work = completer.work_dtype(measured.dtype)
        scale = np.sqrt(max(float(np.abs(measured.astype(work)[mask]).mean()), 1e-6) / 2)
        init = ensure_rng(5).standard_normal((measured.shape[0], 2)) * scale
        warm = _warm_complete(completer, measured, mask, init)
        assert warm.estimate.dtype == cold.estimate.dtype
        assert warm.estimate.tobytes() == cold.estimate.tobytes()
        assert warm.objective_history == cold.objective_history
        assert warm.left.tobytes() == cold.left.tobytes()


class TestStreamingDtype:
    def test_warm_factor_stays_float32_across_windows(self):
        est = StreamingEstimator(
            segment_ids=[0, 1, 2],
            slot_s=60.0,
            window_slots=4,
            rank=1,
            lam=1.0,
            cold_iterations=10,
            warm_iterations=4,
            dtype="float32",
            seed=0,
        )
        for k in range(6):
            t = k * 60.0
            est.ingest(_probe(t + 5, 0, 30.0))
            est.ingest(_probe(t + 10, 1, 30.0))
        est.flush()
        warm_left = est._window._warm_left
        assert warm_left is not None
        assert warm_left.dtype == np.float32
        assert est.estimates and np.isfinite(est.estimates[-1].speeds_kmh).all()

    def test_bad_dtype_fails_at_construction(self):
        with pytest.raises(ValueError, match="does not support dtype"):
            StreamingEstimator(segment_ids=[0], slot_s=60.0, dtype="float16")
