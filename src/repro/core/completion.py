"""Algorithm 1: compressive-sensing estimation of the TCM (Section 3.3).

The estimate is the SVD-like factorization ``X_hat = L R^T`` (Eq. 14)
whose factors minimize the Lagrangian objective (Eq. 16)

    || B .x (L R^T) - M ||_F^2  +  lambda (||L||_F^2 + ||R||_F^2)

found by alternating least squares: fix ``L``, solve for ``R``; fix
``R``, solve for ``L``; repeat ``t`` times keeping the best iterate by
objective value (pseudocode lines 2-9).

Two inner formulations are provided:

* ``mask_aware=True`` (default) — each column of ``R`` solves a ridge
  regression restricted to the rows where that column of ``M`` is
  observed, i.e. the constraint really is ``B .x (L R^T) = M`` (Eq. 15).
  This is the solver of the SRMF work [37] the paper says its algorithm
  follows, and is the variant that actually recovers missing data well.
  All ``n`` Gram matrices ``G_j = F^T diag(B_{:,j}) F + lambda I`` are
  built with one GEMM into a per-run workspace and solved in closed
  form (Cramer's rule) at the paper's rank bound ``r <= 2``, or with
  one stacked LAPACK ``gesv`` above it.
* ``mask_aware=False`` — the literal pseudocode: one unmasked stacked
  least-squares solve ``inverse([L; sqrt(lambda) I], [M; 0])`` treating
  missing entries as zeros.  Kept for fidelity comparisons; it biases
  estimates toward zero wherever data is missing.

The sweep runs in float64 or float32 (``dtype=``).  Single precision
carries ~7 significant digits, so a float32 estimate is held to
:data:`FLOAT32_RTOL` relative to the float64 one, not to bitwise
agreement.

``restarts > 1`` runs independent random initializations; with
``max_workers`` set they run concurrently (thread pool — the inner work
is LAPACK which releases the GIL).  Every restart's initialization is
drawn from the seed stream *before* dispatch, so results are
bit-identical whether restarts run serially or in parallel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union

import numpy as np

from repro.core.tcm import TrafficConditionMatrix
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.utils.contracts import effects, hot_path, shapes
from repro.utils.parallel import parallel_map
from repro.utils.rng import SeedLike, ensure_rng
from repro.utils.validation import check_matrix_pair

DTypeLike = Union[str, type, np.dtype, None]

PAPER_RANK = 2
PAPER_LAMBDA = 100.0
PAPER_ITERATIONS = 100

#: Working dtypes of the ALS sweep.
SUPPORTED_DTYPES = (np.dtype(np.float64), np.dtype(np.float32))

#: Relative tolerance for float32-vs-float64 estimate comparisons:
#: ``max |est32 - est64| <= FLOAT32_RTOL * max(1, max |est64|)``.  The
#: ALS solves are ridge-regularized (condition bounded by the data Gram
#: over ``lam``), so single precision loses a few of its ~7 digits over
#: a 60-sweep run; 1e-3 relative holds with two orders of margin on the
#: bench workloads while still catching any wrong-kernel bug outright.
FLOAT32_RTOL = 1e-3

# (best objective, L, R, per-sweep objective history) of one ALS run.
_RunOutcome = Tuple[float, np.ndarray, np.ndarray, List[float]]


@dataclass(frozen=True)
class CompletionResult:
    """Output of Algorithm 1.

    Attributes
    ----------
    estimate:
        ``X_hat = L_best R_best^T`` (every cell, observed or not).
    left, right:
        The best factors ``L`` (m x r) and ``R`` (n x r).
    objective:
        Best value of Eq. 16 reached (across all restarts).
    objective_history:
        Objective after every sweep **of the winning restart only**
        (length = that restart's sweeps).  Early-stop diagnostics should
        read this, not :attr:`iterations_run`.
    iterations_run:
        Total ALS sweeps **summed over every restart** (each may stop
        early on ``tol`` independently).  With ``restarts == 1`` this
        equals ``len(objective_history)``.
    restart_histories:
        Per-restart objective histories, in restart order; the winning
        restart's entry is :attr:`objective_history`.  Empty when the
        result was built by a caller that does not track restarts.
    best_restart:
        Index into :attr:`restart_histories` of the winning restart.
    """

    estimate: np.ndarray
    left: np.ndarray
    right: np.ndarray
    objective: float
    objective_history: List[float]
    iterations_run: int
    restart_histories: List[List[float]] = field(default_factory=list)
    best_restart: int = 0

    @property
    def rank_bound(self) -> int:
        return self.left.shape[1]

    @property
    def num_restarts(self) -> int:
        """Restarts tracked in this result (0 when untracked)."""
        return len(self.restart_histories)

    @shapes("m n", "m n:bool")
    def fused(self, measurements: np.ndarray, mask: np.ndarray) -> np.ndarray:
        """Estimate with observed cells replaced by their measurements."""
        measurements, mask = check_matrix_pair(measurements, mask)
        if measurements.shape != self.estimate.shape:
            raise ValueError("measurement shape mismatch")
        return np.where(mask, measurements, self.estimate)


class CompressiveSensingCompleter:
    """Algorithm 1 with the paper's default parameters (r=2, lambda=100).

    Parameters
    ----------
    rank:
        Rank bound ``r``: the number of columns of ``L`` and ``R``
        (Eq. 18 makes it an upper bound on ``rank(X_hat)``).
    lam:
        Tradeoff coefficient ``lambda`` of Eq. 16.
    iterations:
        ALS sweep count ``t``; the paper finds 100 sufficient for
        convergence on hundreds-by-hundreds matrices.
    mask_aware:
        Inner formulation choice (see module docstring).
    dtype:
        Working dtype policy.  ``None`` (default) honors the input:
        a float32 measurement matrix is completed in float32, anything
        else in float64.  Pass ``np.float32``/``np.float64`` to force a
        dtype (the input is cast once on entry).  The returned factors
        and estimate are in the working dtype.
    tol:
        Optional early-stop: halt when the objective improves by less
        than ``tol`` (relative) between sweeps.
    clip_min, clip_max:
        Optional bounds applied to the returned estimate (speeds are
        physical, so callers usually clip at 0).
    center:
        Subtract the observed cells' mean before factorizing and add it
        back after.  The Frobenius regularizer shrinks ``L R^T`` toward
        *zero*; with centering the shrinkage target becomes the mean
        observed speed, which keeps large ``lambda`` values sane on
        small or sparse matrices.  Off by default (the paper's
        pseudocode factorizes the raw measurements).
    restarts:
        Number of independent random initializations; the run with the
        lowest final objective wins.  ALS occasionally converges to a
        local minimum from an unlucky init; a few restarts make the
        solver robust at proportional cost.  Default 1 (the paper's
        single random init).
    max_workers:
        Run restarts on a thread pool of this size (``None``/``1`` =
        serial).  Results are bit-identical either way: every restart's
        random init is drawn from the seed stream before dispatch.
    seed:
        Random initialization of ``L`` (pseudocode line 1).
    """

    def __init__(
        self,
        rank: int = PAPER_RANK,
        lam: float = PAPER_LAMBDA,
        iterations: int = PAPER_ITERATIONS,
        mask_aware: bool = True,
        dtype: DTypeLike = None,
        tol: Optional[float] = None,
        clip_min: Optional[float] = None,
        clip_max: Optional[float] = None,
        center: bool = False,
        restarts: int = 1,
        max_workers: Optional[int] = None,
        seed: SeedLike = None,
    ) -> None:
        if rank < 1:
            raise ValueError(f"rank must be >= 1, got {rank}")
        if lam < 0:
            raise ValueError(f"lam must be >= 0, got {lam}")
        if iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {iterations}")
        requested_dtype: Optional[np.dtype] = (
            None if dtype is None else np.dtype(dtype)
        )
        if requested_dtype is not None and requested_dtype not in SUPPORTED_DTYPES:
            supported = ", ".join(str(d) for d in SUPPORTED_DTYPES)
            raise ValueError(
                f"completion does not support dtype {requested_dtype} "
                f"(supported: {supported})"
            )
        if tol is not None and tol <= 0:
            raise ValueError(f"tol must be positive, got {tol}")
        if clip_min is not None and clip_max is not None and clip_min > clip_max:
            raise ValueError("clip_min must not exceed clip_max")
        if restarts < 1:
            raise ValueError(f"restarts must be >= 1, got {restarts}")
        if max_workers is not None and max_workers < 0:
            raise ValueError(f"max_workers must be >= 0 or None, got {max_workers}")
        self.rank = rank
        self.lam = lam
        self.iterations = iterations
        self.mask_aware = mask_aware
        self.dtype = requested_dtype
        self.tol = tol
        self.clip_min = clip_min
        self.clip_max = clip_max
        self.center = center
        self.restarts = restarts
        self.max_workers = max_workers
        self._seed = seed

    # ------------------------------------------------------------------
    @effects(allow={"rng"})
    @shapes("m n", "m n:bool")
    def complete(
        self,
        measurements: Union[TrafficConditionMatrix, np.ndarray],
        mask: Optional[np.ndarray] = None,
    ) -> CompletionResult:
        """Run Algorithm 1 on a measurement matrix.

        Accepts either a :class:`TrafficConditionMatrix` or an explicit
        ``(M, B)`` array pair.
        """
        if isinstance(measurements, TrafficConditionMatrix):
            if mask is not None:
                raise ValueError("mask is implied by the TrafficConditionMatrix")
            m_arr, b_arr = measurements.values, measurements.mask
        else:
            if mask is None:
                raise ValueError("mask required when passing a raw array")
            m_arr, b_arr = check_matrix_pair(measurements, mask, dtype=None)
        if not b_arr.any():
            raise ValueError("measurement matrix has no observed entries")

        m_arr = self._to_work_dtype(m_arr, b_arr)
        work_dtype = m_arr.dtype

        rng = ensure_rng(self._seed)
        m, n = m_arr.shape
        r = min(self.rank, m, n)

        # Zero the unobserved cells once.  The mask-aware kernel's RHS
        # GEMM reads every cell, the literal solver's documented
        # behavior is "missing entries are zeros", and hoisting the
        # masking out of the sweep loop removes a full m x n `np.where`
        # per solve.
        # The masking stays in the working dtype, and when the caller
        # already zeroed the unobserved cells (synthetic pipelines
        # build M as `np.where(mask, truth, 0)`) the full-matrix copy
        # is skipped entirely.
        zero = work_dtype.type(0)
        offset = 0.0
        if self.center:
            offset = float(m_arr[b_arr].mean())
            m_arr = np.where(b_arr, m_arr - offset, zero)
        elif m_arr[~b_arr].any():
            m_arr = np.where(b_arr, m_arr, zero)

        # Line 1 of the pseudocode, once per restart: random init of L,
        # scaled to the data's magnitude so the first R-solve starts in
        # the right ballpark.  All inits are drawn from the seed stream
        # up front so the restart runs are order-independent — serial
        # and parallel execution produce bit-identical results.  Draws
        # happen in the generator's native float64 and are cast once,
        # so the working dtype cannot perturb the random stream.
        observed_scale = float(np.abs(m_arr[b_arr]).mean())
        init_scale = np.sqrt(max(observed_scale, 1e-6) / r)
        inits = [
            (rng.standard_normal((m, r)) * init_scale).astype(
                work_dtype, copy=False
            )
            for _ in range(self.restarts)
        ]

        # Indicator in the working dtype for the objective's masked
        # residual, cast once for all restarts (read-only across runs).
        ind = b_arr.astype(work_dtype)
        with obs_trace.span(
            "als.complete",
            rows=m,
            cols=n,
            rank=r,
            solver="masked" if self.mask_aware else "stacked",
            restarts=self.restarts,
        ):
            runs: List[_RunOutcome] = parallel_map(
                lambda init: self._run_als(m_arr, b_arr, init, ind),
                inits,
                max_workers=self.max_workers,
                backend="thread",
                span_name="als.restart",
            )

        best_idx = min(range(len(runs)), key=lambda i: runs[i][0])
        best_obj, best_left, best_right, _ = runs[best_idx]
        restart_histories = [history for _, _, _, history in runs]
        iterations_run = sum(len(h) for h in restart_histories)
        if obs_trace.enabled():
            obs_metrics.inc("als.completions")
            obs_metrics.inc("als.restarts", self.restarts)
            for history in restart_histories:
                obs_metrics.observe("als.iterations_to_convergence", len(history))
            obs_metrics.observe("als.objective", best_obj)

        estimate = best_left @ best_right.T + offset
        if self.clip_min is not None or self.clip_max is not None:
            estimate = np.clip(estimate, self.clip_min, self.clip_max)
        return CompletionResult(
            estimate=estimate,
            left=best_left,
            right=best_right,
            objective=best_obj,
            objective_history=restart_histories[best_idx],
            iterations_run=iterations_run,
            restart_histories=restart_histories,
            best_restart=best_idx,
        )

    # ------------------------------------------------------------------
    def _run_als(
        self,
        m_arr: np.ndarray,
        b_arr: np.ndarray,
        init: np.ndarray,
        ind: Optional[np.ndarray] = None,
    ) -> _RunOutcome:
        """One ALS run from the given init (pseudocode lines 2-9).

        Returns ``(best objective, L, R, per-iteration objectives)``.
        Reads only; safe to run concurrently across restarts.  Each run
        binds its own kernel and owns its own objective residual buffer:
        the kernel reuses scratch buffers across sweeps, so neither must
        ever be shared between concurrently-running restarts.
        """
        n = m_arr.shape[1]
        left = init
        best_obj = np.inf
        best_left, best_right = left, np.zeros((n, left.shape[1]), dtype=left.dtype)
        history: List[float] = []
        if ind is None:
            ind = b_arr.astype(m_arr.dtype)
        kernel = (
            _WorkspaceKernel(m_arr, b_arr, ind, self.lam, init.shape[1])
            if self.mask_aware
            else None
        )
        residual = np.empty_like(m_arr)
        for _ in range(self.iterations):
            if kernel is None:
                right = _stacked_solve(left, m_arr, self.lam).T
                left = _stacked_solve(right, m_arr.T, self.lam).T
            else:
                right = kernel.solve_right(left)
                left = kernel.solve_left(right)
            obj = self._objective(left, right, m_arr, ind, residual)
            history.append(obj)
            if obj < best_obj:
                improvement = (best_obj - obj) / max(best_obj, 1e-12)
                best_obj, best_left, best_right = obj, left.copy(), right.copy()
                if (
                    self.tol is not None
                    and np.isfinite(improvement)
                    and improvement < self.tol
                ):
                    break
            elif self.tol is not None:
                break
        return best_obj, best_left, best_right, history

    # ------------------------------------------------------------------
    def work_dtype(self, input_dtype: np.dtype) -> np.dtype:
        """Resolve the dtype the ALS sweep will run in.

        Explicit ``dtype=`` wins; otherwise a float32 input is honored
        and everything else (float64, integers, lower-precision floats)
        runs in float64.
        """
        if self.dtype is not None:
            return self.dtype
        if np.dtype(input_dtype) == np.dtype(np.float32):
            return np.dtype(np.float32)
        return np.dtype(np.float64)

    @shapes("m n", "m n:bool")
    def _to_work_dtype(self, m_arr: np.ndarray, b_arr: np.ndarray) -> np.ndarray:
        """Cast ``M`` to the working dtype; its observed cells must stay finite.

        A float64 measurement beyond float32's range passes every
        float64 input check and only becomes ``inf`` in this cast, after
        which the sweep would return a non-finite estimate.  Both
        :meth:`complete` and the warm-started streaming/sharded solves
        enter Algorithm 1 through here, so the check covers all of them.
        """
        with np.errstate(over="ignore"):
            m_arr = np.asarray(m_arr, dtype=self.work_dtype(m_arr.dtype))
        if not np.isfinite(m_arr[b_arr]).all():
            raise ValueError(
                f"observed measurements must be finite in the working dtype "
                f"{m_arr.dtype}"
            )
        return m_arr

    @effects("pure")
    @hot_path
    @shapes("m r", "n r", "m n", "m n", "m n")
    def _objective(
        self,
        left: np.ndarray,
        right: np.ndarray,
        m_arr: np.ndarray,
        ind: np.ndarray,
        residual: np.ndarray,
    ) -> float:
        """Eq. 16: masked fit residual plus Frobenius regularization.

        Runs entirely in the caller-owned ``residual`` buffer: one GEMM,
        two element-wise passes, one BLAS dot.  The dense GEMM beats a
        gather of the observed coordinates even at the paper's 20%
        integrity — fancy indexing pays per-element overhead that the
        contiguous kernels do not — and in float32 the whole pass moves
        half the bytes, which is where float32 runs earn their
        wall-clock win (the solves alone are too small to dominate).
        """
        # The residual buffer is caller-owned per ALS run; writing into
        # it is the point (no fresh m x n temporaries per sweep).
        np.matmul(left, right.T, out=residual)
        np.subtract(residual, m_arr, out=residual)
        np.multiply(residual, ind, out=residual)
        flat = residual.reshape(-1)
        fit = float(np.dot(flat, flat))
        reg = float(np.sum(left**2) + np.sum(right**2))
        return fit + self.lam * reg


@effects("pure")
@hot_path
def _stacked_solve(p_top: np.ndarray, q_top: np.ndarray, lam: float) -> np.ndarray:
    """The pseudocode's ``inverse([P; sqrt(lam) I], [Q; 0])``.

    Solves ``(P^T P + lam I) C = P^T Q`` — the normal equations of the
    stacked (contradictory) system of Eq. 17.
    """
    r = p_top.shape[1]
    gram = p_top.T @ p_top + lam * np.eye(r, dtype=p_top.dtype)
    return np.linalg.solve(gram, p_top.T @ q_top)


class _WorkspaceKernel:
    """The mask-aware ridge solve of Eq. 15, bound to one ALS run.

    For each column ``j`` of ``M``, with ``F`` the fixed factor,

        G_j = F^T diag(B_{:, j}) F + lam I_r,    G_j x_j = F^T M_{:, j}.

    ``solve_right`` solves the ``n`` column systems given ``L`` (m x r)
    and returns ``R`` (n x r); ``solve_left`` solves the ``m`` row
    systems given ``R``.  Binding hoists every per-problem invariant
    out of the sweep: the indicator cast, both orientations of ``B`` and
    ``M``, the ``lam I`` ridge, and the Gram/RHS/output buffers, which
    are reused across every sweep and both factor updates.  A sweep
    then performs exactly one outer-product write, one GEMM into the
    Gram stack, one GEMM into the RHS, and the solve.

    ``m_arr`` must already be in the working dtype with unobserved cells
    zeroed (Algorithm 1 guarantees both on entry): the RHS GEMM reads
    every cell.  ``ind`` is ``b_arr`` cast to that dtype; it is only
    read, so concurrent restarts may share it.

    For ``rank <= 2`` with ``lam > 0`` the stacked systems are solved
    in closed form (Cramer's rule) directly into the output buffer; the
    ridge makes every ``G_j`` symmetric positive definite with
    ``det(G_j) >= lam**rank > 0``, so the division is safe.  Larger
    ranks use one batched LAPACK ``gesv``.  With ``lam == 0`` an
    entirely unobserved column has a singular Gram matrix; it is left
    out of the solve and its factor row is zero.

    The returned factor may be a view of an internal buffer that the
    next call on the same side overwrites, and a kernel must stay on
    one thread (Algorithm 1 binds one per ALS run).
    """

    def __init__(
        self,
        m_arr: np.ndarray,
        b_arr: np.ndarray,
        ind: np.ndarray,
        lam: float,
        rank: int,
    ) -> None:
        m, n = m_arr.shape
        dtype = m_arr.dtype
        self._lam = lam
        self._m = m_arr
        self._m_t = np.ascontiguousarray(m_arr.T)
        # Columns / rows with at least one observation: the only systems
        # the lam == 0 solve may hand to LAPACK.
        self._observed_cols = np.flatnonzero(b_arr.any(axis=0))
        self._observed_rows = np.flatnonzero(b_arr.any(axis=1))
        self._ind = ind
        self._ind_t = np.ascontiguousarray(ind.T)
        self._lam_eye = lam * np.eye(rank, dtype=dtype)
        # Reusable buffers.  pairs_* holds the r*r outer products of the
        # fixed factor's rows; grams_* and rhs_* receive the GEMMs; the
        # out_* factor buffers receive the closed-form solves.
        self._pairs_m = np.empty((m, rank * rank), dtype=dtype)
        self._pairs_n = np.empty((n, rank * rank), dtype=dtype)
        self._grams_n = np.empty((n, rank, rank), dtype=dtype)
        self._grams_m = np.empty((m, rank, rank), dtype=dtype)
        self._rhs_n = np.empty((rank, n), dtype=dtype)
        self._rhs_m = np.empty((rank, m), dtype=dtype)
        self._out_n = np.empty((n, rank), dtype=dtype)
        self._out_m = np.empty((m, rank), dtype=dtype)

    @effects("pure")
    @hot_path
    def _solve_side(
        self,
        factor: np.ndarray,
        m_side: np.ndarray,
        observed: np.ndarray,
        ind_gram: np.ndarray,
        pairs: np.ndarray,
        grams: np.ndarray,
        rhs: np.ndarray,
        out: np.ndarray,
    ) -> np.ndarray:
        """One factor update using the preallocated workspace.

        ``ind_gram`` is the indicator oriented so that
        ``ind_gram @ pairs`` stacks the Gram matrices of ``m_side``'s
        columns, ``observed`` indexes those columns that hold an
        observation, and ``pairs``/``grams``/``rhs``/``out`` are this
        side's buffers.
        """
        k, r = factor.shape
        cols = m_side.shape[1]
        np.multiply(
            factor[:, :, None],
            factor[:, None, :],
            out=pairs.reshape(k, r, r),
        )
        np.matmul(ind_gram, pairs, out=grams.reshape(cols, r * r))
        # Writing the ridge into the preallocated Gram buffer is the
        # point of the workspace kernel (no fresh allocation per sweep).
        # repro-lint: disable-next-line=param-mutation
        grams += self._lam_eye
        np.matmul(factor.T, m_side, out=rhs)
        if self._lam > 0 and r <= 2:
            # Closed-form SPD solve; det >= lam**r keeps it non-singular.
            if r == 1:
                np.divide(rhs[0], grams[:, 0, 0], out=out[:, 0])
                return out
            a = grams[:, 0, 0]
            b = grams[:, 0, 1]
            c = grams[:, 1, 0]
            d = grams[:, 1, 1]
            det = a * d - b * c
            np.divide(d * rhs[0] - b * rhs[1], det, out=out[:, 0])
            np.divide(a * rhs[1] - c * rhs[0], det, out=out[:, 1])
            return out
        if self._lam > 0:
            solved: np.ndarray = np.linalg.solve(grams, rhs.T[:, :, None])[:, :, 0]
            return solved
        # lam == 0: exclude the singular all-unobserved columns.
        zeros = np.zeros((cols, r), dtype=factor.dtype)
        if observed.size:
            zeros[observed] = np.linalg.solve(
                grams[observed], rhs.T[observed, :, None]
            )[:, :, 0]
        return zeros

    def solve_right(self, left: np.ndarray) -> np.ndarray:
        """``R`` given ``L``: the ``n`` column systems of ``M``."""
        return self._solve_side(
            left,
            self._m,
            self._observed_cols,
            self._ind_t,
            self._pairs_m,
            self._grams_n,
            self._rhs_n,
            self._out_n,
        )

    def solve_left(self, right: np.ndarray) -> np.ndarray:
        """``L`` given ``R``: the ``m`` row systems (columns of ``M^T``)."""
        return self._solve_side(
            right,
            self._m_t,
            self._observed_rows,
            self._ind,
            self._pairs_n,
            self._grams_m,
            self._rhs_m,
            self._out_m,
        )
