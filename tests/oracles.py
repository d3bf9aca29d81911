"""Reference implementations Algorithm 1's production kernels are tested against.

:func:`ridge_by_column` is the readable per-column form of the masked
ridge solve (Eq. 15); :class:`LoopKernel` wraps it behind the interface
of :class:`repro.core.completion._WorkspaceKernel`, and
:func:`stacked_lstsq` solves the literal pseudocode's stacked system
with a least-squares factorization instead of the normal equations.
:func:`loop_oracle` swaps both into Algorithm 1, so a whole completion
can be rerun on the references and compared with the production path.
"""

from contextlib import contextmanager

import numpy as np

from repro.core import completion


def ridge_by_column(factor, m_arr, b_arr, lam):
    """Mask-aware ridge solve for the other factor, column by column.

    For each column ``j`` of ``M``, with ``I`` the observed rows:

        (F_I^T F_I + lam I_r) x_j = F_I^T M_{I,j}

    An entirely unobserved column yields the zero vector.
    """
    r = factor.shape[1]
    n = m_arr.shape[1]
    out = np.zeros((n, r), dtype=factor.dtype)
    eye = lam * np.eye(r, dtype=factor.dtype)
    for j in range(n):
        rows = b_arr[:, j]
        if not rows.any():
            continue
        f = factor[rows]
        gram = f.T @ f + eye
        out[j] = np.linalg.solve(gram, f.T @ m_arr[rows, j])
    return out


class LoopKernel:
    """:func:`ridge_by_column` behind the workspace kernel's interface."""

    def __init__(self, m_arr, b_arr, ind, lam, rank):
        self._m = m_arr
        self._b = b_arr
        self._lam = lam

    def solve_right(self, left):
        return ridge_by_column(left, self._m, self._b, self._lam)

    def solve_left(self, right):
        return ridge_by_column(right, self._m.T, self._b.T, self._lam)


def stacked_lstsq(p_top, q_top, lam):
    """``inverse([P; sqrt(lam) I], [Q; 0])`` as a least-squares solve."""
    r = p_top.shape[1]
    stacked_p = np.vstack([p_top, np.sqrt(lam) * np.eye(r, dtype=p_top.dtype)])
    stacked_q = np.vstack([q_top, np.zeros((r, q_top.shape[1]), dtype=q_top.dtype)])
    return np.linalg.lstsq(stacked_p, stacked_q, rcond=None)[0]


@contextmanager
def loop_oracle():
    """Run Algorithm 1 on the reference solves instead of the production ones."""
    kernel, stacked = completion._WorkspaceKernel, completion._stacked_solve
    completion._WorkspaceKernel = LoopKernel
    completion._stacked_solve = stacked_lstsq
    try:
        yield
    finally:
        completion._WorkspaceKernel = kernel
        completion._stacked_solve = stacked
