"""The SVD nullspace with a rank cut, shared by the classifier and its oracles."""
from __future__ import annotations

import numpy as np


def nullspace(A: np.ndarray, rel_tol: float = 1e-8):
    """Orthonormal nullspace basis (columns) with an SVD rank cut.

    Returns (basis, rank, condition_info) where condition_info carries the
    largest singular value and the two on either side of the cut.
    """
    A = np.asarray(A, dtype=float)
    if A.size == 0 or A.shape[0] == 0:
        n = A.shape[1] if A.ndim == 2 else 0
        return np.eye(n), 0, {"sigma_max": 0.0, "sigma_min_kept": 0.0,
                              "sigma_max_dropped": 0.0}
    # economy on the row side; vt must stay n x n to expose the nullspace
    _, s, vt = np.linalg.svd(A, full_matrices=A.shape[0] < A.shape[1])
    smax = s[0] if len(s) else 0.0
    rank = int(np.sum(s > rel_tol * smax)) if smax > 0 else 0
    kept_min = float(s[rank - 1]) if rank else 0.0
    dropped_max = float(s[rank]) if rank < len(s) else 0.0
    basis = vt[rank:].T
    return basis, rank, {"sigma_max": float(smax), "sigma_min_kept": kept_min,
                         "sigma_max_dropped": dropped_max}

