"""The benchmark's spectrum adapter: singular values and the functionals built
from them.

dyadlab has no Schatten module yet, so the `spectrum` layer is this file.  All
singular values the benchmark needs come from `singular_values`; pointing it at
a library Schatten routine is a benchmark change of its own.
"""

from __future__ import annotations

import numpy as np

RANK_RTOL = 1e-12


def singular_values(mat: np.ndarray) -> np.ndarray:
    """All singular values of a dense matrix, in descending order."""
    return np.linalg.svd(mat, compute_uv=False)


def schatten_norm(sigma: np.ndarray, p: float) -> float:
    """(sum sigma^p)^(1/p) of a singular-value vector."""
    return float(np.sum(sigma**p) ** (1.0 / p))


def numerical_rank(sigma: np.ndarray) -> int:
    """Number of singular values above RANK_RTOL * sigma_max."""
    if sigma.size == 0 or sigma[0] == 0.0:
        return 0
    return int(np.count_nonzero(sigma > RANK_RTOL * sigma[0]))
