"""Row scatter-add on numpy's fast path."""

from __future__ import annotations

import numpy as np


def scatter_add_rows(
    target: np.ndarray, index: np.ndarray, values: np.ndarray
) -> None:
    """``np.add.at(target, index, values)``, one column at a time for a
    2-D ``target``: numpy's fast path takes only 1-D operands.  Each
    element gets the same additions in the same order, so the result is
    bit-identical to the 2-D call."""
    if target.ndim == 1:
        np.add.at(target, index, values)
        return
    for k in range(target.shape[1]):
        np.add.at(target[:, k], index, values[:, k])
