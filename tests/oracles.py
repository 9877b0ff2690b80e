"""Reference computations that several test files check the library against."""

import numpy as np

from soctab import linalg


def intersection(a, b, p):
    """Canonical basis of span(a) & span(b): the common kernel of both annihilators."""
    return linalg.nullspace(np.vstack([linalg.nullspace(a, p), linalg.nullspace(b, p)]), p)
