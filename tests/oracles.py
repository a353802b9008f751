"""Direct-summation oracles that the test suite checks the spectral core against.

These compute by sums of translated operators what the library computes
as per-fiber products on the dual grid.  No CLI path reaches them, so
they live with the tests rather than in ``opsampler``.
"""

import numpy as np

from opsampler.core import translate_operator
from opsampler.lattice import Lattice


def seq_operator_convolve(c, S, lat: Lattice) -> np.ndarray:
    """sum_lambda c(lambda) alpha_lambda(S); the span of all such sums is
    the sampling subspace of S."""
    c = np.asarray(c, dtype=complex)
    if c.shape != (lat.size,):
        raise ValueError(f"expected a sequence of length {lat.size}, got {c.shape}")
    S = np.asarray(S, dtype=complex)
    out = np.zeros_like(S)
    for i, (x, w) in enumerate(lat.points):
        if c[i] != 0:
            out += c[i] * translate_operator((x, w), S)
    return out
