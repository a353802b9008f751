"""Hypothesis strategies shared by the test modules: builder specs, the
seeded designs (configs) built from them, and fiber systems near the
frame gate."""

import numpy as np
from hypothesis import strategies as st

from opsampler.config import parse_config
from opsampler.lattice import Lattice


@st.composite
def specs(draw, L):
    """A valid builder spec for modulus L, under up to three whitened levels."""
    kind = draw(st.sampled_from(["delta_pair", "boxcar", "periodized_gaussian",
                                 "random_signal_pair", "random_hs"]))
    spec = {"kind": kind}
    if kind == "delta_pair":
        spec.update(t1=draw(st.integers(0, L - 1)), t2=draw(st.integers(0, L - 1)))
    elif kind == "boxcar":
        spec["width"] = draw(st.integers(1, L))
    elif kind == "periodized_gaussian":
        spec.update(width=draw(st.floats(0.25, float(L))), wraps=draw(st.integers(1, 3)),
                    center=draw(st.integers(0, L - 1)))
    for _ in range(draw(st.integers(0, 3))):
        spec = {"kind": "whitened", "inner": spec}
    return spec


@st.composite
def designs(draw):
    """A seeded config of up to three generators and, unless absent, at
    least as many averagers (up to four), on an odd L <= 45."""
    L = draw(st.sampled_from(range(3, 46, 2)))
    divisors = [d for d in range(1, L + 1) if L % d == 0]
    n = draw(st.integers(1, 3))
    data = {"L": L, "lattice": {"a": draw(st.sampled_from(divisors)),
                                "b": draw(st.sampled_from(divisors))},
            "seed": draw(st.integers(0, 2**64 - 1)),
            "generators": draw(st.lists(specs(L), min_size=n, max_size=n))}
    m = draw(st.one_of(st.none(), st.integers(n, 4)))
    if m is not None:
        data["averagers"] = draw(st.lists(specs(L), min_size=m, max_size=m))
    return parse_config(data)


@st.composite
def near_gate_systems(draw):
    """Generator and averager fibers ``(lat, P, Q)``, 2 <= N <= min(3, a*b)
    and N <= M <= 4 on an odd L <= 27, conditioned towards the frame gate:
    on a random third of the cosets, averagers 1 to M-1 are set to
    averager 0 plus ``10**U(-3.5, -2)`` times Gaussian noise, so that the
    transfer matrix is nearly rank one there."""
    L = draw(st.sampled_from(range(3, 28, 2)))
    divisors = [d for d in range(1, L + 1) if L % d == 0]
    a, b = draw(st.sampled_from([(a, b) for a in divisors for b in divisors if a * b >= 2]))
    lat = Lattice(L, a, b)
    n = draw(st.integers(2, min(3, a * b)))
    m = draw(st.integers(n, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def fibers(k):
        shape = (k, lat.size, lat.a * lat.b)
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    P, Q = fibers(n), fibers(m)
    mixed = rng.permutation(lat.size)[:-(-lat.size // 3)]
    noise = 10 ** rng.uniform(-3.5, -2) * fibers(m - 1)[:, mixed]
    Q[1:, mixed] = Q[0, mixed] + noise
    return lat, P, Q
