"""Hypothesis strategies shared by the test modules: builder specs and
the seeded designs (configs) built from them."""

from hypothesis import strategies as st

from opsampler.config import parse_config


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
