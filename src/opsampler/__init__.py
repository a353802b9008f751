"""Average sampling and reconstruction for Hilbert-Schmidt operators on a
finite phase space Z_L x Z_L.

The package provides a finite, exactly computable model of time-frequency
operator sampling: Weyl quantization between phase-space functions and
operators, lattice harmonic analysis with symplectic characters, frame
and Riesz condition verification through transfer-matrix spectra, and
perfect-reconstruction pipelines from lattice average samples, plus a
config-driven CLI (``opsampler``).  Import the functions from their
modules (``opsampler.weyl``, ``opsampler.lattice``, ``opsampler.frames``,
``opsampler.builders``, ...); the package itself exports only
``__version__``.
"""

__version__ = "0.1.0"
