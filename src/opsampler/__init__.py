"""Average sampling and reconstruction for Hilbert-Schmidt operators on a
finite phase space Z_L x Z_L.

The package provides a finite, exactly computable model of time-frequency
operator sampling: Weyl quantization between phase-space functions and
operators, lattice harmonic analysis with symplectic characters, frame
and Riesz condition verification through transfer-matrix spectra, and
perfect-reconstruction pipelines from lattice average samples, plus a
config-driven CLI (``opsampler``).
"""

from .core import (
    check_operator,
    half_inverse,
    hs_inner,
    hs_norm,
    parity,
    rank_one,
    symplectic_form,
    tf_shift,
    tf_shift_adjoint,
    trace,
    translate_operator,
    validate_mod_size,
)
from .errors import ConfigError, SingularTransfer
from .frames import (
    ConvolutionMatrix,
    FrameReport,
    TransferMatrix,
    dual_sequences,
    frame_bounds,
    gram_matrix_bounds,
    left_inverse_family,
    pseudo_inverse,
    single_gen_condition,
    transfer_matrix,
)
from .lattice import (
    Lattice,
    adjoint_lattice,
    inverse_symplectic_series,
    involution,
    lattice_convolve,
    periodize_sq,
    symplectic_series,
    translate_seq,
)
from .sampling import (
    AveragerSet,
    GeneratorSet,
    Reconstructor,
    average_samples,
    build_reconstructor_multi,
    build_reconstructor_single,
    interpolation_check,
    reconstruct,
    relative_error,
    sample_filter_matrix,
    seq_operator_convolve,
    synthesize_element,
    whiten_generator,
)
from .weyl import (
    cross_wigner,
    fourier_wigner,
    stft,
    symplectic_ft,
    translate_phase,
    translation_covariance_check,
    weyl_symbol,
    weyl_transform,
)

__version__ = "0.1.0"
