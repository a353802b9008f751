"""The operator calculus on Z_L x Z_L: the reference the fiber route is
tested against.

``opsampler`` reads every operator as the adjoint-coset fibers of its
trace transform and computes on the dual grid.  This module computes the
same things the direct way, by operator kernels, sums of translated
operators, the Weyl symbol on the full grid, filter sequences and
their series, and the paper's explicit reconstruction operators.  No CLI
path reaches it.

An operator is an L x L kernel, ``(S f)(t) = sum_x S[t, x] f(x)``, and the
HS inner product is the Frobenius one.  ``(pi(z) f)(t) = exp(2*pi*i*omega*t/L)
* f(t - x)`` for z = (x, omega), and alpha_z(S) = pi(z) S pi(z)*.

Normalizations, fixed so that every map is exactly unitary or
self-inverse (c = (L+1)//2 is the inverse of 2 mod L):

* ``weyl_symbol``: a_S(x, omega) = L**-0.5 * sum_t S[x + c*t, x - c*t] *
  exp(-2*pi*i*omega*t/L), so ``<S, T>_HS == <a_S, a_T>`` exactly;
  ``cross_wigner(psi, phi)`` is the symbol of psi (x) phi.
* ``symplectic_ft`` (in ``opsampler.weyl``): factor 1/L.
* ``fourier_wigner``: factor L**-0.5 with the half-phase
  ``exp(-2*pi*i*c*x*omega/L)``, the sign for which ``fourier_wigner(S) ==
  symplectic_ft(weyl_symbol(S))`` (the other sign breaks it).  With
  ``rho(z) = exp(-2*pi*i*c*x*omega/L) * pi(z)``, the finite form of
  ``exp(-pi*i*x*omega) M_omega T_x``, ``fourier_wigner(S)(z) = L**-0.5 *
  tr(rho(-z) S)``.

``fourier_wigner``, ``inverse_fourier_wigner`` and ``weyl_transform`` batch
over leading axes, slice by slice bit for bit.
"""

import numpy as np

from opsampler.frames import left_inverse_family
from opsampler.lattice import (
    Lattice,
    _as_seq,
    fibers,
    inverse_symplectic_series,
    periodize_sq,
    symplectic_series,
    unfibers,
)
from opsampler.sampling import system_transfer
from opsampler.weyl import _as_square_stack, symplectic_ft


def _as_signal(f) -> np.ndarray:
    f = np.asarray(f, dtype=complex)
    if f.ndim != 1:
        raise ValueError(f"signal must be one-dimensional, got shape {f.shape}")
    return f


def _as_operator(S) -> np.ndarray:
    S = np.asarray(S, dtype=complex)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise ValueError(f"operator kernel must be a square matrix, got shape {S.shape}")
    return S


def _reduce_point(z, L: int) -> tuple[int, int]:
    x, w = z
    return int(x) % L, int(w) % L


def _char(residues, L: int) -> np.ndarray:
    """exp(2*pi*i*r/L) for integer residues r, reduced mod L first."""
    r = np.asarray(residues, dtype=np.int64) % L
    return np.exp(2j * np.pi * r / L)


def symplectic_form(z, z2, L: int) -> int:
    """Standard symplectic form sigma(z, z') = omega*x' - omega'*x mod L."""
    x, w = _reduce_point(z, L)
    x2, w2 = _reduce_point(z2, L)
    return (w * x2 - w2 * x) % L


def tf_shift(z, f) -> np.ndarray:
    """Time-frequency shift: out(t) = exp(2*pi*i*omega*t/L) * f(t - x)."""
    f = _as_signal(f)
    L = f.shape[0]
    x, w = _reduce_point(z, L)
    return _char(w * np.arange(L), L) * np.roll(f, x)


def tf_shift_adjoint(z, f) -> np.ndarray:
    """pi(z)* = exp(-2*pi*i*x*omega/L) * pi(-z), so <pi(z) f, g> = <f, pi(z)* g>."""
    f = _as_signal(f)
    L = f.shape[0]
    x, w = _reduce_point(z, L)
    return _char(-x * w, L) * tf_shift((-x, -w), f)


def translate_operator(z, S) -> np.ndarray:
    """Conjugation alpha_z(S) = pi(z) S pi(z)*, on the kernel:
    out[t, s] = exp(2*pi*i*omega*(t-s)/L) * S[t-x, s-x].  The cocycle phase
    of pi cancels in conjugation, so alpha is an exact group action."""
    S = _as_operator(S)
    L = S.shape[0]
    x, w = _reduce_point(z, L)
    p = _char(w * np.arange(L), L)
    return np.outer(p, p.conj()) * np.roll(S, (x, x), axis=(0, 1))


def rank_one(psi, phi) -> np.ndarray:
    """Rank-one operator psi (x) phi, acting as e -> <e, phi> psi."""
    psi = _as_signal(psi)
    phi = _as_signal(phi)
    if psi.shape != phi.shape:
        raise ValueError(f"size mismatch: {psi.shape} vs {phi.shape}")
    return np.outer(psi, phi.conj())


def hs_inner(S, T) -> complex:
    """Hilbert-Schmidt inner product <S, T> = tr(S T*) = sum S * conj(T)."""
    S = _as_operator(S)
    T = _as_operator(T)
    if S.shape != T.shape:
        raise ValueError(f"size mismatch: {S.shape} vs {T.shape}")
    return complex(np.vdot(T, S))


def hs_norm(S) -> float:
    """Hilbert-Schmidt (Frobenius) norm."""
    return float(np.linalg.norm(_as_operator(S)))


def trace(S) -> complex:
    """Trace of the operator (sum of diagonal kernel values)."""
    return complex(np.trace(_as_operator(S)))


def parity(f) -> np.ndarray:
    """Parity flip: out(t) = f(-t mod L)."""
    f = _as_signal(f)
    return f[(-np.arange(f.shape[0])) % f.shape[0]]


def check_operator(S) -> np.ndarray:
    """P S P with P the parity operator: kernel (t, x) -> S[-t, -x]."""
    S = _as_operator(S)
    idx = (-np.arange(S.shape[0])) % S.shape[0]
    return S[np.ix_(idx, idx)]


def _flat(F) -> np.ndarray:
    """(..., L, L) to (..., L*L), so that a 2-D gather is one ``take``."""
    return F.reshape(F.shape[:-2] + (-1,))


def cross_wigner(psi, phi) -> np.ndarray:
    """W(psi, phi)(x, omega) =
        L**-0.5 * sum_t psi(x + c*t) * conj(phi(x - c*t)) * exp(-2*pi*i*omega*t/L),
    the Weyl symbol of psi (x) phi; satisfies the Moyal identity
    <W(psi1, phi1), W(psi2, phi2)> = <psi1, psi2> * conj(<phi1, phi2>)."""
    psi = _as_signal(psi)
    phi = _as_signal(phi)
    if psi.shape != phi.shape:
        raise ValueError(f"size mismatch: {psi.shape} vs {phi.shape}")
    L = psi.shape[0]
    c = (L + 1) // 2
    x = np.arange(L)[:, None]
    t = np.arange(L)[None, :]
    g = psi[(x + c * t) % L] * np.conj(phi[(x - c * t) % L])
    return np.fft.fft(g, axis=1) / np.sqrt(L)


def weyl_symbol(S) -> np.ndarray:
    """a_S(x, omega) = L**-0.5 * sum_t S[x + c*t, x - c*t] * exp(-2*pi*i*omega*t/L);
    unitary onto phase-space functions, ``weyl_transform`` is its exact inverse."""
    S = _as_operator(S)
    L = S.shape[0]
    c = (L + 1) // 2
    x = np.arange(L)[:, None]
    t = np.arange(L)[None, :]
    g = S[(x + c * t) % L, (x - c * t) % L]
    return np.fft.fft(g, axis=1) / np.sqrt(L)


def weyl_transform(F) -> np.ndarray:
    """Operator with the Weyl symbol F:
    out[u, v] = L**-0.5 * sum_omega F(c*(u+v), omega) * exp(2*pi*i*omega*(u-v)/L)."""
    F = _as_square_stack(F, "phase-space function")
    L = F.shape[-1]
    c = (L + 1) // 2
    g = np.sqrt(L) * np.fft.ifft(F, axis=-1)
    u = np.arange(L)[:, None]
    v = np.arange(L)[None, :]
    return g[..., (c * (u + v)) % L, (u - v) % L]


def fourier_wigner(S) -> np.ndarray:
    """Phase-weighted trace transform of an operator:
    out(x, omega) = L**-0.5 * exp(-2*pi*i*c*x*omega/L) * tr(pi(-z) S),
    where tr(pi(-z) S) = sum_t exp(-2*pi*i*omega*t/L) * S[t + x, t].
    Equals ``symplectic_ft(weyl_symbol(S))``."""
    S = _as_square_stack(S, "operator kernel")
    L = S.shape[-1]
    c = (L + 1) // 2
    x = np.arange(L)[:, None]
    t = np.arange(L)[None, :]
    diagonals = _flat(S).take(((t + x) % L) * L + t, axis=-1)  # S[..., (t + x) % L, t]
    trp = np.fft.fft(diagonals, axis=-1, out=diagonals)  # the gather is a fresh buffer
    phase = np.exp(2j * np.pi * np.arange(L) / L)[(-c * x * t) % L]
    np.multiply(phase, trp, out=trp)
    trp /= np.sqrt(L)
    return trp


def inverse_fourier_wigner(F) -> np.ndarray:
    """Exact inverse of ``fourier_wigner``, equal to
    ``weyl_transform(symplectic_ft(F))``:
    out[u, v] = L**0.5 * ifft(F, axis=-1)[(u - v) % L, (c*(u + v)) % L], since
    undoing the half-phase at x = u - v shifts the inverse DFT's output
    index from v to v + c*(u - v), which is c*(u + v) mod L."""
    F = _as_square_stack(F, "phase-space function")
    L = F.shape[-1]
    c = (L + 1) // 2
    u = np.arange(L)[:, None]
    v = np.arange(L)[None, :]
    g = np.fft.ifft(F, axis=-1, norm="ortho")  # the sqrt(L) * ifft of the kernel
    return _flat(g).take(((u - v) % L) * L + (c * (u + v)) % L, axis=-1)


def trace_fibers(S, lat: Lattice) -> np.ndarray:
    """The (..., |Lambda|, a*b) fibers of the trace transforms of operators S."""
    return np.ascontiguousarray(fibers(fourier_wigner(S), lat))


def operator_of(P, lat: Lattice) -> np.ndarray:
    """The operator whose trace transform has the (|Lambda|, a*b) fibers P."""
    return inverse_fourier_wigner(unfibers(P, lat))


def stft(phi, psi) -> np.ndarray:
    """out(x, omega) = <phi, pi(z) psi> = sum_t phi(t) * conj(psi(t - x)) * exp(-2*pi*i*omega*t/L)."""
    phi = _as_signal(phi)
    psi = _as_signal(psi)
    if psi.shape != phi.shape:
        raise ValueError(f"size mismatch: {phi.shape} vs {psi.shape}")
    L = phi.shape[0]
    x = np.arange(L)[:, None]
    t = np.arange(L)[None, :]
    return np.fft.fft(phi[None, :] * np.conj(psi[(t - x) % L]), axis=1)


def translate_phase(z, F) -> np.ndarray:
    """Translate a phase-space function: out(w) = F(w - z)."""
    F = np.asarray(F, dtype=complex)
    if F.ndim != 2 or F.shape[0] != F.shape[1]:
        raise ValueError(f"phase-space function must be a square array, got shape {F.shape}")
    x, w = _reduce_point(z, F.shape[0])
    return np.roll(F, (x, w), axis=(0, 1))


def translation_covariance_check(F, z) -> float:
    """HS-norm residual of the covariance identity at z, which says that quantizing
    a translated symbol is translating the quantized operator:
    ``|| weyl_transform(translate_phase(z, F)) - alpha_z(weyl_transform(F)) ||``."""
    direct = weyl_transform(translate_phase(z, F))
    conjugated = translate_operator(z, weyl_transform(F))
    return float(np.linalg.norm(direct - conjugated))


def points(lat: Lattice) -> np.ndarray:
    """(size, 2) integer array of lattice points, in the sequence order."""
    j, k = np.arange(lat.n_rows), np.arange(lat.n_cols)
    xs, ws = np.broadcast_arrays((lat.a * j)[:, None] % lat.L, (lat.b * k)[None, :] % lat.L)
    return np.stack([xs, ws], axis=-1).reshape(-1, 2)


def index_of(lat: Lattice, point) -> int:
    """Flat index of a lattice point; raises if the point is not in the lattice."""
    x, w = int(point[0]) % lat.L, int(point[1]) % lat.L
    if x % lat.a != 0 or w % lat.b != 0:
        raise ValueError(f"point ({x}, {w}) is not in the lattice {lat.a}Z x {lat.b}Z mod {lat.L}")
    return (x // lat.a) * lat.n_cols + (w // lat.b)


def lattice_convolve(c, d, lat: Lattice) -> np.ndarray:
    """Group convolution (c * d)(lambda) = sum_mu c(mu) d(lambda - mu), through the
    series: the series of the convolution is the pointwise product of the series."""
    return inverse_symplectic_series(symplectic_series(c, lat) * symplectic_series(d, lat), lat)


def involution(c, lat: Lattice) -> np.ndarray:
    """out(lambda) = conj(c(-lambda)); conjugates the symplectic series."""
    c = _as_seq(c, lat)
    j = (-np.arange(lat.n_rows)) % lat.n_rows
    k = (-np.arange(lat.n_cols)) % lat.n_cols
    return np.conj(c[..., (j[:, None] * lat.n_cols + k[None, :]).reshape(-1)])


def translate_seq(point, c, lat: Lattice) -> np.ndarray:
    """out(lambda) = c(lambda - point); ``point`` must lie in the lattice."""
    j0, k0 = divmod(index_of(lat, point), lat.n_cols)
    grid = _as_seq(c, lat).reshape(lat.n_rows, lat.n_cols)
    return np.roll(grid, (j0, k0), axis=(0, 1)).reshape(-1)


class ConvolutionMatrix:
    """M x N matrix of lattice sequences, stored as an (M, N, size) array."""

    def __init__(self, lattice: Lattice, seqs):
        seqs = np.asarray(seqs, dtype=complex)
        if seqs.ndim != 3 or seqs.shape[2] != lattice.size:
            raise ValueError(
                f"expected an (M, N, {lattice.size}) array of sequences, got {seqs.shape}")
        self.lattice, self.seqs = lattice, seqs
        self.m, self.n = seqs.shape[:2]

    def convolve(self, c) -> np.ndarray:
        """Apply the system: out_m = sum_n seqs[m, n] * c_n (lattice convolution)."""
        c = np.asarray(c, dtype=complex)
        if c.shape != (self.n, self.lattice.size):
            raise ValueError(f"expected ({self.n}, {self.lattice.size}) coefficients, got {c.shape}")
        lat = self.lattice
        hat = np.einsum("mnx,nx->mx", symplectic_series(self.seqs, lat), symplectic_series(c, lat))
        return inverse_symplectic_series(hat, lat)


def transfer_matrix(A: ConvolutionMatrix) -> np.ndarray:
    """Entrywise symplectic series of the system, evaluated on the dual grid:
    the (size, M, N) transfer matrix."""
    return np.moveaxis(symplectic_series(A.seqs, A.lattice), -1, 0)


def dual_sequences(B, lat: Lattice) -> ConvolutionMatrix:
    """Entrywise inverse symplectic series of a (size, M, N) transfer matrix."""
    return ConvolutionMatrix(lat, inverse_symplectic_series(np.moveaxis(B, 0, -1), lat))


def sample_filter_matrix(P, Q, lat: Lattice) -> ConvolutionMatrix:
    """The M x N filter system A[m, n](lambda) = <S_n, alpha_lambda(Q_m)>_HS of the
    generator fibers P and averager fibers Q, so that
    average_samples(synthesize_element(c, P, lat), Q, lat) == A * c."""
    return dual_sequences(system_transfer(P, Q, lat), lat)


def build_reconstructor_multi(P, A, report, C=None) -> np.ndarray:
    """Fibers (M, |Lambda|, a*b) of the paper's explicit reconstruction
    operators H_m = sum_n b_nm * S_n, from the generator fibers P, the
    transfer matrix A (M >= N) and its ``frame_bounds`` report;
    ``left_inverse_family`` refuses when the system is not a frame.

    With B_hat the left inverse (Moore-Penrose for C = None, else the
    C-parametrized member), H_m has the fibers sum_n B_hat[xi, n, m] *
    P[n, xi, mu], so that T = sum_m sum_lambda s_m(lambda) alpha_lambda(H_m).
    ``opsampler.sampling.reconstruct`` gives the same T without forming them.
    """
    P = np.asarray(P, dtype=complex)
    if A.shape[2] != len(P):
        raise ValueError(f"system has {A.shape[2]} input channels but there are {len(P)} generators")
    B = left_inverse_family(A, report, C)
    return np.matmul(B.transpose(0, 2, 1), P.transpose(1, 0, 2)).transpose(1, 0, 2)


def seq_operator_convolve(c, S, lat: Lattice) -> np.ndarray:
    """sum_lambda c(lambda) alpha_lambda(S); the span of all such sums is
    the sampling subspace of S."""
    c = np.asarray(c, dtype=complex)
    if c.shape != (lat.size,):
        raise ValueError(f"expected a sequence of length {lat.size}, got {c.shape}")
    S = np.asarray(S, dtype=complex)
    out = np.zeros_like(S)
    for i, (x, w) in enumerate(points(lat)):
        if c[i] != 0:
            out += c[i] * translate_operator((x, w), S)
    return out


def whiten_operator(S, lat: Lattice) -> np.ndarray:
    """Generator whose lattice translates are orthonormal, by the operator route.

    The trace transform of S, taken through its Weyl symbol on the full
    grid, is divided at every cell by |Lambda| times the square root of
    the periodization at the cell's adjoint coset, and quantized as
    ``weyl_transform(symplectic_ft(.))``; only the periodization reads the
    grid's fibers.
    """
    F = symplectic_ft(weyl_symbol(S))
    power = periodize_sq(fibers(F, lat), lat)
    x = np.arange(lat.L)[:, None] % lat.n_cols
    w = np.arange(lat.L)[None, :] % lat.n_rows
    return weyl_transform(symplectic_ft(F / (lat.size * np.sqrt(power[x * lat.n_rows + w]))))
