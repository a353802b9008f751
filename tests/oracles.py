"""The operator calculus on Z_L x Z_L and the fiber route: the references
the package is tested against.

``opsampler`` reads every operator as the adjoint-coset fibers of its
trace transform and computes on the dual grid, and its roundtrip stays
in coefficient space.  This module computes the same things the direct
ways: by operator kernels, sums of translated operators, the Weyl symbol
on the full grid, filter sequences and their series, and the paper's
explicit reconstruction operators; and, one step closer to the package,
by the fibers of the element itself, which is synthesized, sampled,
reconstructed and compared fiber by fiber.  No CLI path reaches it.

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

import math

import numpy as np

from opsampler import runner
from opsampler.builders import rand_complex
from opsampler.frames import frame_bounds, left_inverse_family
from opsampler.lattice import (
    Lattice,
    _as_seq,
    _matmul,
    inverse_symplectic_series,
    periodize_sq,
    symplectic_series,
    unfibers,
)
from opsampler.sampling import interpolation_check, system_transfer
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


def fibers(F, lat: Lattice) -> np.ndarray:
    """Adjoint-coset fibers of phase-space functions, the inverse of
    ``opsampler.lattice.unfibers``.

    Maps ``(..., L, L)`` to ``(..., |Lambda|, |adjoint|)`` with
    ``out[..., xi, mu] = F(z_xi + mu)``, xi in dual-grid order and mu in
    the enumeration of the adjoint lattice.  Row x + (L/b)*p, column
    omega + (L/a)*q of the grid is z_xi + mu for xi = (x, omega) and
    mu = ((L/b)*p, (L/a)*q), so this is a reshape and an axis move.
    """
    F = np.asarray(F)
    if F.shape[-2:] != (lat.L, lat.L):
        raise ValueError(f"expected {lat.L} x {lat.L} phase-space arrays, got {F.shape}")
    lead = F.shape[:-2]
    grid = F.reshape(lead + (lat.b, lat.n_cols, lat.a, lat.n_rows))
    grid = np.moveaxis(grid, (-4, -2), (-2, -1))
    return grid.reshape(lead + (lat.size, lat.a * lat.b))


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
    ``reconstruct`` gives the same T without forming them.
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


# --------------------------------------------------------- the fiber route

def _as_fibers(P, lat: Lattice, ndim: int = 3) -> np.ndarray:
    """Fibers as a complex (K, |Lambda|, a*b) stack, or with ndim=2 as the
    (|Lambda|, a*b) fibers of one element."""
    P = np.asarray(P, dtype=complex)
    if P.ndim != ndim or P.shape[-2:] != (lat.size, lat.a * lat.b):
        raise ValueError(f"expected fibers of shape ({lat.size}, {lat.a * lat.b}), got {P.shape}")
    return P


def _as_coeffs(c, n: int, size: int) -> np.ndarray:
    c = np.asarray(c, dtype=complex)
    if c.ndim == 1:
        c = c[None, :]
    if c.shape != (n, size):
        raise ValueError(f"expected ({n}, {size}) coefficient array, got {c.shape}")
    return c


def _combine(W, P) -> np.ndarray:
    """out[k, xi, mu] = sum_n W[xi, k, n] * P[n, xi, mu]: one matrix product per fiber."""
    return _matmul(W, P.transpose(1, 0, 2)).transpose(1, 0, 2)


def synthesize_element(c, P, lat: Lattice) -> np.ndarray:
    """Fibers series(c) * P of sum_n sum_lambda c_n(lambda) alpha_lambda(S_n),
    shape (|Lambda|, a*b), from the (K, |Lambda|, a*b) fibers P of the S_n."""
    P = _as_fibers(P, lat)
    c = _as_coeffs(c, P.shape[0], lat.size)
    return _combine(symplectic_series(c, lat).T[:, None, :], P)[0]


def average_samples(E, Q, lat: Lattice) -> np.ndarray:
    """Samples s[m, i] = <T, alpha_{lambda_i}(Q_m)>_HS of the element T with
    the (|Lambda|, a*b) fibers E, from the (M, |Lambda|, a*b) averager
    fibers Q; shape (M, size).  Their series is the transfer matrix of the
    one-generator system of E."""
    E = _as_fibers(E, lat, ndim=2)
    A = system_transfer(E[None], _as_fibers(Q, lat), lat)
    return inverse_symplectic_series(np.moveaxis(A, 0, -1), lat)[:, 0]


def reconstruct(s, P, A, report, lat: Lattice, C=None) -> np.ndarray:
    """Fibers (|Lambda|, a*b) of sum_m sum_lambda s_m(lambda) alpha_lambda(H_m),
    from the (M, |Lambda|) samples s, the generator fibers P, the transfer
    matrix A (M >= N), its ``frame_bounds`` report and the free parameter C:
    the synthesis from P of the recovered coefficients, whose series is
    d_hat(xi) = B_hat(xi) s_hat(xi)."""
    P = _as_fibers(P, lat)
    if A.shape[2] != len(P):
        raise ValueError(f"system has {A.shape[2]} input channels but there are {len(P)} generators")
    s_hat = symplectic_series(_as_coeffs(s, A.shape[1], lat.size), lat)
    d_hat = left_inverse_family(A, report, C, s_hat.T[:, :, None])
    return _combine(d_hat.transpose(0, 2, 1), P)[0]


def relative_error(P_rec, P) -> float:
    """Relative HS-norm error of a reconstruction, as the Frobenius ratio of
    the two elements' fibers (a reshape of a unitary transform)."""
    P = np.asarray(P)
    return float(np.linalg.norm(np.asarray(P_rec) - P) / np.linalg.norm(P))


def roundtrip_draws(cfg):
    """What ``runner.run_roundtrip`` draws for a config whose builders and
    verdicts pass, from the same stream in the same order: the lattice, the
    generator and averager fibers P and Q, the transfer matrix A and its
    frame report, the coefficients c, and the free parameter C (None unless
    ``c_matrix`` is random)."""
    rng = runner._make_rng(cfg.seed)
    lat, _, (P, Q) = runner._start(cfg, "roundtrip", rng)
    A = system_transfer(P, Q, lat)
    system = frame_bounds(A, lat, cfg.tol_pos)
    c = rand_complex(rng, (len(P), lat.size))
    C = rand_complex(rng, (lat.size, len(P), len(Q))) if cfg.c_matrix == "random" else None
    return lat, P, Q, A, system, c, C


def fiber_roundtrip(cfg) -> tuple[float, int]:
    """The roundtrip's relative error and exit code by the fiber route:
    synthesize the element's fibers, sample them, reconstruct, and take the
    Frobenius ratio; a square system must also pass the interpolation check."""
    lat, P, Q, A, system, c, C = roundtrip_draws(cfg)
    E = synthesize_element(c, P, lat)
    err = relative_error(reconstruct(average_samples(E, Q, lat), P, A, system, lat, C), E)
    passed = err <= cfg.tolerance
    if len(P) == len(Q):
        passed = passed and interpolation_check(A, left_inverse_family(A, system), lat,
                                                cfg.tolerance)[0]
    return err, 0 if passed else 2


def read_phase_grid(path, L: int) -> np.ndarray:
    """Read back what ``opsampler.gridio.write_phase_grid`` wrote, bit for
    bit; anything it cannot have written is a ``ValueError`` naming the
    file (and line)."""
    out = np.zeros((L, L), dtype=complex)
    seen = np.zeros((L, L), dtype=bool)
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "x,omega,re,im":
            raise ValueError(f"unexpected header {header!r} in {path}")
        for lineno, line in enumerate(fh, start=2):
            where = f"{path}, line {lineno}"
            try:
                xs, ws, re, im = line.strip().split(",")
                x, w, r, i = int(xs), int(ws), float(re), float(im)
            except ValueError:
                raise ValueError(f"{where}: expected x,omega,re,im, got {line.strip()!r}") from None
            if not (0 <= x < L and 0 <= w < L):
                raise ValueError(f"{where}: cell ({x}, {w}) is outside the {L}x{L} grid")
            if seen[x, w]:
                raise ValueError(f"{where}: cell ({x}, {w}) is listed twice")
            if not (math.isfinite(r) and math.isfinite(i)):
                raise ValueError(f"{where}: non-finite value {re},{im}")
            seen[x, w] = True
            out[x, w] = complex(r, i)
    if not seen.all():
        raise ValueError(f"expected {L * L} rows in {path}, found {int(seen.sum())}")
    return out
