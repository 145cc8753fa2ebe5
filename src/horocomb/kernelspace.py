"""Formal vectors with closed-form inner products driven by a kernel constant.

A context (t, K1) determines a sesquilinear form on finite combinations of
the symbols eta1, eta2 (isotropic, pairing 1) and C(b) for nonzero rational
b.  The C-symbols span a negative-definite complement whose pairings are
fixed by the homogeneous kernel K(b) and the phase function Delta(b):

    <C(b), C(d)> = (|b-d|^t - |b|^t - |d|^t) * (-Re K1)
                   + i (Delta(b-d) - Delta(b) + Delta(d)),

with Delta(b) = sign(b) |b|^t Im K1.  `_c_gram` states this once for the
scalar `KernelContext.c_pair`, which builds the operators, and the packed
`pairing_matrix`, which builds every Gram.  K (`KernelContext.k`) is stated
apart, so that `kernel_k_addition`, `kernel_pair_imag_delta` and
`kernel_delta_odd` can test the formula against it.  K1 is stored with
Re K1 <= 0 <= Im K1; -conj(K1), whose argument in [0, pi/2] is the angular
invariant, is the matrix coefficient of the `blockrep` operators (`block_k`).

C-parameters are exact rationals; symbols compare exactly, never by float
proximity.  This keeps operator pipelines decidable: |b - d|^t is wildly
non-Lipschitz at b = d, so nearby-but-distinct parameters must never be
merged.  Every C-symbol is the plain tuple ("c", n, d) of its parameter
n/d in lowest terms with d > 0, built by `csym` or, from an integer pair,
by `c_symbol`, which the `blockrep` atoms call.  Equal rationals give equal
keys, which Python hashes and compares in C; the kernel reads the float n / d.

`pairing` pairs two vectors; `pairing_matrix` pairs two families of
vectors at once and is what every Gram uses.  It packs each family slot by
slot (vector i's p-th C-symbol as the float of its exact parameter next to
its coefficient) and sums the kernel over slot pairs, so its cost is
(C-symbols per vector)^2 times the product of the family sizes, and no two
symbols are ever merged.  Small families take every slot pair in one array;
large ones loop over slot pairs.

Also here: Gram/signature utilities, the phase-corrected orbit Gram of a
family of unit vectors (one positive eigenvalue for a genuine isometric
orbit), the positive-type check for cosh-distance kernels and their
fractional powers, and coordinates in a (1, k) space for a Gram matrix: a
Cholesky factor of its Schur complement where that certifies signature
(1, 0, n - 1), else its eigendecomposition (say for a rank-deficient Gram).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import ReconstructionError, UsageError, ValidationError
from .hypgeo import HermitianFormSpace, minkowski_space
from .su11 import _frac

ZERO_BAND = 1e-9  # relative eigenvalue zero band for signatures


@dataclass(frozen=True)
class KernelContext:
    """The pair (t, K1) that determines a representation model.

    Invariants: 0 < t <= 2; K1 != 0; Re K1 <= 0 <= Im K1; Im K1 = 0 when
    t = 2; Re K1 = 0 forces t = 1, where every C-symbol is null and the
    form lives on the line of eta1, eta2 (the finite-dimensional model).
    `delta` and `c_pair` evaluate `_c_gram`, the C-kernel of every Gram; `k` is stated apart.
    """

    t: float
    k1: complex

    def __post_init__(self):
        object.__setattr__(self, "t", float(self.t))
        object.__setattr__(self, "k1", complex(self.k1))
        if not 0.0 < self.t <= 2.0 + 1e-15:
            raise ValidationError(f"displacement parameter t = {self.t} outside (0, 2]")
        if self.k1 == 0:
            raise ValidationError("K1 must be nonzero")
        if self.k1.real > 1e-12 or self.k1.imag < -1e-12:
            raise ValidationError(f"K1 = {self.k1} must satisfy Re <= 0 <= Im")
        if abs(self.t - 2.0) < 1e-12 and abs(self.k1.imag) > 1e-12:
            raise ValidationError("t = 2 forces Im K1 = 0")
        if abs(self.k1.real) < 1e-12 and abs(self.t - 1.0) > 1e-12:
            raise ValidationError("Re K1 = 0 is only consistent at t = 1")

    @property
    def degenerate(self) -> bool:
        """True when the cocycle part vanishes (Re K1 = 0): the C-span is null."""
        return abs(self.k1.real) < 1e-12

    def k(self, b) -> complex:
        """K(b) = |b|^t (Re K1 + i sign(b) Im K1); K(0) = 0 by continuity."""
        # apart from `_c_gram` on purpose: three kernel checks test the formula against K
        b = float(b)
        if b == 0.0:
            return 0.0
        return abs(b) ** self.t * complex(self.k1.real, math.copysign(1.0, b) * self.k1.imag)

    def block_k(self, b) -> complex:
        """-conj(K(b)): the eta1-row coefficient of the block operators.

        Form preservation on the genuine (1, infinity) space forces the
        matrix entry to have real part +|c(b)|^2/2 >= 0, i.e. the sign
        convention reflected off the imaginary axis from the stored K.
        """
        return -self.k(b).conjugate()

    def delta(self, b) -> float:
        return _power_and_delta(self, float(b))[1]

    def c_pair(self, b, d) -> complex:
        """<C(b), C(d)> (`_c_gram`): the form on the cocycle span (negative definite; 0 if degenerate)."""
        b, d = float(b), float(d)
        if b == 0.0 or d == 0.0:
            raise ValidationError("C-symbols require nonzero parameters")
        return complex(*_c_gram(self, b, d, *_power_and_delta(self, b), *_power_and_delta(self, d)))


def _power_and_delta(ctx: KernelContext, x):
    """|x|^t and Delta(x) = sign(x) |x|^t Im K1 of a float or an array; floats use math.copysign."""
    ax = abs(x) ** ctx.t
    copysign = math.copysign if type(x) is float else np.copysign
    return ax, copysign(ax, x) * ctx.k1.imag


def _c_gram(ctx: KernelContext, b, d, power_b, delta_b, power_d, delta_d) -> tuple:
    """Re and Im of <C(b), C(d)> elementwise, given |.|^t and Delta of b and d."""
    power, delta = _power_and_delta(ctx, b - d)
    return (power - power_b - power_d) * -ctx.k1.real, delta - delta_b + delta_d


# ---------------------------------------------------------------------------
# symbols and vectors

ETA1 = ("eta1",)
ETA2 = ("eta2",)


def c_symbol(n: int, d: int) -> tuple:
    """The C-symbol ("c", n/g, d/g) of the rational n/d (d != 0), with g
    the gcd of n and d signed as d, so that the denominator is positive."""
    g = math.gcd(n, d)
    if d < 0:
        g = -g
    return ("c", n // g, d // g)


def csym(b) -> tuple:
    b = _frac(b)
    if not b:
        raise ValidationError("C(0) is the zero vector, not a symbol")
    return ("c", b.numerator, b.denominator)


Symbol = tuple


@dataclass(frozen=True)
class FormalVector:
    """Finite complex combination of symbols, in canonical (zero-free) form."""

    ctx: KernelContext
    coeffs: Mapping[Symbol, complex]

    def __post_init__(self):
        clean = {s: complex(c) for s, c in self.coeffs.items() if c != 0}
        object.__setattr__(self, "coeffs", MappingProxyType(clean))

    def is_zero(self, tol: float = 0.0) -> bool:
        return all(abs(c) <= tol for c in self.coeffs.values())


def eta1(ctx: KernelContext) -> FormalVector:
    return FormalVector(ctx, {ETA1: 1.0})


def eta2(ctx: KernelContext) -> FormalVector:
    return FormalVector(ctx, {ETA2: 1.0})


def cvec(ctx: KernelContext, b) -> FormalVector:
    return FormalVector(ctx, {csym(b): 1.0})


def pairing(u: FormalVector, v: FormalVector) -> complex:
    """The form B: linear in u, antilinear in v (one pair; families of
    pairs go through `pairing_matrix`)."""
    if u.ctx is not v.ctx:
        raise UsageError("vectors from different contexts")
    total = 0.0 + 0.0j
    for s1, c1 in u.coeffs.items():
        for s2, c2 in v.coeffs.items():
            if s1[0] == "c":
                if s2[0] == "c":
                    total += c1 * c2.conjugate() * u.ctx.c_pair(s1[1] / s1[2], s2[1] / s2[2])
            elif s2[0] != "c" and s1 != s2:  # <eta1,eta2> = 1, isotropic diagonals
                total += c1 * c2.conjugate()
    return complex(total)


SLOT_BROADCAST = 8192  # entries of the (n, slots, m, slots) kernel array built at once


def _pack(vecs: Sequence[FormalVector]) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[int]]:
    """The eta coefficients (N, 2), C-parameter floats (N, s) and
    C-coefficients (N, s) of a family, s its largest C-symbol count, and
    each vector's C-symbol count.

    Each coefficient sits next to the float n / d of its own symbol
    ("c", n, d); padding slots hold x = 1 with coefficient 0, so they add
    nothing.
    """
    counts = [len(v.coeffs) - (ETA1 in v.coeffs) - (ETA2 in v.coeffs) for v in vecs]
    slots = max(counts, default=0)
    xs, cs = [1.0] * (len(vecs) * slots), [0j] * (len(vecs) * slots)
    for i, v in enumerate(vecs):
        k = i * slots
        for s, c in v.coeffs.items():
            if s[0] == "c":
                xs[k], cs[k] = s[1] / s[2], c
                k += 1
    eta = [(v.coeffs.get(ETA1, 0j), v.coeffs.get(ETA2, 0j)) for v in vecs]
    return (
        np.array(eta, dtype=complex).reshape(len(vecs), 2),
        np.array(xs).reshape(len(vecs), slots),
        np.array(cs, dtype=complex).reshape(len(vecs), slots),
        counts,
    )


def _slot_part(ctx: KernelContext, u: tuple[np.ndarray, ...], v: tuple[np.ndarray, ...]) -> np.ndarray:
    """sum over slots p, q of c_u[i, p] <C(x_u[i, p]), C(x_v[j, q])> conj(c_v[j, q]),
    u and v each (x, c, |x|^t, Delta(x)) of shape (n, slots)."""
    x_u, c_u, *terms_u = (a[:, :, None, None] for a in u)
    x_v, c_v, *terms_v = v
    re, im = _c_gram(ctx, x_u, x_v, *terms_u, *terms_v)
    return np.einsum("ip,ipjq,jq->ij", c_u[:, :, 0, 0], re + 1j * im, c_v.conj())


def pairing_matrix(us: Sequence[FormalVector], vs: Sequence[FormalVector]) -> np.ndarray:
    """[B(u_i, v_j)] for two families, as numpy products.

    Both families are packed slot by slot (`_pack`): vector i's p-th
    C-symbol is the float x[i, p] with coefficient c[i, p].  The C-part is
    the sum over slot pairs (p, q) of c_u[:, p] conj(c_v[:, q])^T times the
    C-symbol Gram of x_u[:, p] and x_v[:, q] (`_c_gram`, the formula of
    `c_pair`), so symbols are never merged.  Small families evaluate every
    slot pair in one (n, slots_u, m, slots_v) array, which keeps the numpy
    call count fixed; above SLOT_BROADCAST entries the slot pairs go one at
    a time, so each temporary is only (n, m).
    """
    vecs = [*us, *vs]
    n = len(us)
    if not n or len(vecs) == n:
        return np.zeros((n, len(vecs) - n), dtype=complex)
    ctx = vecs[0].ctx
    if any(v.ctx is not ctx for v in vecs):
        raise UsageError("vectors from different contexts")
    eta, x, coef, counts = _pack(vecs)
    out = eta[:n] @ eta[n:, ::-1].conj().T  # <eta1,eta2> = 1, isotropic diagonals
    slots_u, slots_v = max(counts[:n]), max(counts[n:])
    if not slots_u or not slots_v:
        return out
    packed = (x, coef, *_power_and_delta(ctx, x))
    u = tuple(a[:n, :slots_u] for a in packed)
    v = tuple(a[n:, :slots_v] for a in packed)
    if n * slots_u * (len(vecs) - n) * slots_v <= SLOT_BROADCAST:
        return out + _slot_part(ctx, u, v)
    for p in range(slots_u):
        for q in range(slots_v):
            out += _slot_part(ctx, tuple(a[:, p : p + 1] for a in u), tuple(a[:, q : q + 1] for a in v))
    return out


# ---------------------------------------------------------------------------
# Gram utilities

def signature_count(mat: np.ndarray, zero_band: float = ZERO_BAND) -> tuple[int, int, int]:
    """(positive, zero, negative) eigenvalue counts of a Hermitian matrix; one with a
    non-finite entry has NaN eigenvalues, in no class (eigvalsh reads diag(1, nan) as 0s)."""
    mat = np.asarray(mat)
    eigs = np.linalg.eigvalsh(mat) if np.isfinite(mat).all() else np.full(len(mat), np.nan)
    return eigenvalue_signature(eigs, zero_band)


def eigenvalue_signature(eigs: np.ndarray, zero_band: float = ZERO_BAND) -> tuple[int, int, int]:
    """(positive, zero, negative) counts of real eigenvalues; those within
    zero_band times the largest modulus count as zero."""
    eigs = np.asarray(eigs)
    scale = float(np.max(np.abs(eigs))) if eigs.size else 0.0
    if scale == 0.0:
        return (0, len(eigs), 0)
    band = zero_band * scale
    npos = int(np.sum(eigs > band))
    nzero = int(np.sum(np.abs(eigs) <= band))
    return (npos, nzero, int(np.sum(eigs < -band)))  # a NaN counts in none


def phase_corrected_gram(z: np.ndarray, base_pair: np.ndarray, power: float = 1.0) -> np.ndarray:
    """M[g, k] = |z[g, k]|^power exp(-i power alpha(g, k, e)) from pairings.

    ``z[g, k]`` pairs the unit lifts of orbit points g and k, ``base_pair[g]``
    pairs lift g with the basepoint, and alpha(g, k, e) =
    Arg(z[g, k] base_pair[k] conj base_pair[g]).  Only the strict upper
    triangle of ``z`` is read; the lower triangle is its conjugate, so M is
    exactly Hermitian, and the diagonal is exactly 1.
    """
    z = np.asarray(z, dtype=complex)
    bp = np.asarray(base_pair, dtype=complex)
    alpha = np.angle(z * bp[None, :] * bp.conj()[:, None])
    out = np.triu(np.abs(z) ** power * np.exp(-1j * power * alpha), 1)
    out += out.conj().T
    np.fill_diagonal(out, 1.0)
    return out


def _inner_table(vectors: Sequence, base, inner: Callable[[object, object], complex]) -> np.ndarray:
    """z[i, j] = inner(v_i, v_j) for i < j (zero below), z[i, n] = inner(v_i, base)."""
    n = len(vectors)
    z = np.zeros((n, n + 1), dtype=complex)
    for i in range(n):
        z[i, n] = inner(vectors[i], base)
        for j in range(i + 1, n):
            z[i, j] = inner(vectors[i], vectors[j])
    return z


def positive_type_check(
    vectors: Sequence,
    base,
    inner: Callable[[object, object], complex],
    power: float = 1.0,
    unit_beta: bool = False,
) -> dict:
    """PSD report for the kernel beta(g)beta(k) - e^{-i alpha} beta(g^-1 k).

    ``power`` replaces (beta, alpha) by (beta^power, power*alpha) -- the
    fractional-power kernels stay of positive type for 0 < power < 1.
    ``unit_beta`` replaces beta by 1 (negative control: fails for any
    configuration with a nonzero angle).  PSD: every eigenvalue >= -1e-8 max(1, max |eig|).
    """
    z = _inner_table(vectors, base, inner)
    z, base_pair = z[:, :-1], z[:, -1]
    if unit_beta:
        beta = np.ones(len(base_pair))
        z = np.exp(1j * np.angle(z))
    else:
        beta = np.abs(base_pair) ** power
    mat = np.outer(beta, beta) - phase_corrected_gram(z, base_pair, power)
    eigs = np.linalg.eigvalsh(mat)
    top = float(np.max(np.abs(eigs))) if eigs.size else 0.0
    min_eig = float(eigs[0]) if eigs.size else 0.0
    return {
        "min_eigenvalue": min_eig,
        "max_abs_eigenvalue": top,
        "psd": bool(min_eig >= -1e-8 * max(top, 1.0)),
        "eigenvalues": [float(e) for e in eigs],
    }


def reconstruct_embedding(
    gram: np.ndarray, zero_band: float = ZERO_BAND
) -> tuple[HermitianFormSpace, list[np.ndarray]]:
    """Coordinates w_i in a diag(1, -1, ..., -1) space with B(w_i, w_j) = gram[i, j].

    With g = gram[:, 0] / sqrt(gram[0, 0]) and S = g g^H - gram[1:, 1:], a
    Cholesky factor L of S certifies signature (1, 0, n - 1) (Haynsworth, at
    any positive pivot) and gives w_i = (g_i, L_i), L_0 = 0.  It is tried if
    gram[0, 0] (1 in an orbit Gram) > zero_band |gram|_F, so that the positive
    eigenvalue (>= gram[0, 0]) is outside the zero band; else eigh needs
    (1, 0, k) outside it."""
    gram = np.asarray(gram, dtype=complex)
    if not np.isfinite(gram).all():
        raise ReconstructionError("Gram has non-finite entries, need exactly 1 positive direction")
    if gram.size and gram[0, 0].real > zero_band * np.linalg.norm(gram):
        g = gram[:, 0] / math.sqrt(gram[0, 0].real)
        try:
            low = np.linalg.cholesky(np.outer(g[1:], g[1:].conj()) - gram[1:, 1:])
        except np.linalg.LinAlgError:
            pass  # S singular or indefinite
        else:
            coords = np.zeros(gram.shape, dtype=complex)
            coords[:, 0], coords[1:, 1:] = g, low
            return minkowski_space(len(gram) - 1, "complex"), list(coords)
    eigs, vecs = np.linalg.eigh(gram)
    npos = eigenvalue_signature(eigs, zero_band)[0]
    if npos != 1:
        raise ReconstructionError(
            f"signature has {npos} positive directions, need exactly 1"
        )
    keep = np.abs(eigs) > zero_band * float(np.max(np.abs(eigs)))
    eigs, vecs = eigs[keep], vecs[:, keep]
    order = np.argsort(-eigs)  # positive first
    eigs, vecs = eigs[order], vecs[:, order]
    coords = vecs * np.sqrt(np.abs(eigs))[None, :]
    space = minkowski_space(len(eigs) - 1, "complex")
    points = [coords[i, :] for i in range(gram.shape[0])]
    return space, points
