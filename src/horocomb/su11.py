"""The group layer: SU(1,1), its parabolic subgroup, and its classical maps.

An element M(alpha, beta) = [[alpha, beta], [conj(beta), conj(alpha)]],
an isometry of the form diag(1, -1) on {e1, e2}, is stored as its image
psi(m) in SL2(R): four integers over one positive denominator, reduced so
that equal elements store equal integers.  psi reads the matrix in the
isotropic basis xi1 = (e1+e2)/sqrt2, xi2 = (e1-e2)/sqrt2 up to factors i, so
the parabolic coordinates g(lambda, b) have psi = [[lam, b], [0, 1/lam]] and
s has psi = [[0, 1], [-1, 0]].  Products, inverses and factorizations are
integer 2x2 arithmetic with one gcd per result; elements built from rational
data never round.  That exactness is load-bearing: downstream symbolic
operators index basis vectors by these rational parameters.  alpha and beta
are derived from the stored integers.

Every construction, products included, checks det psi = |alpha|^2 -
|beta|^2 = 1 to within 1e-12 as an exact integer inequality: rounded inputs
are accepted inside that band, and the determinant of their products moves
away from 1 with each factor, so a long product must not skip the check.

Also provided, in closed form on the same integers: psi as a float matrix,
the double cover onto SO(1,2) (the symmetric square of psi), and
translation lengths.  `verification` checks the relations of the group
presentation by unipotents u(r) and the element w as words of operator atoms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

import numpy as np

from .errors import ValidationError

Rat = Union[Fraction, int]

TRACE_TOL = 1e-10  # |Re(alpha)| vs 1 band for the type trichotomy


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(x)  # exact binary value
    raise TypeError(f"expected a rational number, got {type(x).__name__}")


def rationalize(x, cap: int) -> Fraction:
    """Fraction(x).limit_denominator(cap) for cap >= 1, on integers: the same
    continued-fraction bounds, x between them; p1/q1 (ties too) if 2 d (q0 + k q1) <= d0."""
    n0, d0 = x.as_integer_ratio()  # OverflowError for inf, ValueError for NaN
    if d0 <= cap:
        return Fraction(n0, d0)
    p0, q0, p1, q1 = 0, 1, 1, 0
    n, d = n0, d0
    while True:
        a = n // d
        q2 = q0 + a * q1
        if q2 > cap:
            break
        p0, q0, p1, q1 = p1, q1, p0 + a * p1, q2
        n, d = d, n - a * d
    k = (cap - q0) // q1
    if 2 * d * (q0 + k * q1) <= d0:
        return Fraction(p1, q1)
    return Fraction(p0 + k * p1, q0 + k * q1)


def _part(i: int) -> property:
    return property(lambda self: Fraction(self._alpha_beta()[i], 2 * self._den), doc="exact part, a Fraction")


class SU11Element:
    """M(alpha, beta), stored as psi(m) = [[a, b], [c, d]] / den.

    a, b, c, d and den > 0 are integers with gcd 1 over all five, so equal
    elements store equal integers.  alpha = ((a+d) + i(b-c)) / 2den and
    beta = ((a-d) - i(b+c)) / 2den are derived: `a_re` .. `b_im` return
    them as Fractions.  Every construction checks the determinant (see the
    module docstring for why products do too).
    """

    __slots__ = ("_psi", "_den")

    def __init__(self, a_re: Rat, a_im: Rat, b_re: Rat, b_im: Rat):
        parts = [_frac(x) for x in (a_re, a_im, b_re, b_im)]
        den = math.lcm(*(f.denominator for f in parts))
        ar, ai, br, bi = (f.numerator * (den // f.denominator) for f in parts)
        self._set((ar + br, ai - bi, -(ai + bi), ar - br), den)

    @classmethod
    def _from_ints(cls, psi: tuple[int, int, int, int], den: int) -> "SU11Element":
        out = cls.__new__(cls)
        out._set(psi, den)
        return out

    def _set(self, psi: tuple[int, int, int, int], den: int) -> None:
        common = math.gcd(*psi, den)  # den > 0 for every caller
        psi, den = tuple(n // common for n in psi), den // common
        a, b, c, d = psi
        # ad - bc is the integer |alpha|^2 - |beta|^2 over den^2
        det, den2 = a * d - b * c, den * den
        if abs(det - den2) * 10**12 > den2:  # |det/den^2 - 1| > 1e-12, exactly
            # the quotient is formed only below 2^1023 in modulus, so it cannot overflow
            shown = det / den2 if abs(det) >> 1023 < den2 else (-math.inf if det < 0 else math.inf)
            raise ValidationError(f"|alpha|^2 - |beta|^2 = {shown} != 1")
        self._psi, self._den = psi, den

    def _alpha_beta(self) -> tuple[int, int, int, int]:
        """(Re alpha, Im alpha, Re beta, Im beta) times 2 den."""
        a, b, c, d = self._psi
        return a + d, b - c, a - d, -(b + c)

    a_re, a_im, b_re, b_im = (_part(i) for i in range(4))

    def __eq__(self, other) -> bool:
        if not isinstance(other, SU11Element):
            return NotImplemented
        return self._psi == other._psi and self._den == other._den

    def __hash__(self) -> int:
        return hash((self._psi, self._den))

    def __repr__(self) -> str:
        return f"SU11Element({', '.join(str(Fraction(n, 2 * self._den)) for n in self._alpha_beta())})"

    @staticmethod
    def identity() -> "SU11Element":
        return SU11Element._from_ints((1, 0, 0, 1), 1)

    @property
    def alpha(self) -> complex:
        return complex(self.a_re, self.a_im)  # each part correctly rounded

    @property
    def beta(self) -> complex:
        return complex(self.b_re, self.b_im)

    def matrix(self) -> np.ndarray:
        a, b = self.alpha, self.beta
        return np.array([[a, b], [np.conj(b), np.conj(a)]])

    def __mul__(self, other: "SU11Element") -> "SU11Element":
        (a1, b1, c1, d1), (a2, b2, c2, d2) = self._psi, other._psi
        return SU11Element._from_ints(
            (a1 * a2 + b1 * c2, a1 * b2 + b1 * d2, c1 * a2 + d1 * c2, c1 * b2 + d1 * d2),
            self._den * other._den,
        )

    def inv(self) -> "SU11Element":
        a, b, c, d = self._psi
        return SU11Element._from_ints((d, -b, -c, a), self._den)

    def neg(self) -> "SU11Element":
        return SU11Element._from_ints(tuple(-n for n in self._psi), self._den)


def s_element() -> SU11Element:
    """The involution s: xi1 -> i xi2, xi2 -> i xi1 (alpha = i, beta = 0)."""
    return SU11Element._from_ints((0, 1, -1, 0), 1)


@dataclass(frozen=True)
class ParabolicCoords:
    """g(lambda, b) with lambda > 0, both exact rationals."""

    lam: Fraction
    b: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lam", _frac(self.lam))
        object.__setattr__(self, "b", _frac(self.b))
        if self.lam <= 0:
            raise ValidationError("parabolic coordinate lambda must be positive")


def to_su11(p: ParabolicCoords) -> SU11Element:
    """g(lambda, b), whose psi is [[lam, b], [0, 1/lam]]; exact."""
    ln, ld, bn, bd = p.lam.numerator, p.lam.denominator, p.b.numerator, p.b.denominator
    return SU11Element._from_ints((ln * ln * bd, bn * ln * ld, 0, ld * ld * bd), ln * ld * bd)


def g(lam, b) -> SU11Element:
    return to_su11(ParabolicCoords(_frac(lam), _frac(b)))


@dataclass(frozen=True)
class PsPFactors:
    """m = +/- g(lam, b) . s . g(1, d)."""

    lam: Fraction
    b: Fraction
    d: Fraction


def bruhat_factor(m: SU11Element) -> ParabolicCoords | PsPFactors:
    """Factor any element through the decomposition SU(1,1) = P | PsP.

    psi(g(lam,b)) = [[lam, b], [0, 1/lam]] and psi(g(lam,b) s g(1,d)) =
    [[-b, lam - b d], [-1/lam, -d/lam]], so the exact lower-left entry of
    psi(m) decides the branch.  Signs make lambda > 0; the result
    reconstructs +/- m exactly.
    """
    a, b, c, d = m._psi
    if c == 0:
        sign = 1 if a > 0 else -1
        return ParabolicCoords(Fraction(sign * a, m._den), Fraction(sign * b, m._den))
    sign = 1 if c < 0 else -1
    return PsPFactors(Fraction(m._den, -sign * c), Fraction(-sign * a, m._den), Fraction(d, c))


def reconstruct(f: ParabolicCoords | PsPFactors) -> SU11Element:
    if isinstance(f, ParabolicCoords):
        return to_su11(f)
    return to_su11(ParabolicCoords(f.lam, f.b)) * s_element() * g(1, f.d)


# ---------------------------------------------------------------------------
# classical maps

def psi_to_sl2(m: SU11Element) -> np.ndarray:
    """Isomorphism onto SL2(R) with psi(g(lam,b)) = [[lam, b], [0, 1/lam]]
    and psi(s) = [[0, 1], [-1, 0]]; each entry is correctly rounded."""
    (a, b, c, d), den = m._psi, m._den
    return np.array([[a / den, b / den], [c / den, d / den]])


# form preserved by phi_to_so12 images: first two basis vectors isotropic
# with pairing 1, third of square -1
SO12_FORM = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, -1.0]])


def phi_to_so12(m: SU11Element) -> np.ndarray:
    """Double cover SU(1,1) -> SO(1,2) with kernel {+I, -I}: the symmetric
    square of psi(m) = [[a, b], [c, d]] on the basis (x^2, y^2, -sqrt2 xy).

    Images preserve SO12_FORM; Phi(g(lam,0)) = diag(lam^2, lam^-2, 1) and
    Phi(s) = [[0,1,0],[1,0,0],[0,0,-1]].  Each product of psi entries is
    formed exactly and rounded once, before any factor sqrt2.
    """
    a, b, c, d = m._psi
    den2, r2 = m._den * m._den, math.sqrt(2.0)
    return np.array(
        [
            [a * a / den2, b * b / den2, r2 * (-a * b / den2)],
            [c * c / den2, d * d / den2, r2 * (-c * d / den2)],
            [r2 * (-a * c / den2), r2 * (-b * d / den2), (a * d + b * c) / den2],
        ]
    )


def classify_su11(m: SU11Element) -> str:
    """Type trichotomy by |Re(alpha)| against 1."""
    tre = abs(float(m.a_re))
    if tre > 1.0 + TRACE_TOL:
        return "hyperbolic"
    if tre < 1.0 - TRACE_TOL:
        return "elliptic"
    off = abs(float(m.a_im)) + abs(float(m.b_re)) + abs(float(m.b_im))
    return "elliptic" if off < TRACE_TOL else "parabolic"


def displacement_su11(m: SU11Element) -> float:
    """Translation length on the complex hyperbolic line: 0 unless
    hyperbolic, then ln of the largest eigenvalue modulus."""
    if classify_su11(m) != "hyperbolic":
        return 0.0
    return math.acosh(abs(float(m.a_re)))


# ---------------------------------------------------------------------------
# seeded sampling (shared by the CLI and the test suites)

DENOM_CAP = 2**16


def random_su11(rng: np.random.Generator) -> SU11Element:
    """Seeded rational group element g(lam, b) s^eps g(1, d).

    lam = exp(uniform[-1, 1]) and b, d uniform[-2, 2], all rationalized to
    denominators <= DENOM_CAP so that downstream symbolic parameters stay
    exactly representable.
    """
    lam = rationalize(math.exp(rng.uniform(-1.0, 1.0)), DENOM_CAP)
    b = rationalize(rng.uniform(-2.0, 2.0), DENOM_CAP)
    d = rationalize(rng.uniform(-2.0, 2.0), DENOM_CAP)
    eps = int(rng.integers(0, 2))
    out = g(lam, b)
    if eps:
        out = out * s_element()
    return out * g(1, d)
