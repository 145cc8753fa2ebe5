"""Finite-dimensional hyperbolic geometry for forms of signature (1, n).

Points of the projective model are positive lines of a Hermitian (or real
symmetric) form B with exactly one positive eigenvalue.  The metric is
cosh d([v],[w]) = |B(v,w)| / (B(v,v) B(w,w))^(1/2).  On top of that this
module computes the angular invariant of triples and the
elliptic/parabolic/hyperbolic classification of form isometries with their
translation length.

Conventions: B is linear in the first argument, antilinear in the second.
Lifts are stored unnormalized; operations normalize on the fly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateConfigurationError, UsageError, ValidationError

STRUCT_TOL = 1e-12       # self-adjointness of the form matrix
FORM_TOL = 1e-10         # isometry input validation
# |abs(eigenvalue) - 1| below this counts as unit modulus.  Conjugating a
# parabolic 3x3 matrix perturbs the triple eigenvalue by O(eps^(1/3)), so
# this band must sit well above 1e-6.
UNIT_EIG_TOL = 1e-4
RANK_TOL = 1e-7          # singular values below RANK_TOL*scale count as zero


@dataclass(frozen=True)
class HermitianFormSpace:
    """Coordinate space with a non-degenerate form of signature (1, n).

    A diagonal form (every off-diagonal entry exactly 0) is validated and
    applied through its diagonal, in O(n) per pairing; the result is
    bitwise the dense one.  Any other form goes through the full matrix.
    """

    field_tag: str
    matrix: np.ndarray = field(repr=False)
    _diag: np.ndarray | None = field(init=False, default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.field_tag not in ("real", "complex"):
            raise ValidationError(f"unknown field tag {self.field_tag!r}")
        j = np.array(self.matrix, dtype=complex)
        if j.ndim != 2 or j.shape[0] != j.shape[1]:
            raise ValidationError("form matrix must be square")
        diag = np.diagonal(j).copy()
        is_diag = np.count_nonzero(j) == np.count_nonzero(diag)
        sym = diag if is_diag else j  # j - j^H vanishes off a diagonal form's diagonal
        if np.max(np.abs(sym - sym.conj().T)) > STRUCT_TOL * max(1.0, np.max(np.abs(sym))):
            raise ValidationError("form matrix is not self-adjoint")
        if is_diag:
            eigs = np.sort(diag.real)  # what eigvalsh returns for a diagonal form
            diag.flags.writeable = False
            object.__setattr__(self, "_diag", diag)
        else:
            eigs = np.linalg.eigvalsh(j)
        npos = int(np.sum(eigs > 0))
        if npos != 1 or np.any(np.abs(eigs) < STRUCT_TOL * max(1.0, np.max(np.abs(eigs)))):
            raise ValidationError(
                f"form must have signature (1, n); eigenvalues {eigs}"
            )
        j.flags.writeable = False
        object.__setattr__(self, "matrix", j)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def pair(self, v: np.ndarray, w: np.ndarray) -> complex:
        """B(v, w), linear in v and antilinear in w."""
        if self._diag is not None:
            return complex(np.conj(w) @ (self._diag * v))
        return complex(np.conj(w) @ (self.matrix @ v))

    def point(self, lift) -> "HPoint":
        return HPoint(self, np.asarray(lift, dtype=complex))

    def isometry(self, m) -> "FormIsometry":
        return FormIsometry(self, np.asarray(m, dtype=complex))


def minkowski_space(n: int, field_tag: str = "complex") -> HermitianFormSpace:
    """The standard diag(1, -1, ..., -1) space of signature (1, n)."""
    j = np.diag([1.0] + [-1.0] * n)
    return HermitianFormSpace(field_tag, j)


@dataclass(frozen=True)
class HPoint:
    """A point of the projective positive cone, stored by an arbitrary lift."""

    space: HermitianFormSpace
    lift: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = np.array(self.lift, dtype=complex)
        norm2 = float(np.real(self.space.pair(v, v)))
        if norm2 <= STRUCT_TOL * float(np.vdot(v, v).real):
            raise ValidationError("lift is not strictly positive for the form")
        v.flags.writeable = False
        object.__setattr__(self, "lift", v)

    def __eq__(self, other) -> bool:
        if not isinstance(other, HPoint) or other.space is not self.space:
            return NotImplemented
        return projectively_equal(self.lift, other.lift)

    def __hash__(self):
        raise TypeError("HPoint compares projectively and is unhashable")


def projectively_equal(v: np.ndarray, w: np.ndarray) -> bool:
    """True when w is a scalar multiple of v up to relative tolerance 1e-9."""
    nv, nw = np.linalg.norm(v), np.linalg.norm(w)
    if nv == 0.0 or nw == 0.0:
        return nv == nw
    lam = np.vdot(v, w) / np.vdot(v, v)
    return bool(np.linalg.norm(w - lam * v) <= 1e-9 * nw)


@dataclass(frozen=True)
class FormIsometry:
    """A linear map preserving the space's form: M* J M = J."""

    space: HermitianFormSpace
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        j = self.space.matrix
        resid = np.max(np.abs(m.conj().T @ j @ m - j))
        if resid > FORM_TOL * max(1.0, float(np.max(np.abs(m))) ** 2):
            raise ValidationError(f"matrix does not preserve the form (residual {resid:g})")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    def __matmul__(self, other):
        if isinstance(other, HPoint):
            return HPoint(self.space, self.matrix @ other.lift)
        return NotImplemented


def _same_space(*objs) -> HermitianFormSpace:
    space = objs[0].space
    for o in objs[1:]:
        if o.space is not space:
            raise UsageError("objects belong to different spaces")
    return space


def distance(x: HPoint, y: HPoint) -> float:
    """Hyperbolic distance arccosh(|B(x,y)| / sqrt(B(x,x) B(y,y)))."""
    space = _same_space(x, y)
    num = abs(space.pair(x.lift, y.lift))
    den = math.sqrt(
        float(np.real(space.pair(x.lift, x.lift)))
        * float(np.real(space.pair(y.lift, y.lift)))
    )
    return math.acosh(max(1.0, num / den))


def triple_product(pair, x, y, z) -> complex:
    """pair(x, y) pair(y, z) pair(z, x): the triple product whose argument is Cartan's angle."""
    return pair(x, y) * pair(y, z) * pair(z, x)


def cartan_argument(x, y, z) -> float:
    """Angular invariant Arg(B(x,y) B(y,z) B(z,x)) of a triple of points.

    Independent of the choice of lifts, alternating under permutations,
    and valued in [-pi/2, pi/2]; a value outside that range (impossible for
    genuine configurations) raises ValidationError.
    """
    space = _same_space(x, y, z)
    prod = triple_product(space.pair, x.lift, y.lift, z.lift)
    scale = (
        np.linalg.norm(x.lift) * np.linalg.norm(y.lift) * np.linalg.norm(z.lift)
    ) ** 2
    if abs(prod) <= 1e-30 * float(scale):
        raise DegenerateConfigurationError("vanishing pairing in the triple")
    val = math.atan2(prod.imag, prod.real)
    if abs(val) > math.pi / 2 + 1e-9:
        raise ValidationError(f"angular invariant {val} outside [-pi/2, pi/2]")
    return val


@dataclass(frozen=True)
class IsometryClass:
    kind: str  # "elliptic" | "parabolic" | "hyperbolic"
    displacement: float


def classify_isometry(g: FormIsometry) -> IsometryClass:
    """Classify a form isometry of a space of dimension at most 3.

    Eigenvalue-modulus analysis: an eigenvalue off the unit circle means
    hyperbolic with displacement ln(max |eig|); otherwise a defective
    (non-diagonalizable) matrix is parabolic and a diagonalizable one
    elliptic, both with displacement 0.
    """
    if g.space.dim > 3:
        raise UsageError("exact classification restricted to dimension <= 3")
    m = g.matrix
    eigs = np.linalg.eigvals(m)
    big = float(np.max(np.abs(eigs)))
    if big > 1.0 + UNIT_EIG_TOL:
        return IsometryClass("hyperbolic", math.log(big))
    # all eigenvalue moduli ~ 1: decide diagonalizability cluster by cluster
    scale = max(1.0, float(np.max(np.abs(m))))
    remaining = list(eigs)
    while remaining:
        theta = remaining.pop()
        cluster = [theta]
        for other in list(remaining):
            if abs(other - theta) < 2 * UNIT_EIG_TOL:
                cluster.append(other)
                remaining.remove(other)
        if len(cluster) < 2:
            continue
        center = np.mean(cluster)
        sigma = np.linalg.svd(m - center * np.eye(m.shape[0]), compute_uv=False)
        geo_mult = int(np.sum(sigma < RANK_TOL * scale))
        if geo_mult < len(cluster):
            return IsometryClass("parabolic", 0.0)
    return IsometryClass("elliptic", 0.0)
