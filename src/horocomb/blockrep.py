"""Block operators realizing an SU(1,1) action on formal vectors.

With respect to the splitting C.eta1 + C.eta2 + (cocycle span), the model
with parameters (t, K1), |K1| = 1, acts through three closed-form linear
isometries of the `kernelspace` form:

    diag(lam):  eta1 -> lam^t eta1, eta2 -> lam^-t eta2,
                C(b) -> lam^-t C(lam^2 b)
    unip(b):    eta1 -> eta1,
                eta2 -> k*(b) eta1 + eta2 + C(b),
                C(d) -> <C(d), C(-b)> eta1 + C(b+d) - C(b)
    sigma:      eta1 <-> eta2,  C(b) -> k*(b) C(-1/b)

where k*(b) = ctx.block_k(b) = -conj(K(b)) and <.,.> is the kernelspace
pairing.  A C-symbol is ("c", n, d), its parameter n/d in lowest terms
with d > 0.  The atoms build the new parameters (lam^2 b, b + d, -1/b) as
integer pairs that `kernelspace.c_symbol` reduces, read each parameter's
float as n / d, and chain on plain coefficient dicts; `apply` wraps one
FormalVector at the end, which drops the zero coefficients.
An operator's atom tuple is a word, read left to right as a product, so
`verification` states each word identity it checks as two atom tuples.
Arbitrary group elements evaluate through the P | PsP factorization;
products of evaluated operators agree with evaluation of products up to a
phase e^{inr}, r the angular invariant (the action is projective on the
linear level); `verification` states the integer n of each identity, and
`compare_up_to_phase` measures op_a - phase * op_b on the image
coefficients of an auto-generated probe set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    DegenerateProbeError,
    ProbeOverflowError,
    UsageError,
    ValidationError,
)
from .hypgeo import cartan_phase
from .kernelspace import (
    ETA1,
    ETA2,
    FormalVector,
    KernelContext,
    c_symbol,
    cvec,
    eta1,
    eta2,
    pairing,
    pairing_matrix,
    phase_corrected_gram,
)
from .su11 import ParabolicCoords, SU11Element, _frac, bruhat_factor

PROBE_CAP = 64
BASE_PROBE_PARAMS = (
    Fraction(1),
    Fraction(-1),
    Fraction(2),
    Fraction(-1, 2),
    Fraction(3),
)


@dataclass(frozen=True)
class RepModel:
    """A kernel context normalized to |K1| = 1 (the nu = 1 gauge)."""

    ctx: KernelContext

    def __post_init__(self):
        if abs(abs(self.ctx.k1) - 1.0) > 1e-12:
            raise ValidationError("RepModel requires |K1| = 1; use from_context")

    @staticmethod
    def from_context(ctx: KernelContext) -> "RepModel":
        return RepModel(KernelContext(ctx.t, ctx.k1 / abs(ctx.k1)))

    @property
    def t(self) -> float:
        return self.ctx.t


Atom = tuple  # ("diag", Fraction) | ("unip", Fraction) | ("sigma",)


@dataclass(frozen=True)
class RepOperator:
    """Lazy composite of closed-form atoms, applied right-to-left."""

    model: RepModel
    atoms: tuple[Atom, ...]


def op_diag(model: RepModel, lam) -> RepOperator:
    lam = _frac(lam)
    if lam <= 0:
        raise ValidationError("diagonal parameter must be positive")
    return RepOperator(model, (("diag", lam),))


def unip_atom(b) -> Atom:
    """The atom unip(b) of a rational b."""
    return ("unip", _frac(b))


def op_unipotent(model: RepModel, b) -> RepOperator:
    return RepOperator(model, (unip_atom(b),))


def op_sigma(model: RepModel) -> RepOperator:
    return RepOperator(model, (("sigma",),))


def _apply_diag(ctx: KernelContext, lam: Fraction, coeffs: Mapping) -> dict:
    lam_t = float(lam) ** ctx.t
    ln2, ld2 = lam.numerator**2, lam.denominator**2
    out: dict = {}
    for s, c in coeffs.items():
        if s == ETA1:
            out[ETA1] = out.get(ETA1, 0.0) + c * lam_t
        elif s == ETA2:
            out[ETA2] = out.get(ETA2, 0.0) + c / lam_t
        else:
            sym = c_symbol(ln2 * s[1], ld2 * s[2])
            out[sym] = out.get(sym, 0.0) + c / lam_t
    return out


def _add_c(out: dict, sym: tuple, coeff: complex) -> None:
    if coeff != 0 and sym[1]:  # C(0) is the zero vector
        out[sym] = out.get(sym, 0.0) + coeff


def _apply_unip(ctx: KernelContext, b: Fraction, coeffs: Mapping) -> Mapping:
    if not b:
        return coeffs
    bn, bd = b.numerator, b.denominator
    bx, bsym = bn / bd, ("c", bn, bd)
    kb = ctx.block_k(bx)
    out: dict = {}
    for s, c in coeffs.items():
        if s == ETA1:
            out[ETA1] = out.get(ETA1, 0.0) + c
        elif s == ETA2:
            out[ETA1] = out.get(ETA1, 0.0) + c * kb
            out[ETA2] = out.get(ETA2, 0.0) + c
            _add_c(out, bsym, c)
        else:
            dn, dd = s[1], s[2]
            out[ETA1] = out.get(ETA1, 0.0) + c * ctx.c_pair(dn / dd, -bx)
            _add_c(out, c_symbol(bn * dd + dn * bd, bd * dd), c)
            _add_c(out, bsym, -c)
    return out


def _apply_sigma(ctx: KernelContext, coeffs: Mapping) -> dict:
    out: dict = {}
    for s, c in coeffs.items():
        if s == ETA1:
            out[ETA2] = out.get(ETA2, 0.0) + c
        elif s == ETA2:
            out[ETA1] = out.get(ETA1, 0.0) + c
        else:
            _add_c(out, c_symbol(-s[2], s[1]), c * ctx.block_k(s[1] / s[2]))
    return out


def apply(op: RepOperator, v: FormalVector) -> FormalVector:
    if v.ctx is not op.model.ctx:
        raise UsageError("vector does not belong to the operator's model")
    ctx, coeffs = v.ctx, v.coeffs
    for atom in reversed(op.atoms):
        kind = atom[0]
        if kind == "diag":
            coeffs = _apply_diag(ctx, atom[1], coeffs)
        elif kind == "unip":
            coeffs = _apply_unip(ctx, atom[1], coeffs)
        else:
            coeffs = _apply_sigma(ctx, coeffs)
    return FormalVector(ctx, coeffs)


def basepoint(model: RepModel) -> FormalVector:
    """(eta1 + eta2)/sqrt2: the unit vector fixed by sigma."""
    s = 1.0 / math.sqrt(2.0)
    return FormalVector(model.ctx, {ETA1: s, ETA2: s})


def evaluate(model: RepModel, m: SU11Element) -> RepOperator:
    """Operator for a group element via the P | PsP factorization.

    g(lam, b) maps to diag(lam) unip(b/lam); a PsP element g(lam,b) s g(1,d)
    maps to diag(lam) unip(b/lam) sigma unip(d).  Well-defined on +/- m.
    """
    f = bruhat_factor(m)
    atoms = (("diag", f.lam), ("unip", f.b / f.lam))
    if isinstance(f, ParabolicCoords):
        return RepOperator(model, atoms)
    return RepOperator(model, atoms + (("sigma",), unip_atom(f.d)))


def busemann_character_model(model: RepModel, m: SU11Element) -> float:
    """t * ln(lambda) for m = +/- g(lambda, b); errors off the subgroup P."""
    f = bruhat_factor(m)
    if not isinstance(f, ParabolicCoords):
        raise UsageError("element does not stabilize the fixed boundary point")
    return model.t * math.log(float(f.lam))


# ---------------------------------------------------------------------------
# probe machinery and projective comparison

def probe_vectors(model: RepModel, *ops: RepOperator) -> list[FormalVector]:
    """eta1, eta2 and C(b) probes for the base rationals and all unipotent
    parameters appearing in the operators; capped at PROBE_CAP symbols."""
    params = set(BASE_PROBE_PARAMS) | {a[1] for op in ops for a in op.atoms if a[0] == "unip"}
    params.discard(Fraction(0))
    if len(params) + 2 > PROBE_CAP:
        raise ProbeOverflowError(f"probe set would need {len(params) + 2} symbols")
    return [eta1(model.ctx), eta2(model.ctx), *(cvec(model.ctx, b) for b in sorted(params))]


def compare_up_to_phase(
    model: RepModel,
    op_a: RepOperator,
    op_b: RepOperator,
    phase: complex = 1,
    probes: Sequence[FormalVector] | None = None,
) -> float:
    """The residual of op_a = phase * op_b on the probe span.

    The two images of each probe are compared coefficient by coefficient
    over the union of their symbols.  Symbols are linearly independent, so
    equal coefficients are equal vectors; no pairing is needed.  The
    residual is max |c_a - phase * c_b| over max(1, largest |coefficient|);
    `verification.check` holds it against a tolerance.
    """
    if probes is None:
        probes = probe_vectors(model, op_a, op_b)
    if not probes:
        raise DegenerateProbeError("empty probe set")
    images = [(apply(op_a, p), apply(op_b, p)) for p in probes]
    if any(ia.is_zero(1e-300) or ib.is_zero(1e-300) for ia, ib in images):
        raise DegenerateProbeError("an operator annihilated a probe vector")
    ca, cb = np.array(
        [
            (ia.coeffs.get(s, 0j), ib.coeffs.get(s, 0j))
            for ia, ib in images
            for s in ia.coeffs.keys() | ib.coeffs.keys()
        ]
    ).T
    scale = max(1.0, float(np.max(np.abs(ca))), float(np.max(np.abs(cb))))
    return float(np.max(np.abs(ca - phase * cb))) / scale


# ---------------------------------------------------------------------------
# orbit geometry of a model

def orbit_vectors(model: RepModel, elements: Sequence[SU11Element]) -> list[FormalVector]:
    x = basepoint(model)
    return [apply(evaluate(model, m), x) for m in elements]


def orbit_gram(model: RepModel, elements: Sequence[SU11Element]) -> np.ndarray:
    """Orbit Gram at the sigma-fixed basepoint; one positive eigenvalue for
    parameters in the constructible region."""
    vecs = orbit_vectors(model, elements)
    z = pairing_matrix(vecs, vecs + [basepoint(model)])
    return phase_corrected_gram(z[:, :-1], z[:, -1])


def cartan_pairings(model: RepModel, a: RepOperator, b: RepOperator) -> tuple[complex, complex, complex]:
    """<a x, b x>, <b x, x> and <x, a x> at the basepoint x: the pairings of Cart(a x, b x, x)."""
    x = basepoint(model)
    ax, bx = apply(a, x), apply(b, x)
    return pairing(ax, bx), pairing(bx, x), pairing(x, ax)


def model_cartan(model: RepModel, a: RepOperator, b: RepOperator) -> float:
    """Cart(a x, b x, x) at the basepoint x."""
    return cartan_phase(cartan_pairings(model, a, b))
