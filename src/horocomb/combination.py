"""Horospherical combination of models and the (t, r) family factory.

Two models with the same displacement combine by direct-summing their
cocycle parts with nonnegative weights; on the cyclic span the combined
kernel is just the weighted sum of the two kernel constants, so the
operation reduces to K-addition followed by renormalization to |K1| = 1.
The angular invariant of the result is the argument of the weighted sum of
unit kernel directions, which interpolates affinely between the two inputs
when the weights are solved for the affine target.

Endpoints: the real family (K1 = -1, invariant 0, any 0 < t < 2) and the
fractional-power family (K1 = exp(i(pi - t*pi/2)), invariant t*pi/2, for
0 < t < 1).  At t = 1 the second endpoint degenerates to the
finite-dimensional identity model (Re K1 = 0, null C-symbols), which mixes.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .blockrep import RepModel
from .errors import ParameterError, UsageError, ValidationError
from .invariants import model_arg, validate_params
from .kernelspace import KernelContext


@dataclass(frozen=True)
class CombinationSpec:
    """Two equal-displacement models plus mixing data (u in [0,1] or
    explicit nonnegative weights (p, q) with p + q > 0)."""

    model1: RepModel
    model2: RepModel
    u: float | None = None
    weights: tuple[float, float] | None = None

    def __post_init__(self):
        if abs(self.model1.t - self.model2.t) > 1e-12:
            raise UsageError("combination requires equal displacement parameters")
        if (self.u is None) == (self.weights is None):
            raise ValidationError("give exactly one of u or explicit weights")
        if self.u is not None and not 0.0 <= self.u <= 1.0:
            raise ValidationError("u must lie in [0, 1]")
        if self.weights is not None:
            p, q = self.weights
            if p < 0 or q < 0 or p + q <= 0:
                raise ValidationError("weights must be nonnegative with p + q > 0")


def mix_weights_for_target(arg1: float, arg2: float, r: float) -> tuple[float, float]:
    """Weights (p, q), p + q = 1, placing the combined angular invariant at r.

    Solves arg(p e^{i arg1} + q e^{i arg2}) = r by the two-term sine rule;
    r must lie between arg1 and arg2.
    """
    lo, hi = min(arg1, arg2), max(arg1, arg2)
    if not lo - 1e-12 <= r <= hi + 1e-12:
        raise ParameterError(f"target {r} outside [{lo}, {hi}]", "unknown")
    if abs(arg1 - arg2) < 1e-15:
        return (0.5, 0.5)
    p = math.sin(arg2 - r)
    q = math.sin(r - arg1)
    total = p + q
    return (p / total, q / total)


def combine_models(spec: CombinationSpec) -> RepModel:
    """Weighted K-sum model, renormalized to |K1| = 1.

    Gram additivity makes the two-branch direct sum and the K-sum model
    agree exactly on the cyclic span, so the single-branch model is the
    canonical representative of the combination.
    """
    c1, c2 = spec.model1.ctx, spec.model2.ctx
    if spec.weights is not None:
        p, q = spec.weights
    else:
        a1, a2 = model_arg(c1), model_arg(c2)
        target = (1.0 - spec.u) * a1 + spec.u * a2
        p, q = mix_weights_for_target(a1, a2, target)
    return RepModel.from_context(KernelContext(c1.t, p * c1.k1 + q * c2.k1))


def endpoint_real(t: float) -> RepModel:
    """The complexified real family: K1 = -1, angular invariant 0."""
    if not 0.0 < t < 2.0:
        raise ParameterError(f"real endpoint needs 0 < t < 2, got {t}", "unknown")
    return RepModel.from_context(KernelContext(t, -1.0 + 0.0j))


def endpoint_tautological(t: float) -> RepModel:
    """The fractional-power family: K1 = i exp(i(1 - t) pi/2), invariant t*pi/2.

    At t = 1 this is the finite-dimensional identity model (K1 = i exactly):
    its C-symbols are null, so it acts on the complex hyperbolic line.
    """
    if not 0.0 < t <= 1.0:
        raise ParameterError(f"tautological endpoint needs 0 < t <= 1, got {t}", "unknown")
    return RepModel.from_context(KernelContext(t, 1j * cmath.exp(1j * (1.0 - t) * math.pi / 2)))


def make_representation(t: float, r: float) -> RepModel:
    """The model with displacement t and angular invariant exactly r; an r
    in [-1e-12, 0), which `validate_params` accepts, is taken as 0."""
    verdict = validate_params(t, r)
    if verdict != "constructible":
        raise ParameterError(f"(t={t}, r={r}) is {verdict}, not constructible", verdict)
    if -1e-12 <= r < 0:  # Im K1 >= 0 is an invariant of KernelContext
        r = 0.0
    return RepModel.from_context(KernelContext(t, complex(-math.cos(r), math.sin(r))))
