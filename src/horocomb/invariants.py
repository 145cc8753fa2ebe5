"""The two classifying invariants: displacement t and the angular invariant.

The angular invariant of a model is the argument of -conj(K1), which lands
in [0, pi/2] under the storage convention Re K1 <= 0 <= Im K1: 0 for models
preserving a real hyperbolic subspace, t*pi/2 for the fractional powers of
the tautological action.  Two models with the same displacement are
equivalent exactly when their angular invariants agree.

The angular invariant is also recovered dynamically: the angle of the
triple (rho(1,b) x, rho(1,-b) x, x) converges, as b grows, to minus the
invariant, with error (4 - 2^(1-t)) sin(r) b^-t + O(b^-2t) (the closed form
is arg(1 + 2^(t-1) s e^{ir}) + 2 arg(1 + (s/2) e^{-ir}), s = b^t); the
Cartan phase of its pairings' changes between two b is the limit itself.
The finite-dimensional limit on the complex hyperbolic line is -pi/2, with
deviation ~ 3/b: its angle is the closed form atan(b) - 2 atan(b/2).  The
ratio of the two sequences recovers the invariant as a slope against pi/2.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import su11
from .blockrep import RepModel, cartan_pairings, model_cartan, op_unipotent
from .errors import ValidationError
from .hypgeo import cartan_phase


def model_arg(model) -> float:
    """Angular invariant of a model or a context: the argument of -conj(K1), in [0, pi/2]."""
    k1 = (model.ctx if isinstance(model, RepModel) else model).k1
    return math.atan2(k1.imag, -k1.real)


def validate_params(t: float, r: float) -> str:
    """'constructible' | 'boundary' | 'unknown' for a target pair (t, r).

    Constructible: 0 < t < 1 with 0 <= r <= t*pi/2, or t = 1 with
    0 <= r < pi/2.  Boundary: (t=1, r=pi/2) (a finite-dimensional model)
    and (t=2, r=0).  Everything else is unknown.
    """
    eps = 1e-12
    if t <= 0 or r < -eps:
        return "unknown"
    if abs(t - 1.0) <= eps:
        if abs(r - math.pi / 2) <= eps:
            return "boundary"
        if r < math.pi / 2:
            return "constructible"
        return "unknown"
    if abs(t - 2.0) <= eps and abs(r) <= eps:
        return "boundary"
    if 0 < t < 1 and r <= t * math.pi / 2 + eps:
        return "constructible"
    return "unknown"


# ---------------------------------------------------------------------------
# angle limits

def geometric_schedule(start: float = 1.0, ratio: float = 10.0, steps: int = 9) -> list[Fraction]:
    """b-values start * ratio^k, start and ratio rationalized to denominators
    <= 10^6; each at most half the largest float, as <C(b), C(-b)> reads 2b."""
    if not (math.isfinite(start) and math.isfinite(ratio)):
        raise ValidationError(f"schedule needs a finite start and ratio, got {start!r}, {ratio!r}")
    start_f, ratio_f = su11.rationalize(start, 10**6), su11.rationalize(ratio, 10**6)
    if ratio_f <= 1 or start_f <= 0:
        raise ValidationError("schedule needs start > 0 and ratio > 1 at denominators <= 10^6")
    schedule = [start_f * ratio_f**k for k in range(steps)]
    if schedule and schedule[-1] > sys.float_info.max / 2:
        raise ValidationError(
            f"schedule's last b = start * ratio^{steps - 1} exceeds half the largest float"
        )
    return schedule


def model_cartan_at(model: RepModel, b) -> float:
    """Cart(rho(1,b) x, rho(1,-b) x, x) at the sigma-fixed basepoint."""
    return model_cartan(model, op_unipotent(model, b), op_unipotent(model, -b))


def finite_cartan_at(b: float) -> float:
    """The same angle for the tautological action on the complex hyperbolic
    line, at the basepoint [xi1 + xi2]; tends to -pi/2 as b grows.

    In the isotropic basis the unipotent is [[1, ib], [0, 1]] and the
    triple product is 2 (1 + ib)(2 - ib)^2 = 8 + 6b^2 - 2ib^3, whose
    argument is atan(b) - 2 atan(b/2): in (-pi, pi), odd, and finite for
    every float.  Its error is absolute, about one ulp of pi; near b = 0, where
    the angle is about -b^3/4, that is not a relative bound.
    """
    b = float(b)
    return math.atan(b) - 2.0 * math.atan(b / 2.0)


@dataclass(frozen=True)
class CartanLimit:
    points: tuple[tuple[float, float], ...]  # (b, Cart(b))
    extrapolated: float
    running: tuple[float, ...]  # the first angle, then the limit read off each step


def _change(later: complex, earlier: complex) -> complex:
    """later - earlier, or 0 where that is within 2 eps of the larger pairing: rounding, not a step."""
    d = later - earlier
    return d if abs(d) > 2 * sys.float_info.epsilon * max(abs(later), abs(earlier)) else 0j


def cartan_limit_estimate(model: RepModel, b_schedule: Sequence) -> CartanLimit:
    """Cartan values along the schedule plus the limit read off each step.

    Each of the three pairings is affine in s = b^t, so its change from one b
    to a larger one has the phase of its s-coefficient, and the Cartan phase
    of the three changes is the limit -model_arg(model) up to rounding.  Where
    b^t moves by an ulp or two (t below ~1e-15), the changes and their phase
    read 0, within t*pi/2 of the limit.
    """
    bs = [su11._frac(b) for b in b_schedule]
    pairs = [cartan_pairings(model, op_unipotent(model, b), op_unipotent(model, -b)) for b in bs]
    vals = [cartan_phase(zs) for zs in pairs]
    steps = [cartan_phase(map(_change, later, earlier)) for earlier, later in zip(pairs, pairs[1:])]
    running = (vals[0], *steps)
    return CartanLimit(tuple(zip(map(float, bs), vals)), running[-1], running)


def cartan_slope(model: RepModel, b_schedule: Sequence) -> float:
    """Least-squares ratio of the model angles to the finite-dimensional ones;
    slope * pi/2 approximates the angular invariant.  It is read asymptotically,
    so the schedule must start at b >= 1: near 0 the finite angle is ~ -b^3/4."""
    if b_schedule[0] < 1:
        raise ValidationError(f"cartan_slope needs a schedule starting at b >= 1, got {float(b_schedule[0])!r}")
    num = den = 0.0
    for b, cm in cartan_limit_estimate(model, b_schedule).points:
        cf = finite_cartan_at(b)
        num += cm * cf
        den += cf * cf
    return num / den
