import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from horocomb.blockrep import RepModel, busemann_character_model, evaluate, model_cartan
from horocomb.combination import endpoint_tautological
from horocomb.errors import ValidationError
from horocomb.invariants import (
    cartan_limit_estimate,
    cartan_slope,
    finite_cartan_at,
    geometric_schedule,
    model_arg,
    model_cartan_at,
    validate_params,
)
from horocomb.kernelspace import KernelContext
from horocomb.su11 import g


def make(t, r):
    return RepModel.from_context(KernelContext(t, complex(-math.cos(r), math.sin(r))))


# ---------------------------------------------------------------------------
# the angular invariant

def test_model_arg_examples():
    assert model_arg(KernelContext(0.5, -1.0)) == 0.0
    assert model_arg(KernelContext(1.0, 1j)) == pytest.approx(math.pi / 2)
    val = model_arg(KernelContext(0.5, complex(-1, 1) / math.sqrt(2)))
    assert val == pytest.approx(math.pi / 4, abs=1e-15)


def test_model_arg_scale_invariant():
    for m in (0.25, 1.0, 7.0):
        a = model_arg(KernelContext(0.5, complex(-0.8, 0.6)))
        b = model_arg(KernelContext(0.5, m * complex(-0.8, 0.6)))
        assert a == b


def test_character_slope_recovers_t():
    for t in (0.3, 0.5, 0.9, 1.0):
        model = make(t, 0.2 * t)
        for lam in (Fraction(2), Fraction(5, 3), Fraction(9, 2)):
            slope = busemann_character_model(model, g(lam, 0)) / math.log(float(lam))
            assert slope == pytest.approx(t, abs=1e-12)


def test_validate_params():
    assert validate_params(0.5, 0.3) == "constructible"
    assert validate_params(0.5, 0.25 * math.pi) == "constructible"
    assert validate_params(1.0, math.pi / 4) == "constructible"
    assert validate_params(1.0, math.pi / 2) == "boundary"
    assert validate_params(2.0, 0.0) == "boundary"
    assert validate_params(0.5, 1.5) == "unknown"
    assert validate_params(1.5, 0.1) == "unknown"
    assert validate_params(-1.0, 0.0) == "unknown"


# ---------------------------------------------------------------------------
# angle limits

def test_real_model_has_zero_cartan():
    model = make(0.5, 0.0)
    for b in (1, 10, 1000):
        assert model_cartan_at(model, b) == pytest.approx(0.0, abs=1e-14)


@pytest.mark.parametrize(
    "t, r", [(0.5, 0.3), (0.3, 0.0), (0.7, 0.35 * math.pi), (1.0, 0.9), (0.01, 0.0157)]
)
def test_model_cartan_at_is_the_angle_of_the_evaluated_elements(t, r):
    # the unipotents alone give exactly the angle of rho(g(1, b)) and rho(g(1, -b))
    model = make(t, r)
    for b in [*geometric_schedule(), Fraction(1, 3), Fraction(-7, 2)]:
        want = model_cartan(model, evaluate(model, g(1, b)), evaluate(model, g(1, -b)))
        assert model_cartan_at(model, b) == want


CLOSED_FORM_MODELS = [(0.5, 0.3), (0.3, 0.0), (0.7, 0.35 * math.pi), (1.0, 0.9), (0.01, 0.0157), (1.0, 0.0)]


def closed_form_cartan(t, r, b):
    """Cart(rho(1,b) x, rho(1,-b) x, x) for b > 0 at 50 digits: with s = b^t,
    arg(1 + 2^(t-1) s e^{ir}) + 2 arg(1 + (s/2) e^{-ir})."""
    with mpmath.workdps(50):
        s = mpmath.mpf(b) ** t
        return mpmath.arg(1 + 2 ** (t - 1) * s * mpmath.expj(r)) + 2 * mpmath.arg(1 + s / 2 * mpmath.expj(-r))


def test_model_cartan_matches_its_closed_form_up_to_huge_b():
    # the product of the three pairings grows like b^(3t); unscaled, it
    # overflowed from b^t ~ 1e102 on (-pi/4 at (0.5, 0.3), b = 1e207)
    bs = np.geomspace(1e-3, 1e299, 80).tolist()
    for t, r in CLOSED_FORM_MODELS:
        model = make(t, r)
        for b in bs:
            assert abs(model_cartan_at(model, b) - closed_form_cartan(t, r, b)) <= 4.5e-16, (t, r, b)
    # the real model's angle is exactly 0 (NaN before, from b = 1e300 on)
    assert [model_cartan_at(make(1.0, 0.0), b) for b in (1e300, 1e301, 1e302)] == [0.0] * 3
    # at the boundary (t, r) = (1, pi/2) the closed form is the finite-dimensional angle
    for b in bs:
        assert abs(closed_form_cartan(1.0, math.pi / 2, b) - finite_cartan_at(b)) <= 4.5e-16, b


def test_finite_cartan_cross_validated():
    # against the geometric computation on validated points, moderate b
    from horocomb import hypgeo
    from horocomb.su11 import g as gel

    space = hypgeo.minkowski_space(1, "complex")
    y = space.point([1.0, 0.0])
    for b in (0.5, 1.0, 3.0, 20.0):
        gp = space.isometry(gel(1, Fraction(b)).matrix())
        gm = space.isometry(gel(1, -Fraction(b)).matrix())
        want = hypgeo.cartan_argument(gp @ y, gm @ y, y)
        assert finite_cartan_at(b) == pytest.approx(want, abs=1e-12)
    # and against the closed form Arg(8 + 6b^2 - 2i b^3) at 50 digits, on a
    # log grid up to the largest floats; the error is absolute, about one ulp of pi
    with mpmath.workdps(50):
        for b in (1.0, 10.0, 500.0, *np.geomspace(1e-6, 1.7e308, 1000).tolist()):
            for x in (b, -b):
                want = mpmath.arg(mpmath.mpc(8 + 6 * mpmath.mpf(x) ** 2, -2 * mpmath.mpf(x) ** 3))
                assert abs(finite_cartan_at(x) - want) <= 4.5e-16, x
            assert finite_cartan_at(-b) == -finite_cartan_at(b)


@pytest.mark.parametrize("b", [1e155, 1e300, 1.7976931348623157e308, math.inf])
def test_finite_cartan_at_does_not_overflow(b):
    # the unscaled triple product overflowed from b ~ 1.3e154 on: it read
    # -pi/4 there (atan2(-inf, inf)) and NaN at 1.7e308
    assert finite_cartan_at(b) == pytest.approx(-math.pi / 2, abs=1e-15)
    assert finite_cartan_at(-b) == -finite_cartan_at(b)


def test_finite_dimensional_limit():
    # deviation from -pi/2 decays like 3/b
    val = finite_cartan_at(1000.0)
    assert abs(val + math.pi / 2) < 0.01
    assert abs(val + math.pi / 2) == pytest.approx(3.0 / 1000.0, rel=0.1)


def test_model_limit_and_extrapolation():
    model = make(0.5, 0.3)
    schedule = geometric_schedule(1.0, 10.0, 9)
    est = cartan_limit_estimate(model, schedule)
    assert est.points[-1][0] == pytest.approx(1e8)
    assert abs(est.points[-1][1] + 0.3) < 0.02
    assert abs(est.extrapolated + 0.3) < 1e-3
    # the angle sequence approaches the limit monotonically from above
    vals = [v for _, v in est.points]
    assert all(vals[i + 1] < vals[i] for i in range(len(vals) - 1))


def test_limit_matches_negative_model_arg():
    for (t, r) in [(0.3, 0.1), (0.5, 0.25), (0.9, 0.6), (1.0, math.pi / 4)]:
        model = make(t, r)
        est = cartan_limit_estimate(model, geometric_schedule(1.0, 10.0, 9))
        assert abs(est.extrapolated + model_arg(model)) < 2e-3


def test_cartan_slope():
    schedule = geometric_schedule(1e6, 10.0, 3)
    model = make(0.5, 0.2)
    s = cartan_slope(model, schedule)
    assert s * math.pi / 2 == pytest.approx(0.2, abs=0.02)

    taut = make(0.5, 0.5 * math.pi / 2)  # fractional-power endpoint
    assert cartan_slope(taut, schedule) == pytest.approx(0.5, abs=0.02)

    real = make(0.5, 0.0)
    assert cartan_slope(real, schedule) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize(
    "start, slope", [(1e-6, None), (1e-3, None), (1.0, 0.09630765800587957), (1e6, 0.12716993040253163)]
)
def test_cartan_slope_refuses_a_schedule_starting_below_one(start, slope):
    # the slope is asymptotic: from 1e-6 and 1e-3 it read 2.3e9 and 72.4, against 0.127
    model, schedule = make(0.5, 0.2), geometric_schedule(start, 10.0, 3)
    if slope is None:
        with pytest.raises(ValidationError, match=f"got {start!r}"):
            cartan_slope(model, schedule)
    else:
        assert cartan_slope(model, schedule) == slope


@pytest.mark.parametrize("start, steps", [(1.0, 9), (1e290, 3)])
@pytest.mark.parametrize("t, r", [*CLOSED_FORM_MODELS, (0.9, 1.2), (1.0, "endpoint")])
def test_every_step_reads_the_limit_to_rounding(t, r, start, steps):
    # each pairing is affine in b^t, so the phase of the three pairings' changes
    # is the limit itself; the Richardson step missed it by 6.2e-3 at (0.01, 0.0157)
    model = endpoint_tautological(1.0) if r == "endpoint" else make(t, r)
    est = cartan_limit_estimate(model, geometric_schedule(start, 10.0, steps))
    assert est.running[0] == est.points[0][1]
    for v in est.running[1:]:
        assert abs(v + model_arg(model)) <= 2e-15, v


@pytest.mark.parametrize("t", [1e-17, 1e-300])
def test_a_t_so_small_that_b_to_the_t_rounds_to_one_reads_zero(t):
    # every pairing change is exactly 0, whose phase is 0: within t*pi/2 of
    # the limit, so nothing is refused (the Richardson step divided by 10^t - 1 = 0)
    est = cartan_limit_estimate(make(t, 0.0), geometric_schedule(1.0, 10.0, 3))
    assert est.running == (0.0, 0.0, 0.0)


@pytest.mark.parametrize("t", [2.1e-16, 4.7e-16, 2.1e-15])
@pytest.mark.parametrize("frac", [0.0, 0.5, 1.0])
def test_a_change_of_a_rounding_size_reads_zero_not_its_noise(t, frac):
    # where b^t moves by an ulp or two, a pairing change is rounding; read as
    # it is, its phase was pi or pi/2 (at t = 4.7e-16 and 2.1e-16)
    model = make(t, frac * t * math.pi / 2)
    for schedule in (geometric_schedule(), geometric_schedule(2.0, 3.0, 12)):
        est = cartan_limit_estimate(model, schedule)
        assert all(abs(v + model_arg(model)) <= max(2e-15, t * math.pi / 2) for v in est.running[1:])


def test_schedule_validation():
    with pytest.raises(ValidationError):
        geometric_schedule(0.0, 10.0, 5)
    with pytest.raises(ValidationError):
        geometric_schedule(1.0, 1.0, 5)


def test_cartan_intake_is_exact_and_refuses_strings():
    model = make(0.5, 0.3)
    assert model_cartan_at(model, 0.5) == model_cartan_at(model, Fraction(1, 2))
    exact = cartan_limit_estimate(model, [Fraction(1), Fraction(10)])
    assert cartan_limit_estimate(model, [1, 10.0]) == exact
    with pytest.raises(TypeError):
        model_cartan_at(model, "1/2")
    with pytest.raises(TypeError):
        cartan_limit_estimate(model, ["1", "10"])
