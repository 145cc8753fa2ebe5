import math
from fractions import Fraction

import numpy as np
import pytest

from horocomb import su11
from horocomb.blockrep import RepModel, orbit_gram
from horocomb.combination import (
    CombinationSpec,
    combine_models,
    endpoint_real,
    endpoint_tautological,
    make_representation,
    mix_weights_for_target,
)
from horocomb.errors import ParameterError, UsageError, ValidationError
from horocomb.invariants import model_arg
from horocomb.kernelspace import KernelContext, positive_type_check, signature_count
from horocomb.invariants import geometric_schedule
from horocomb.verification import relation_checks, run_suite, sigma_relation_checks


def assert_same_invariants(a, b):
    """Same displacement t and same angular invariant, to within 1e-12."""
    assert abs(a.t - b.t) <= 1e-12
    assert abs(model_arg(a) - model_arg(b)) <= 1e-12


# ---------------------------------------------------------------------------
# mixing weights

def test_mix_weights_symmetric_case():
    p, q = mix_weights_for_target(0.0, math.pi / 2, math.pi / 4)
    assert (p, q) == pytest.approx((0.5, 0.5), abs=1e-15)


def test_mix_weights_endpoint_case():
    p, q = mix_weights_for_target(0.1, 0.8, 0.1)
    assert (p, q) == pytest.approx((1.0, 0.0), abs=1e-15)


def test_mix_weights_half_angle():
    p, q = mix_weights_for_target(0.0, math.pi / 4, math.pi / 8)
    assert (p, q) == pytest.approx((0.5, 0.5), abs=1e-15)
    # verify by substitution
    val = p * math.cos(0.0) + q * math.cos(math.pi / 4) + 1j * (
        p * math.sin(0.0) + q * math.sin(math.pi / 4)
    )
    assert math.atan2(val.imag, val.real) == pytest.approx(math.pi / 8, abs=1e-15)


def test_mix_weights_out_of_range():
    with pytest.raises(ParameterError):
        mix_weights_for_target(0.1, 0.5, 0.9)


# ---------------------------------------------------------------------------
# combination

def test_combine_unit_moduli_perpendicular():
    m1 = RepModel.from_context(KernelContext(1.0, -1.0))
    m2 = RepModel.from_context(KernelContext(1.0, 1j))
    spec = CombinationSpec(m1, m2, weights=(1.0, 1.0))
    combined = combine_models(spec)
    want = complex(-1.0, 1.0) / math.sqrt(2.0)
    assert combined.ctx.k1 == pytest.approx(want, abs=1e-15)
    assert model_arg(combined) == pytest.approx(math.pi / 4, abs=1e-15)


def test_combine_with_itself_is_equivalent():
    m = make_representation(0.5, 0.3)
    for w in [(1.0, 1.0), (0.2, 3.0)]:
        combined = combine_models(CombinationSpec(m, m, weights=w))
        assert_same_invariants(combined, m)


def test_combine_requires_equal_t():
    with pytest.raises(UsageError):
        CombinationSpec(make_representation(0.5, 0.1), make_representation(0.6, 0.1), u=0.5)


def test_combination_spec_validation():
    m = make_representation(0.5, 0.1)
    with pytest.raises(ValidationError):
        CombinationSpec(m, m)  # neither u nor weights
    with pytest.raises(ValidationError):
        CombinationSpec(m, m, u=0.5, weights=(1, 1))
    with pytest.raises(ValidationError):
        CombinationSpec(m, m, u=1.5)
    with pytest.raises(ValidationError):
        CombinationSpec(m, m, weights=(-1.0, 1.0))
    with pytest.raises(ValidationError):
        CombinationSpec(m, m, weights=(0.0, 0.0))


def test_direct_sum_gram_equals_k_sum_gram():
    # two-branch oracle: pairings of c1(b) + c2(b) under the direct sum of
    # the branch forms agree with the single-branch pairings of the K-sum
    t = 0.5
    rng = np.random.default_rng(51)
    k_a = 0.8 * complex(-math.cos(0.1), math.sin(0.1))
    k_b = 1.7 * complex(-math.cos(0.7), math.sin(0.7))
    ca, cb = KernelContext(t, k_a), KernelContext(t, k_b)
    csum = KernelContext(t, k_a + k_b)
    for _ in range(20):
        b = Fraction(float(rng.uniform(-3, 3))).limit_denominator(999) or Fraction(1)
        d = Fraction(float(rng.uniform(-3, 3))).limit_denominator(999) or Fraction(2)
        direct = ca.c_pair(b, d) + cb.c_pair(b, d)
        assert csum.c_pair(b, d) == pytest.approx(direct, abs=1e-12)


def test_affine_interpolation_of_the_invariant():
    t = 0.5
    m1, m2 = endpoint_real(t), endpoint_tautological(t)
    a1, a2 = model_arg(m1), model_arg(m2)
    for u in (0.0, 0.25, 0.5, 0.75, 1.0):
        combined = combine_models(CombinationSpec(m1, m2, u=u))
        want = (1 - u) * a1 + u * a2
        assert model_arg(combined) == pytest.approx(want, abs=1e-12)


def test_combination_well_defined_under_rescaling():
    t = 0.5
    m1, m2 = endpoint_real(t), endpoint_tautological(t)
    base = combine_models(CombinationSpec(m1, m2, u=0.4))
    m1s = RepModel.from_context(KernelContext(t, 2.5 * m1.ctx.k1))
    m2s = RepModel.from_context(KernelContext(t, 0.3 * m2.ctx.k1))
    again = combine_models(CombinationSpec(m1s, m2s, u=0.4))
    assert_same_invariants(base, again)


# ---------------------------------------------------------------------------
# endpoints and the factory

def test_endpoint_real():
    m = endpoint_real(0.7)
    assert m.ctx.k1 == pytest.approx(-1.0)
    assert model_arg(m) == 0.0
    with pytest.raises(ParameterError):
        endpoint_real(2.0)


def test_endpoint_tautological():
    m = endpoint_tautological(0.7)
    assert model_arg(m) == pytest.approx(0.35 * math.pi, abs=1e-12)
    with pytest.raises(ParameterError):
        endpoint_tautological(1.5)


def test_endpoint_tautological_at_one_is_degenerate():
    m = endpoint_tautological(1.0)
    assert m.ctx.degenerate
    assert model_arg(m) == pytest.approx(math.pi / 2)
    # K1 is exactly i, so the C-symbols are exactly null (cos(pi/2) made them 3.7e-16 and 1.2e-8)
    assert m.ctx.k1 == 1j
    assert m.ctx.c_pair(3, 3) == 0 and m.ctx.c_pair(1e8, 1e8) == 0


@pytest.mark.parametrize("suite", ["relations", "kernel", "gram", "limits", "all"])
def test_every_suite_passes_at_the_degenerate_endpoint(suite):
    # the finite-dimensional model: its C-symbols are null, so each check reads the hyperbolic line
    m = endpoint_tautological(1.0)
    checks = run_suite(m, suite, np.random.default_rng(7), geometric_schedule())
    general = run_suite(make_representation(0.5, 0.3), suite, np.random.default_rng(7), geometric_schedule())
    assert [c["name"] for c in checks] == [c["name"] for c in general]
    assert all(c["pass"] for c in checks), checks


def test_tautological_power_kernel_is_positive_type():
    # the fractional-power kernels of the finite action stay PSD, matching
    # the endpoint family's invariant t*pi/2
    from horocomb.hypgeo import minkowski_space

    rng = np.random.default_rng(53)
    space = minkowski_space(1, "complex")
    base = np.array([1.0, 0.0], dtype=complex)
    els = [su11.SU11Element.identity()] + [su11.random_su11(rng) for _ in range(7)]
    vecs = [el.matrix() @ base for el in els]
    for t in (0.3, 0.7):
        assert positive_type_check(vecs, base, space.pair, power=t)["psd"]
        assert model_arg(endpoint_tautological(t)) == pytest.approx(t * math.pi / 2)


def test_make_representation_examples():
    m = make_representation(0.5, 0.0)
    assert model_arg(m) == 0.0
    assert_same_invariants(m, endpoint_real(0.5))

    m = make_representation(0.5, 0.25 * math.pi)
    assert_same_invariants(m, endpoint_tautological(0.5))

    m = make_representation(0.5, 0.3)
    assert model_arg(m) == pytest.approx(0.3, abs=1e-15)
    assert m.t == 0.5


def test_make_representation_equals_mixed_endpoints():
    t, r = 0.5, 0.3
    m = make_representation(t, r)
    p, q = mix_weights_for_target(0.0, t * math.pi / 2, r)
    mixed = combine_models(
        CombinationSpec(endpoint_real(t), endpoint_tautological(t), weights=(p, q))
    )
    assert_same_invariants(m, mixed)


def test_make_representation_rejects_outside_region():
    with pytest.raises(ParameterError) as info:
        make_representation(0.5, 1.5)
    assert info.value.verdict == "unknown"
    with pytest.raises(ParameterError) as info:
        make_representation(1.0, math.pi / 2)
    assert info.value.verdict == "boundary"


def test_grid_relations_and_gram():
    rng = np.random.default_rng(55)
    ts = (0.3, 0.6, 0.9)
    for t in ts:
        for frac in (0.25, 0.5, 0.75):
            model = make_representation(t, frac * t * math.pi / 2)
            checks = sigma_relation_checks(model) + relation_checks(
                model, samples=(Fraction(1), Fraction(-1), Fraction(2))
            )
            assert all(c["pass"] for c in checks), checks
            els = [su11.SU11Element.identity()] + [su11.random_su11(rng) for _ in range(5)]
            assert signature_count(orbit_gram(model, els))[0] == 1
