"""Negative controls: a defect planted in the model must fail the checks
that are meant to see it, and no others.

Each defect is patched in for one test only.  The relation family runs on
trimmed samples (a few relation parameters and group-law pairs) to stay
fast; every defect below fails the same checks on the full samples.  The
kernel and limits suites run as `model verify` runs them, at (0.5, 0.3)
with seed 7.  A NaN in the kernel must fail the checks that read it: the
worst sample decides, and NaN is never below a tolerance.
"""

import cmath
import dataclasses
import json
import math
import operator
from fractions import Fraction

import numpy as np

from horocomb import blockrep, kernelspace, verification
from horocomb.cli import main
from horocomb.combination import make_representation
from horocomb.invariants import cartan_limit_estimate, geometric_schedule
from horocomb.kernelspace import ETA1, KernelContext
from horocomb.verification import (
    check,
    homomorphism_checks,
    relation_checks,
    run_suite,
    sigma_relation_checks,
)

RELATIONS = {
    "relation_s_multiplicative",
    "relation_s_u_conjugation",
    "relation_u_additive",
    "relation_w_squared",
}
SIGMA_RELATIONS = {"sigma_relation_eps_minus", "sigma_relation_eps_plus"}
HOMOMORPHISMS = {"homomorphism_parabolic_exact", "homomorphism_projective"}


def failing_relation_family(t=0.5, r=0.3) -> set[str]:
    model = make_representation(t, r)
    checks = (
        relation_checks(model, samples=(Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2)))
        + sigma_relation_checks(model, bs=(Fraction(1, 2), Fraction(2)))
        + homomorphism_checks(model, np.random.default_rng(7), n_pairs=3)
    )
    assert {c["name"] for c in checks} == RELATIONS | SIGMA_RELATIONS | HOMOMORPHISMS
    return {c["name"] for c in checks if not c["pass"]}


def failing_verdict(t=0.5, r=0.3) -> set[str]:
    model = make_representation(t, r)
    checks = run_suite(model, "all", np.random.default_rng(7), geometric_schedule())
    assert len(checks) == 27
    return {c["name"] for c in checks if not c["pass"]}


def failing_kernel_and_limits(t=0.5, r=0.3) -> set[str]:
    model = make_representation(t, r)
    rng = np.random.default_rng(7)
    schedule = geometric_schedule()
    checks = run_suite(model, "kernel", rng, schedule) + run_suite(model, "limits", rng, schedule)
    return {c["name"] for c in checks if not c["pass"]}


def block_k_without_conjugate(self, b):
    return -self.k(b)


def c_pair_with_flipped_imaginary_part(original):
    def c_pair(self, b, d):
        z = original(self, b, d)
        return complex(z.real, -z.imag)

    return c_pair


def diag_with_scaled_eta1(original):
    def apply_diag(ctx, lam, coeffs):
        coeffs = original(ctx, lam, coeffs)
        if ETA1 in coeffs:
            coeffs[ETA1] *= 1 + 1e-6
        return coeffs

    return apply_diag


def diag_with_shifted_t(original):
    def apply_diag(ctx, lam, coeffs):
        shifted = dataclasses.replace(ctx, t=ctx.t + 0.01)
        return original(shifted, lam, coeffs)

    return apply_diag


def image_times_phase(original):
    # the atom's whole image turned by e^{i 1e-9}: a constant phase, which a
    # comparison that fits its phase absorbs
    def apply_atom(ctx, param, coeffs):
        return {s: c * cmath.exp(1e-9j) for s, c in original(ctx, param, coeffs).items()}

    return apply_atom


def relation_words_off_by_one(original):
    def relation_words(*args, **kwargs):
        words = original(*args, **kwargs)
        return {k: [(lhs, rhs, n + 1) for lhs, rhs, n in v] for k, v in words.items()}

    return relation_words


def group_law_words_off_by_one(original):
    def group_law_words(model, a, b):
        lhs, rhs, n = original(model, a, b)
        return lhs, rhs, n + 1

    return group_law_words


def power_and_delta_with(transform):
    # Delta changed in the one formula that delta, c_pair and pairing_matrix share
    original = kernelspace._power_and_delta

    def power_and_delta(ctx, x):
        power, delta = original(ctx, x)
        return power, transform(delta)

    return power_and_delta


def times_nan(delta):
    return delta * math.nan


def slot_part_with_flipped_delta(ctx, u, v):
    # kernelspace._slot_part with its Delta term negated: the packed Gram only
    x_u, c_u, *terms_u = (a[:, :, None, None] for a in u)
    x_v, c_v, *terms_v = v
    re, im = kernelspace._c_gram(ctx, x_u, x_v, *terms_u, *terms_v)
    return np.einsum("ip,ipjq,jq->ij", c_u[:, :, 0, 0], re - 1j * im, c_v.conj())


def nan_c_pair(self, b, d):
    return complex(math.nan, math.nan)


def unip_with_nan_behind_a_rounding_residual(original):
    # the first C-coefficient off by a rounding-size 1e-12 (well inside the
    # tolerance), the second NaN: a reduction that keeps its first sample
    # drops the NaN
    def apply_unip(ctx, b, coeffs):
        coeffs = dict(original(ctx, b, coeffs))
        cs = [s for s in coeffs if s[0] == "c"]
        if len(cs) > 1:
            coeffs[cs[0]] *= 1 + 1e-12
            coeffs[cs[1]] = math.nan
        return coeffs

    return apply_unip


def conjugated(original):
    def factor(a):
        return original(a).conj()

    return factor


def test_check_takes_the_worst_sample():
    assert check("x", [0.1, 0.3, 0.2], 0.25) == {
        "name": "x",
        "residual": 0.3,
        "tolerance": 0.25,
        "pass": False,
    }
    assert check("x", 0.2, 0.25)["pass"] and check("x", [], 0.25)["residual"] == 0.0


def test_check_fails_on_a_nan_sample():
    rec = check("x", [0.1, math.nan], 1.0)
    assert math.isnan(rec["residual"]) and rec["pass"] is False
    assert check("x", math.nan, 1.0)["pass"] is False


def test_relation_family_passes_without_a_defect():
    assert failing_relation_family() == set()


def test_kernel_and_limits_pass_without_a_defect():
    assert failing_kernel_and_limits() == set()


def test_a_shifted_last_angle_fails_the_raw_limit():
    # the raw record has the extrapolated one's tolerance, 1e-3 here; its old
    # max(tolerance, 2 b_max^(-t/2)) = 0.02 passed this shift of 5e-3
    model = make_representation(0.5, 0.3)
    est = cartan_limit_estimate(model, geometric_schedule())
    b, v = est.points[-1]
    shifted = dataclasses.replace(est, points=est.points[:-1] + ((b, v + 5e-3),))
    verdicts = {c["name"]: c["pass"] for c in verification.limit_checks(model, shifted)}
    assert verdicts == {"cartan_limit_raw": False, "cartan_limit_extrapolated": True}


def test_block_k_without_conjugate_fails_every_relation(monkeypatch):
    monkeypatch.setattr(KernelContext, "block_k", block_k_without_conjugate)
    assert failing_relation_family() == RELATIONS | SIGMA_RELATIONS | HOMOMORPHISMS


def test_flipped_c_pair_imaginary_sign_fails_every_relation(monkeypatch):
    flipped = c_pair_with_flipped_imaginary_part(KernelContext.c_pair)
    monkeypatch.setattr(KernelContext, "c_pair", flipped)
    assert failing_relation_family() == RELATIONS | SIGMA_RELATIONS | HOMOMORPHISMS


def test_scaled_eta1_in_diag_fails_the_words_with_a_diagonal(monkeypatch):
    # the presentation relations hold no diagonal atom, so only the words
    # that do (sigma relations and the group law) can see this defect
    monkeypatch.setattr(blockrep, "_apply_diag", diag_with_scaled_eta1(blockrep._apply_diag))
    assert failing_relation_family() == SIGMA_RELATIONS | HOMOMORPHISMS


def test_unip_phase_fails_every_word_with_unequal_unipotent_counts(monkeypatch):
    # the two sides of each relation and group-law word differ in their number
    # of unip atoms, so the defect turns lhs against rhs by a multiple of 1e-9;
    # the group law reads 2e-9 against 1e-10, and relation_u_additive (one atom
    # apart) reads 1e-9 plus rounding against its tolerance of 1e-9
    monkeypatch.setattr(blockrep, "_apply_unip", image_times_phase(blockrep._apply_unip))
    assert failing_verdict() == RELATIONS | SIGMA_RELATIONS | HOMOMORPHISMS | {
        "kernel_c_cocycle",
        "kernel_sigma_helper_vector",
    }


def test_diag_phase_fails_the_words_with_a_diagonal(monkeypatch):
    monkeypatch.setattr(blockrep, "_apply_diag", image_times_phase(blockrep._apply_diag))
    assert failing_verdict() == SIGMA_RELATIONS | HOMOMORPHISMS | {"kernel_c_dilation"}


def test_identities_at_a_wrong_phase_fail_where_r_is_not_zero(monkeypatch):
    # n + 1 in place of each stated n: every identity fails at r = 0.3, none at
    # r = 0, where e^{inr} = 1 for every n
    planted = relation_words_off_by_one(verification.relation_words)
    monkeypatch.setattr(verification, "relation_words", planted)
    planted = group_law_words_off_by_one(verification.group_law_words)
    monkeypatch.setattr(verification, "group_law_words", planted)
    assert failing_relation_family() == RELATIONS | SIGMA_RELATIONS | HOMOMORPHISMS
    assert failing_relation_family(0.3, 0.0) == set()


def test_flipped_delta_in_orbit_gram_fails_the_gram_suite(capsys, monkeypatch):
    # with Delta flipped the orbit Gram has two positive eigenvalues: a failed
    # check (exit 1), not an internal error from the embedding round trip
    monkeypatch.setattr(kernelspace, "_slot_part", slot_part_with_flipped_delta)
    argv = ["model", "verify", "--t", "0.9", "--r", "1.2", "--suite", "gram", "--seed", "0"]
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 1
    rep = json.loads(out)
    verdicts = {c["name"]: c["pass"] for c in rep["checks"]}
    assert verdicts == {"gram_one_positive": False, "gram_embedding_roundtrip": True}
    assert rep["pass"] is False


def test_flipped_delta_fails_the_words_amap_kernel_addition_and_limits(monkeypatch):
    # Delta negated where the operators and every Gram read it; while the packed
    # Gram stated Delta apart, this defect there failed none of the 27 checks
    monkeypatch.setattr(kernelspace, "_power_and_delta", power_and_delta_with(operator.neg))
    assert failing_verdict() == RELATIONS | SIGMA_RELATIONS | HOMOMORPHISMS | {
        "amap_unitary",
        "cartan_limit_extrapolated",
        "cartan_limit_raw",
        "kernel_delta_odd",
        "kernel_k_addition",
        "kernel_pair_imag_delta",
    }


def test_zero_delta_fails_relations_kernel_addition_and_limits(monkeypatch):
    monkeypatch.setattr(kernelspace, "_power_and_delta", power_and_delta_with(lambda d: d * 0.0))
    assert failing_relation_family() == RELATIONS | SIGMA_RELATIONS | HOMOMORPHISMS
    assert failing_kernel_and_limits() == {
        "amap_unitary",
        "cartan_limit_extrapolated",
        "cartan_limit_raw",
        "kernel_delta_odd",
        "kernel_k_addition",
        "kernel_pair_imag_delta",
    }


def test_shifted_t_in_diag_fails_the_diagonal_words_and_dilation(monkeypatch):
    monkeypatch.setattr(blockrep, "_apply_diag", diag_with_shifted_t(blockrep._apply_diag))
    assert failing_relation_family() == SIGMA_RELATIONS | HOMOMORPHISMS
    assert failing_kernel_and_limits() == {"kernel_c_dilation"}


def test_nan_delta_fails_the_kernel_checks_that_read_it(capsys, monkeypatch):
    monkeypatch.setattr(kernelspace, "_power_and_delta", power_and_delta_with(times_nan))
    argv = ["model", "verify", "--t", "0.5", "--r", "0.3", "--suite", "kernel", "--seed", "7"]
    assert main(argv) == 1
    rep = json.loads(capsys.readouterr().out)
    failed = {c["name"] for c in rep["checks"] if not c["pass"]}
    assert failed == {
        "amap_unitary",
        "kernel_delta_odd",
        "kernel_delta_scaling",
        "kernel_k_addition",
        "kernel_pair_imag_delta",
        "kernel_sigma_helper_scalar",
    }
    assert all(math.isnan(c["residual"]) for c in rep["checks"] if c["name"] in failed)


def test_nan_c_pair_fails_the_kernel_checks_that_read_it(monkeypatch):
    monkeypatch.setattr(KernelContext, "c_pair", nan_c_pair)
    assert failing_kernel_and_limits() == {
        "amap_unitary",
        "cartan_limit_extrapolated",
        "cartan_limit_raw",
        "kernel_k_addition",
        "kernel_pair_imag_delta",
        "kernel_pair_real_norms",
        "kernel_sigma_helper_scalar",
    }


def test_nan_c_coefficient_fails_the_cocycle(monkeypatch):
    # every coefficient of a vector identity is a sample, not just the first
    planted = unip_with_nan_behind_a_rounding_residual(blockrep._apply_unip)
    monkeypatch.setattr(blockrep, "_apply_unip", planted)
    assert failing_kernel_and_limits() == {"kernel_c_cocycle"}


def test_nan_gram_fails_the_gram_suite(capsys, monkeypatch):
    # a non-finite orbit Gram is a failed check (exit 1), not an internal
    # error from its eigendecomposition
    monkeypatch.setattr(kernelspace, "_power_and_delta", power_and_delta_with(times_nan))
    argv = ["model", "verify", "--t", "0.5", "--r", "0.3", "--suite", "gram", "--seed", "7"]
    assert main(argv) == 1
    rep = json.loads(capsys.readouterr().out)
    verdicts = {c["name"]: c["pass"] for c in rep["checks"]}
    assert verdicts == {"gram_one_positive": False, "gram_embedding_roundtrip": False}


def test_nan_gram_fails_gns_check(capsys, monkeypatch):
    # gns-check shares gram_checks' guard: exit 1 with a JSON verdict, not 3
    monkeypatch.setattr(kernelspace, "_power_and_delta", power_and_delta_with(times_nan))
    assert main(["gns-check", "--t", "0.5", "--r", "0.3"]) == 1
    captured = capsys.readouterr()
    assert json.loads(captured.out)["pass"] is False
    assert captured.err == ""


def test_conjugated_cholesky_factor_fails_the_roundtrip(monkeypatch):
    # the embedding's Schur-complement factor L conjugated: its points give
    # conj(L) L^T, which differs from L L^H for a complex Gram; a real Gram
    # (r = 0) is blind to it
    monkeypatch.setattr(np.linalg, "cholesky", conjugated(np.linalg.cholesky))
    residuals = {}
    for t, r in [(0.5, 0.3), (0.9, 1.2), (0.3, 0.0)]:
        checks = run_suite(make_representation(t, r), "gram", np.random.default_rng(7), None)
        assert {c["name"]: c["pass"] for c in checks}["gram_one_positive"]
        residuals[t, r] = {c["name"]: c["residual"] for c in checks}["gram_embedding_roundtrip"]
    assert residuals[0.5, 0.3] > 0.05 and residuals[0.9, 1.2] > 0.1
    assert residuals[0.3, 0.0] < 1e-15
