"""Negative controls: a defect planted in the model must fail the checks
that are meant to see it, and no others.

Each defect is patched in for one test only.  The relation family runs on
trimmed samples (a few relation parameters and group-law pairs) to stay
fast; every defect below fails the same checks on the full samples.
"""

import json
from fractions import Fraction

import numpy as np

from horocomb import blockrep, kernelspace
from horocomb.cli import main
from horocomb.combination import make_representation
from horocomb.kernelspace import ETA1, FormalVector, KernelContext
from horocomb.verification import homomorphism_checks, relation_checks, sigma_relation_checks

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


def block_k_without_conjugate(self, b):
    return -self.k(b)


def c_pair_with_flipped_imaginary_part(original):
    def c_pair(self, b, d):
        z = original(self, b, d)
        return complex(z.real, -z.imag)

    return c_pair


def diag_with_scaled_eta1(original):
    def apply_diag(ctx, lam, v):
        coeffs = dict(original(ctx, lam, v).coeffs)
        if ETA1 in coeffs:
            coeffs[ETA1] *= 1 + 1e-6
        return FormalVector(ctx, coeffs)

    return apply_diag


def test_relation_family_passes_without_a_defect():
    assert failing_relation_family() == set()


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


def test_flipped_delta_in_orbit_gram_fails_the_gram_suite(capsys, monkeypatch):
    # with Delta flipped the orbit Gram has two positive eigenvalues: a failed
    # check (exit 1), not an internal error from the embedding round trip
    original = kernelspace._power_and_delta

    def flipped(ctx, x):
        power, delta = original(ctx, x)
        return power, -delta

    monkeypatch.setattr(kernelspace, "_power_and_delta", flipped)
    argv = ["model", "verify", "--t", "0.9", "--r", "1.2", "--suite", "gram", "--seed", "0"]
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 1
    rep = json.loads(out)
    verdicts = {c["name"]: c["pass"] for c in rep["checks"]}
    assert verdicts == {"gram_one_positive": False, "gram_embedding_roundtrip": True}
    assert rep["pass"] is False

