"""Command-line front end: build, verify, and export models.

Subcommands:
    classify      type, displacement and factorization of a group element
    maps          SL2(R) and SO(1,2) images plus homomorphism residuals
    model build   parameters of the (t, r) model as JSON
    model verify  run a named check suite against the (t, r) model
    combine       horospherical combination of two invariants at fixed t
    cartan-limit  angle sequence and the limit read off each step (CSV)
    gns-check     orbit Gram eigenvalues and signature verdict

Reports are deterministic for a fixed seed: JSON with sorted keys, CSV
with '.' decimals.  Exit codes: 0 all checks passed, 1 a check failed,
2 usage or parameter error (malformed or out-of-range arguments, or a
HOROCOMB_TOLERANCE_SCALE that is not a positive number), 3 internal error.
Errors after parsing print {"error": ...} as JSON on stderr, never a
traceback.  The environment variable HOROCOMB_TOLERANCE_SCALE multiplies
every tolerance; each check record is rebuilt once with the scaled
tolerance, by the same rule that made it.  The argument parser is built
once per process, and every `main` call reuses it.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
import traceback
from fractions import Fraction

import numpy as np

from . import su11
from .combination import combine_models, CombinationSpec, make_representation, mix_weights_for_target
from .errors import ParameterError, ValidationError
from .invariants import cartan_limit_estimate, geometric_schedule, model_arg
from .kernelspace import eigenvalue_signature
from .su11 import SU11Element, bruhat_factor, classify_su11, displacement_su11, phi_to_so12, psi_to_sl2
from .verification import check, limit_checks, orbit_spectrum, run_suite

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


def _scaled(checks: list[dict]) -> list[dict]:
    """The checks again, each tolerance multiplied by HOROCOMB_TOLERANCE_SCALE."""
    text = os.environ.get("HOROCOMB_TOLERANCE_SCALE", "1")
    try:
        scale = float(text)
    except ValueError:
        scale = math.nan
    if not (math.isfinite(scale) and scale > 0):
        raise ValidationError(f"HOROCOMB_TOLERANCE_SCALE must be a positive number, got {text!r}")
    return [check(c["name"], c["residual"], c["tolerance"] * scale) for c in checks]


def _emit_json(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _complex_json(z: complex) -> dict:
    return {"re": z.real, "im": z.imag}


def _rational(text: str, flag: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        raise ValidationError(f"{flag} expects a rational such as 3/2, got {text!r}") from None


def _parse_rational_pair(text: str, flag: str) -> tuple[Fraction, Fraction]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValidationError(f"{flag} expects 're,im', got {text!r}")
    return _rational(parts[0], flag), _rational(parts[1], flag)


def _element_from_args(args) -> SU11Element:
    """The element of --lam [--b] or --alpha [--beta], not a mix, each entry at most the largest float."""
    if args.lam is not None and args.alpha is None and args.beta is None:
        b = _rational(args.b, "--b") if args.b is not None else Fraction(0)
        el = su11.g(_rational(args.lam, "--lam"), b)
    elif args.alpha is not None and args.lam is None and args.b is None:
        alpha = _parse_rational_pair(args.alpha, "--alpha")
        el = SU11Element(*alpha, *_parse_rational_pair(args.beta or "0,0", "--beta"))
    else:
        raise ValidationError("give either --lam [--b] or --alpha [--beta], not a mix of the two")
    if max(abs(el.a_re), abs(el.a_im), abs(el.b_re), abs(el.b_im)) > sys.float_info.max:
        raise ValidationError("the element's entries exceed the largest float")
    return el


def _matrix_json(m: np.ndarray) -> list:
    return [[float(x) for x in row] for row in np.asarray(m, dtype=float)]


def _model_and_head(args, command: str):
    """The (t, r) model of the arguments and its report head {command, t, r}."""
    model = make_representation(args.t, args.r)
    return model, {"command": command, "t": model.t, "r": model_arg(model)}


def cmd_classify(args) -> int:
    el = _element_from_args(args)
    factors = bruhat_factor(el)
    fac = {k: str(v) for k, v in vars(factors).items()}
    fac["kind"] = "P" if isinstance(factors, su11.ParabolicCoords) else "PsP"
    _emit_json(
        {
            "command": "classify",
            "alpha": _complex_json(el.alpha),
            "beta": _complex_json(el.beta),
            "type": classify_su11(el),
            "displacement": displacement_su11(el),
            "factorization": fac,
        }
    )
    return EXIT_OK


def cmd_maps(args) -> int:
    el = _element_from_args(args)
    # each psi and phi entry, and each quotient formed for one, is at most 2 (|alpha|^2 + |beta|^2)
    if 3 * (el.a_re**2 + el.a_im**2 + el.b_re**2 + el.b_im**2) > sys.float_info.max:
        raise ValidationError("maps needs 3 (|alpha|^2 + |beta|^2) within the largest float")
    rng = np.random.default_rng(args.seed)
    psi, phi = [], []
    for _ in range(args.sample):
        x, y = su11.random_su11(rng), su11.random_su11(rng)
        psi.append(float(np.max(np.abs(psi_to_sl2(x * y) - psi_to_sl2(x) @ psi_to_sl2(y)))))
        phi.append(float(np.max(np.abs(phi_to_so12(x * y) - phi_to_so12(x) @ phi_to_so12(y)))))
    checks = _scaled([
        check("psi_homomorphism", psi, 1e-10),
        check("phi_homomorphism", phi, 1e-10),
    ])
    _emit_json(
        {
            "command": "maps",
            "psi": _matrix_json(psi_to_sl2(el)),
            "phi": _matrix_json(phi_to_so12(el)),
            "checks": checks,
        }
    )
    return EXIT_OK if all(c["pass"] for c in checks) else EXIT_CHECK_FAILED


def cmd_model_build(args) -> int:
    model, head = _model_and_head(args, "model build")
    _emit_json(
        {
            **head,
            "k1": _complex_json(model.ctx.k1),
            "verdict": "constructible",  # make_representation refuses any other
        }
    )
    return EXIT_OK


def cmd_model_verify(args) -> int:
    model, head = _model_and_head(args, "model verify")
    rng = np.random.default_rng(args.seed)
    schedule = geometric_schedule(args.b_start, args.b_ratio, args.steps)
    checks = _scaled(run_suite(model, args.suite, rng, schedule))
    ok = all(c["pass"] for c in checks)
    _emit_json(
        {
            **head,
            "suite": args.suite,
            "seed": args.seed,
            "checks": checks,
            "pass": ok,
        }
    )
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_combine(args) -> int:
    m1 = make_representation(args.t, args.r1)
    m2 = make_representation(args.t, args.r2)
    combined = combine_models(CombinationSpec(m1, m2, u=args.u))
    target = (1.0 - args.u) * model_arg(m1) + args.u * model_arg(m2)
    p, q = mix_weights_for_target(model_arg(m1), model_arg(m2), target)
    resid = abs(model_arg(combined) - target)
    checks = _scaled([check("combination_affine_arg", resid, 1e-12)])
    _emit_json(
        {
            "command": "combine",
            "t": m1.t,
            "r1": model_arg(m1),
            "r2": model_arg(m2),
            "u": args.u,
            "weights": {"p": p, "q": q},
            "k1": _complex_json(combined.ctx.k1),
            "arg": model_arg(combined),
            "checks": checks,
        }
    )
    return EXIT_OK if checks[0]["pass"] else EXIT_CHECK_FAILED


def cmd_cartan_limit(args) -> int:
    model, head = _model_and_head(args, "cartan-limit")
    schedule = geometric_schedule(args.b_start, args.b_ratio, args.steps)
    est = cartan_limit_estimate(model, schedule)
    if args.format == "json":
        _emit_json(
            {
                **head,
                "target": -head["r"],
                "points": [
                    {"b": b, "cartan": v, "extrapolated": e}
                    for (b, v), e in zip(est.points, est.running)
                ],
                "extrapolated": est.extrapolated,
            }
        )
    else:
        sys.stdout.write("b,cartan,extrapolated\n")
        for (b, v), e in zip(est.points, est.running):
            sys.stdout.write(f"{b!r},{v!r},{e!r}\n")
    verdicts = {c["name"]: c["pass"] for c in _scaled(limit_checks(model, est))}
    return EXIT_OK if verdicts["cartan_limit_extrapolated"] else EXIT_CHECK_FAILED


def cmd_gns_check(args) -> int:
    model, head = _model_and_head(args, "gns-check")
    eigs = orbit_spectrum(model, np.random.default_rng(args.seed), args.sample)[1]
    sig = eigenvalue_signature(eigs)
    ok = sig[0] == 1
    _emit_json(
        {
            **head,
            "sample": args.sample,
            "seed": args.seed,
            "eigenvalues": [float(x) for x in eigs],
            "signature": {"positive": sig[0], "zero": sig[1], "negative": sig[2]},
            "pass": ok,
        }
    )
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _int_at_least(low: int):
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    parse.__name__ = "integer"  # argparse names the type in its messages
    return parse


class _Parser(argparse.ArgumentParser):
    """Takes '-' and then a digit or '.digit' (-3/2, -1e-3) as a value, not an option."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\.?\d")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="horocomb", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    def add_element_args(p):
        p.add_argument("--lam", help="parabolic coordinate lambda (rational)")
        p.add_argument("--b", help="parabolic coordinate b (rational)")
        p.add_argument("--alpha", help="alpha as 're,im' rationals")
        p.add_argument("--beta", help="beta as 're,im' rationals")

    def add_model_args(p):
        p.add_argument("--t", type=float, required=True)
        p.add_argument("--r", type=float, required=True)

    def add_schedule_args(p):
        p.add_argument("--b-start", type=float, default=1.0)
        p.add_argument("--b-ratio", type=float, default=10.0)
        p.add_argument("--steps", type=_int_at_least(2), default=9)

    p = sub.add_parser("classify", help="type/displacement/factorization of an element")
    add_element_args(p)
    p.set_defaults(func="cmd_classify")

    p = sub.add_parser("maps", help="SL2(R) and SO(1,2) images of an element")
    add_element_args(p)
    p.add_argument("--sample", type=_int_at_least(1), default=100)
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.set_defaults(func="cmd_maps")

    model = sub.add_parser("model", help="build or verify a (t, r) model")
    msub = model.add_subparsers(dest="model_command", required=True)

    p = msub.add_parser("build")
    add_model_args(p)
    p.set_defaults(func="cmd_model_build")

    p = msub.add_parser("verify")
    add_model_args(p)
    p.add_argument("--suite", choices=["relations", "gram", "kernel", "limits", "all"], default="all")
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    add_schedule_args(p)
    p.set_defaults(func="cmd_model_verify")

    p = sub.add_parser("combine", help="horospherical combination at fixed t")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--r1", type=float, required=True)
    p.add_argument("--r2", type=float, required=True)
    p.add_argument("--u", type=float, required=True)
    p.set_defaults(func="cmd_combine")

    p = sub.add_parser("cartan-limit", help="angle sequence along a b-schedule")
    add_model_args(p)
    add_schedule_args(p)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(func="cmd_cartan_limit")

    p = sub.add_parser("gns-check", help="orbit Gram eigenvalues and signature")
    add_model_args(p)
    p.add_argument("--sample", type=_int_at_least(3), default=8)
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.set_defaults(func="cmd_gns_check")

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return globals()[args.func](args)  # `func` names the handler, found per call
    except (ParameterError, ValidationError) as exc:
        verdict = getattr(exc, "verdict", None)
        payload = {"error": str(exc)}
        if verdict is not None:
            payload["verdict"] = verdict
        sys.stderr.write(json.dumps(payload) + "\n")
        return EXIT_USAGE
    except Exception as exc:  # a bug must not read as "check failed"
        frames = traceback.extract_tb(exc.__traceback__)
        here = os.path.dirname(os.path.abspath(__file__))
        frame = next((f for f in reversed(frames) if f.filename.startswith(here)), frames[-1])
        payload = {
            "error": f"internal error: {type(exc).__name__}: {exc}",
            "where": f"{os.path.basename(frame.filename)}:{frame.lineno} in {frame.name}",
        }
        sys.stderr.write(json.dumps(payload) + "\n")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
