"""Command-line driver: instance validation, factorization runs, model and
transport coherence suites, deterministic certificate emission, and the
independent certificate verifier.

Exit codes: 0 success, 1 validation or usage error, 2 non-convergence,
3 law failure, 4 monicity violation.
"""

from __future__ import annotations

import argparse
import json
import sys

from .core import ValidationError, canonical_dumps
from .certificates import (
    envelope,
    lift_certificate,
    model_certificate,
    quillen_certificate,
    soa_certificate,
    transport_certificate,
)
from .fixtures import FIXTURE_NAMES, fixture
from .instance import InstanceFile, load
from .soa import MonicityViolation, NonConvergence
from .verifier import verify_certificate

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NONCONVERGENCE = 2
EXIT_LAW_FAILURE = 3
EXIT_MONICITY = 4


def _add_instance_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("instance", nargs="?", help="path to an instance JSON file")
    parser.add_argument(
        "--fixture", choices=FIXTURE_NAMES, help="use a bundled fixture instead of a file"
    )


def _add_run_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--variant", choices=("monic", "standard"), default=None)
    parser.add_argument("--max-steps", type=int, default=None)
    parser.add_argument(
        "--threads", type=int, default=None, help="accepted for compatibility; has no effect"
    )
    parser.add_argument("--out", help="write the certificate to a file instead of stdout")
    parser.add_argument("--arrows", help="comma-separated named arrows (default: all)")


def _resolve_instance(args) -> InstanceFile:
    if args.fixture:
        return fixture(args.fixture)
    if not args.instance:
        raise ValidationError("cli", "an instance path or --fixture is required")
    return load(args.instance)


def _entry(mapping: dict, name: str | None, path: str) -> str:
    """`name` when the instance declares it; the first entry when no name is given."""
    if name is None:
        if not mapping:
            raise ValidationError(path, "the instance declares none")
        return next(iter(mapping))
    if name not in mapping:
        raise ValidationError(f"{path}.{name}", "unknown name")
    return name


def _emit(cert: dict, args) -> None:
    text = canonical_dumps(cert)
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.write("\n")
    else:
        sys.stdout.write(text + "\n")


def _report_failed(payload: dict) -> bool:
    return any(e.get("status") != "pass" for e in payload.get("law_report", []))


def _run_options(instance: InstanceFile, args) -> tuple[str, int]:
    variant = instance.option("variant", getattr(args, "variant", None), "monic")
    max_steps = instance.option("max_steps", getattr(args, "max_steps", None), 64)
    return variant, int(max_steps)


def _options(args, variant: str, max_steps: int, extra: dict | None = None) -> dict:
    out = {"variant": variant, "max_steps": max_steps}
    if getattr(args, "arrows", None):
        out["arrows"] = args.arrows
    if extra:
        out.update(extra)
    return out


def cmd_validate(args) -> int:
    instance = _resolve_instance(args)
    sys.stdout.write(f"ok {instance.input_hash()}\n")
    return EXIT_OK


def cmd_soa(args) -> int:
    instance = _resolve_instance(args)
    gname = _entry(instance.generators, args.generators, "generators")
    arrows = args.arrows.split(",") if args.arrows else None
    variant, max_steps = _run_options(instance, args)
    payload = soa_certificate(instance, gname, variant, max_steps, arrows)
    cert = envelope("soa", instance, _options(args, variant, max_steps, {"generators": gname}), payload)
    _emit(cert, args)
    return EXIT_LAW_FAILURE if _report_failed(payload) else EXIT_OK


def cmd_lift(args) -> int:
    instance = _resolve_instance(args)
    gname = _entry(instance.generators, args.generators, "generators")
    arrows = args.arrows.split(",") if args.arrows else None
    variant, max_steps = _run_options(instance, args)
    payload = lift_certificate(instance, gname, variant, max_steps, arrows)
    cert = envelope("lift", instance, _options(args, variant, max_steps, {"generators": gname}), payload)
    _emit(cert, args)
    return EXIT_OK


def cmd_model(args) -> int:
    instance = _resolve_instance(args)
    gen_j = _entry(instance.generators, args.generators_j or "J", "generators")
    gen_i = _entry(instance.generators, args.generators_i or "I", "generators")
    tau = _entry(instance.taus, args.tau, "taus")
    variant, max_steps = _run_options(instance, args)
    payload = model_certificate(instance, gen_j, gen_i, tau, variant, max_steps)
    cert = envelope(
        "model",
        instance,
        _options(args, variant, max_steps, {"generators_j": gen_j, "generators_i": gen_i, "tau": tau}),
        payload,
    )
    _emit(cert, args)
    return EXIT_LAW_FAILURE if _report_failed(payload) else EXIT_OK


def cmd_transport(args) -> int:
    instance = _resolve_instance(args)
    adjunction = _entry(instance.adjunctions, args.adjunction, "adjunctions")
    gname = _entry(instance.generators, args.generators, "generators")
    variant, max_steps = _run_options(instance, args)
    payload = transport_certificate(instance, adjunction, gname, variant, max_steps)
    cert = envelope(
        "transport",
        instance,
        _options(args, variant, max_steps, {"adjunction": adjunction, "generators": gname}),
        payload,
    )
    _emit(cert, args)
    return EXIT_LAW_FAILURE if _report_failed(payload) else EXIT_OK


def cmd_quillen_check(args) -> int:
    instance = _resolve_instance(args)
    adjunction = _entry(instance.adjunctions, args.adjunction, "adjunctions")
    gen_j = _entry(instance.generators, args.generators_j or "J", "generators")
    gen_i = _entry(instance.generators, args.generators_i or "I", "generators")
    tau = _entry(instance.taus, args.tau, "taus")
    variant, max_steps = _run_options(instance, args)
    payload = quillen_certificate(
        instance, adjunction, gen_j, gen_i, tau, variant, max_steps
    )
    cert = envelope(
        "quillen-check",
        instance,
        _options(
            args,
            variant,
            max_steps,
            {
                "adjunction": adjunction,
                "generators_j": gen_j,
                "generators_i": gen_i,
                "tau": tau,
            },
        ),
        payload,
    )
    _emit(cert, args)
    return EXIT_LAW_FAILURE if _report_failed(payload) else EXIT_OK


def cmd_verify_cert(args) -> int:
    instance = _resolve_instance(args)
    try:
        with open(args.certificate, "r", encoding="utf-8") as handle:
            cert = json.load(handle)
    except ValueError as exc:  # not UTF-8, or not JSON
        ok, message = False, f"malformed certificate: {exc}"
    else:
        ok, message = verify_certificate(instance, cert)
    if ok:
        sys.stdout.write("certificate ok\n")
        return EXIT_OK
    sys.stdout.write(f"certificate REJECTED: {message}\n")
    return EXIT_LAW_FAILURE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="awfs-forge",
        description="Exact algebraic weak factorization systems on finite presheaf categories.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse and exhaustively validate an instance")
    _add_instance_args(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("soa", help="run the small object argument and certify")
    _add_instance_args(p)
    _add_run_args(p)
    p.add_argument("--generators", help="generator diagram name (default: first)")
    p.set_defaults(func=cmd_soa)

    p = sub.add_parser("lift", help="emit free lifting-function certificates")
    _add_instance_args(p)
    _add_run_args(p)
    p.add_argument("--generators", help="generator diagram name (default: first)")
    p.set_defaults(func=cmd_lift)

    p = sub.add_parser("model", help="build and verify an algebraic model structure")
    _add_instance_args(p)
    _add_run_args(p)
    p.add_argument("--generators-j", help="trivial-cofibration generators (default: J)")
    p.add_argument("--generators-i", help="cofibration generators (default: I)")
    p.add_argument("--tau", help="inclusion functor name (default: first)")
    p.set_defaults(func=cmd_model)

    p = sub.add_parser("transport", help="transport generators across an adjunction")
    _add_instance_args(p)
    _add_run_args(p)
    p.add_argument("--adjunction", help="adjunction name (default: first)")
    p.add_argument("--generators", help="generator diagram name (default: first)")
    p.set_defaults(func=cmd_transport)

    p = sub.add_parser("quillen-check", help="verify an algebraic Quillen adjunction")
    _add_instance_args(p)
    _add_run_args(p)
    p.add_argument("--adjunction", help="adjunction name (default: first)")
    p.add_argument("--generators-j", help="trivial-cofibration generators (default: J)")
    p.add_argument("--generators-i", help="cofibration generators (default: I)")
    p.add_argument("--tau", help="inclusion functor name (default: first)")
    p.set_defaults(func=cmd_quillen_check)

    p = sub.add_parser("verify-cert", help="independently recheck a certificate")
    _add_instance_args(p)
    p.add_argument("certificate", help="path to the certificate JSON")
    p.set_defaults(func=cmd_verify_cert)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NonConvergence as exc:
        sys.stderr.write(f"non-convergence: trace {exc.trace}\n")
        return EXIT_NONCONVERGENCE
    except MonicityViolation as exc:
        sys.stderr.write(f"monicity violation: {exc.where}\n")
        return EXIT_MONICITY
    except ValidationError as exc:
        sys.stderr.write(f"invalid: {exc}\n")
        return EXIT_ERROR
    except FileNotFoundError as exc:
        sys.stderr.write(f"file not found: {exc}\n")
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
