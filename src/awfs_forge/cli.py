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
from typing import NamedTuple

from . import certificates
from .core import ValidationError, canonical_dumps
from .fixtures import FIXTURE_NAMES, fixture
from .instance import InstanceFile, load
from .soa import MonicityViolation, NonConvergence
from .verifier import verify_certificate

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NONCONVERGENCE = 2
EXIT_LAW_FAILURE = 3
EXIT_MONICITY = 4


class Certifying(NamedTuple):
    """A certifying command: its help, the name of its `certificates` builder,
    the option keys of the named entries it resolves (in resolution order),
    and whether `--arrows` selects the arrows it certifies."""

    help: str
    builder: str
    names: tuple[str, ...]
    arrows: bool = False


# option key -> (instance registry, default name, help); a default of None
# stands for the registry's first entry
NAMED = {
    "adjunction": ("adjunctions", None, "adjunction name"),
    "generators": ("generators", None, "generator diagram name"),
    "generators_j": ("generators", "J", "trivial-cofibration generators"),
    "generators_i": ("generators", "I", "cofibration generators"),
    "tau": ("taus", None, "inclusion functor name"),
}

CERTIFYING = {
    "soa": Certifying(
        "run the small object argument and certify", "soa_certificate", ("generators",), True
    ),
    "lift": Certifying(
        "emit free lifting-function certificates", "lift_certificate", ("generators",), True
    ),
    "model": Certifying(
        "build and verify an algebraic model structure",
        "model_certificate",
        ("generators_j", "generators_i", "tau"),
    ),
    "transport": Certifying(
        "transport generators across an adjunction",
        "transport_certificate",
        ("adjunction", "generators"),
    ),
    "quillen-check": Certifying(
        "verify an algebraic Quillen adjunction",
        "quillen_certificate",
        ("adjunction", "generators_j", "generators_i", "tau"),
    ),
}


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


def cmd_validate(args) -> int:
    instance = _resolve_instance(args)
    sys.stdout.write(f"ok {instance.input_hash()}\n")
    return EXIT_OK


def cmd_certify(args) -> int:
    command = CERTIFYING[args.command]
    instance = _resolve_instance(args)
    options = {}  # the builder's arguments, and the certificate's options block
    for key in command.names:
        registry, default, _ = NAMED[key]
        name = getattr(args, key)
        if default is not None:
            name = name or default
        options[key] = _entry(getattr(instance, registry), name, registry)
    options["variant"] = instance.option("variant", args.variant, "monic")
    if args.max_steps is not None and args.max_steps < 0:
        raise ValidationError("--max-steps", "must be a nonnegative integer")
    options["max_steps"] = instance.option("max_steps", args.max_steps, 64)
    selected = {}
    if command.arrows:
        # the builder leaves out a named arrow whose map lives over another base
        names = args.arrows.split(",") if args.arrows else ()
        selected["arrows"] = [_entry(instance.maps, n, "arrows") for n in names] or None
    # looked up when called, so that a rebound module attribute is the one run
    payload = getattr(certificates, command.builder)(instance, **options, **selected)
    if args.arrows:
        options["arrows"] = args.arrows
    text = canonical_dumps(certificates.envelope(args.command, instance, options, payload))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")
    failed = any(e.get("status") != "pass" for e in payload.get("law_report", []))
    return EXIT_LAW_FAILURE if failed else EXIT_OK


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


def _subparser(sub, name: str, help_text: str, func) -> argparse.ArgumentParser:
    p = sub.add_parser(name, help=help_text)
    p.add_argument("instance", nargs="?", help="path to an instance JSON file")
    p.add_argument(
        "--fixture", choices=FIXTURE_NAMES, help="use a bundled fixture instead of a file"
    )
    p.set_defaults(func=func)
    return p


COMMANDS = ("validate", *CERTIFYING, "verify-cert")


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The CLI parser.  Given one of `COMMANDS`, only that subcommand is
    built, under the usage of the full parser; otherwise all of them."""
    parser = argparse.ArgumentParser(
        prog="awfs-forge",
        description="Exact algebraic weak factorization systems on finite presheaf categories.",
    )
    names, metavar = COMMANDS, None  # argparse lists the choices built
    if command in COMMANDS:
        names, metavar = (command,), "{" + ",".join(COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    if "validate" in names:
        _subparser(sub, "validate", "parse and exhaustively validate an instance", cmd_validate)
    for name, row in CERTIFYING.items():
        if name not in names:
            continue
        p = _subparser(sub, name, row.help, cmd_certify)
        p.add_argument("--variant", choices=("monic", "standard"), default=None)
        p.add_argument("--max-steps", type=int, default=None)
        p.add_argument(
            "--threads", type=int, default=None, help="accepted for compatibility; has no effect"
        )
        p.add_argument("--out", help="write the certificate to a file instead of stdout")
        p.add_argument("--arrows", help="comma-separated named arrows (default: all)")
        for key in row.names:
            _, default, text = NAMED[key]
            p.add_argument("--" + key.replace("_", "-"), help=f"{text} (default: {default or 'first'})")
    if "verify-cert" in names:
        p = _subparser(sub, "verify-cert", "independently recheck a certificate", cmd_verify_cert)
        p.add_argument("certificate", help="path to the certificate JSON")
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # the top-level parser takes no option but --help before the command
    args = build_parser(argv[0] if argv else None).parse_args(argv)
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
    except OSError as exc:  # a directory, or a file that cannot be read or written
        sys.stderr.write(f"cannot open: {exc}\n")
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
