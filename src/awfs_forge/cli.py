"""Command-line driver: instance validation, factorization runs, model and
transport coherence suites, deterministic certificate emission, and the
independent certificate verifier.

Exit codes: 0 success, 1 validation or usage error, 2 non-convergence,
3 law failure, 4 monicity violation.
"""

from __future__ import annotations

import gc
import json
import sys
from types import SimpleNamespace
from typing import Callable, NamedTuple

from . import certificates
from .core import ValidationError
from .fixtures import FIXTURE_NAMES, fixture
from .instance import InstanceFile, load
from .soa import MonicityViolation, NonConvergence
from .verifier import verify_certificate

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NONCONVERGENCE = 2
EXIT_LAW_FAILURE = 3
EXIT_MONICITY = 4


def _resolve_instance(args) -> InstanceFile:
    if args.fixture:
        if args.instance is not None:
            raise ValidationError("cli", "give an instance path or --fixture, not both")
        return fixture(args.fixture)
    if not args.instance:
        raise ValidationError("cli", "an instance path or --fixture is required")
    return load(args.instance)


def cmd_validate(args) -> int:
    instance = _resolve_instance(args)
    sys.stdout.write(f"ok {instance.input_hash()}\n")
    return EXIT_OK


def cmd_certify(args) -> int:
    instance = _resolve_instance(args)
    options, arguments = certificates.resolve_options(args.command, instance, vars(args))
    builder = certificates.CERTIFYING[args.command].builder
    # looked up when called, so that a rebound module attribute is the one run
    payload = getattr(certificates, builder.__name__)(instance, **arguments)
    pieces = certificates.certificate_pieces(
        certificates.envelope(args.command, instance, options, payload)
    )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.writelines(pieces)
            handle.write("\n")
    else:
        sys.stdout.writelines(pieces)
        sys.stdout.write("\n")
    failed = any(e.get("status") != "pass" for e in payload.get("law_report", []))
    return EXIT_LAW_FAILURE if failed else EXIT_OK


def cmd_verify_cert(args) -> int:
    instance = _resolve_instance(args)
    try:
        with open(args.certificate, "r", encoding="utf-8") as handle:
            cert = json.load(handle)
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deep
        ok, message = False, f"malformed certificate: {exc}"
    else:
        ok, message = verify_certificate(instance, cert)
    if ok:
        sys.stdout.write("certificate ok\n")
        return EXIT_OK
    sys.stdout.write(f"certificate REJECTED: {message}\n")
    return EXIT_LAW_FAILURE


class Option(NamedTuple):
    """A `--flag VALUE` option of a subcommand.  It defaults to None; a given
    value must be one of `choices` when there are any, and is an `int` when
    `integer` is set."""

    flag: str
    help: str | None = None
    choices: tuple[str, ...] | None = None
    integer: bool = False

    @property
    def dest(self) -> str:
        return self.flag[2:].replace("-", "_")


class Command(NamedTuple):
    """A subcommand: its help, the function that runs it and its options.
    Every subcommand takes an optional instance path; `verify-cert` takes the
    certificate's path after it."""

    help: str
    func: Callable
    options: tuple[Option, ...]
    certificate: bool = False


FIXTURE = (Option("--fixture", "use a bundled fixture instead of a file", FIXTURE_NAMES),)
RUN = (
    Option("--variant", choices=("monic", "standard")),
    Option("--max-steps", integer=True),
    Option("--threads", "accepted for compatibility; has no effect", integer=True),
    Option("--out", "write the certificate to a file instead of stdout"),
    Option("--arrows", "comma-separated named arrows (default: all)"),
)


def _named(key: str) -> Option:
    _, default, text = certificates.NAMED[key]
    return Option("--" + key.replace("_", "-"), f"{text} (default: {default or 'first'})")


# the one declaration of the CLI, read by both `build_parser` and `parse_plain`
SPEC = {
    "validate": Command("parse and exhaustively validate an instance", cmd_validate, FIXTURE),
    **{
        name: Command(row.help, cmd_certify, FIXTURE + RUN + tuple(map(_named, row.names)))
        for name, row in certificates.CERTIFYING.items()
    },
    "verify-cert": Command(
        "independently recheck a certificate", cmd_verify_cert, FIXTURE, certificate=True
    ),
}
COMMANDS = tuple(SPEC)


def build_parser():
    """The CLI's `argparse.ArgumentParser`, with every subcommand.  argparse
    is imported here, as only the commands that `parse_plain` declines need
    it."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="awfs-forge",
        description="Exact algebraic weak factorization systems on finite presheaf categories.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in SPEC.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("instance", nargs="?", help="path to an instance JSON file")
        for option in command.options:
            p.add_argument(
                option.flag,
                choices=option.choices,
                type=int if option.integer else None,
                help=option.help,
            )
        if command.certificate:
            p.add_argument("certificate", help="path to the certificate JSON")
        p.set_defaults(func=command.func)
    return parser


def parse_plain(argv: list[str]) -> SimpleNamespace | None:
    """What `build_parser().parse_args(argv)` returns for a well-formed
    command, with the same attributes, without building the parser or
    importing argparse: a command name, then `--flag value` pairs (each flag
    in full and at most once, each value nonempty, not starting with `-`,
    one of the option's choices and ASCII digits for an `int`), then the
    positionals, none starting with `-`.  None for any other argv, which is
    left to argparse: help, abbreviations, `--flag=value`, `--`, and
    everything argparse rejects."""
    command = SPEC.get(argv[0]) if argv else None
    if command is None:
        return None
    options = {option.flag: option for option in command.options}
    values = dict.fromkeys(option.dest for option in command.options)
    i = 1
    while i < len(argv) and argv[i].startswith("-"):
        option = options.get(argv[i])
        if option is None or values[option.dest] is not None or i + 1 == len(argv):
            return None
        value = argv[i + 1]
        if not value or value.startswith("-"):
            return None
        if option.choices is not None and value not in option.choices:
            return None
        if option.integer:
            if not (value.isascii() and value.isdigit()):
                return None
            value = int(value)
        values[option.dest] = value
        i += 2
    positionals = argv[i:]
    if any(p.startswith("-") for p in positionals):
        return None
    if command.certificate:  # required, after the optional instance
        if not positionals:
            return None
        values["certificate"] = positionals.pop()
    if len(positionals) > 1:
        return None
    values["instance"] = positionals[0] if positionals else None
    return SimpleNamespace(command=argv[0], func=command.func, **values)


# whether `main` has moved the objects left over from import into the
# collector's permanent generation; it does so once per process
_heap_frozen = False


def main(argv=None) -> int:
    global _heap_frozen
    if not _heap_frozen:
        # the import heap lives as long as the process: every collection
        # that a command's allocations trigger would scan it again
        gc.freeze()
        _heap_frozen = True
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parse_plain(argv)
    if args is None:  # usage, help and every parse error come from argparse
        args = build_parser().parse_args(argv)
    # a command's young objects live until it ends, so collections during it
    # free nothing: the collector is off until the command returns, and then
    # back as the caller had it
    collecting = gc.isenabled()
    gc.disable()
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
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
