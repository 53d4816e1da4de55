"""Builder output as the CLI writes it, parsed back.

A `certificates` builder's payload holds its pools as canonical JSON text,
which `certificates.certificate_pieces` splices into the certificate that
the CLI writes.  Tests that read pool entries, or hand a built certificate to
the verifier, parse it through `written`."""

import json

from awfs_forge import certificates


def written(command: str, instance, options: dict, payload: dict) -> dict:
    """The certificate of `certificates.envelope(command, instance, options,
    payload)` as the CLI writes it, parsed."""
    cert = certificates.envelope(command, instance, options, payload)
    return json.loads("".join(certificates.certificate_pieces(cert)))
