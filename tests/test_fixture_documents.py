"""The bundled fixtures are instance documents: their bytes, key order
included, are pinned, and each validates from a file as it does by name."""

import hashlib
import json

import pytest

from awfs_forge.cli import main
from awfs_forge.fixtures import FIXTURE_NAMES, fixture_raw

# sha256 of json.dumps(fixture_raw(name)), insertion order (not sorted):
# key order orders maps, generators and squares in certificates, and
# `input_hash` (canonical, sorted JSON) does not see it
DOCUMENT_SHA256 = {
    "FIX-M": "18b091dd849687d235d71dceb7dd288b993bb7a9116f09814cd76d904cf1f53d",
    "FIX-G": "732f9bbe59e2c2b73a5b86bf93a8e9dad40ee6bfdf3372b977898dc0b7dabfee",
    "FIX-DIV": "b95081e06d3107169f39220f1e37415a0ce84dde078f008e3f0338d05b702912",
    "FIX-PW": "bfd0d589f19b81d2503dea811b743607c9dcd70d7d8f6bc4396ba2932a0e98e6",
    "FIX-PROJ": "2528d1673b3cc8eb3fbfa3bc61f6f24386244c3f97ff9e8d5375c1a7fe8656fb",
}


def test_every_fixture_is_pinned():
    assert tuple(DOCUMENT_SHA256) == FIXTURE_NAMES


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fixture_documents_are_pinned(name):
    text = json.dumps(fixture_raw(name))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == DOCUMENT_SHA256[name]


def _containers(value):
    if isinstance(value, (dict, list)):
        yield value
        for item in value.values() if isinstance(value, dict) else value:
            yield from _containers(item)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_each_call_returns_a_fresh_document(name):
    # callers mutate what they get (perfbench's graph instance does)
    for container in list(_containers(fixture_raw(name))):
        container.clear()
    test_fixture_documents_are_pinned(name)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_a_fixture_validates_from_a_file_as_by_name(name, tmp_path, capsys):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(fixture_raw(name)), encoding="utf-8")
    assert main(["validate", "--fixture", name]) == 0
    by_name = capsys.readouterr()
    assert main(["validate", str(path)]) == 0
    from_file = capsys.readouterr()
    assert by_name.out.startswith("ok ") and from_file == by_name
