"""Golden certificates: the sha256 of every certificate that a bundled
fixture's producing command emits with exit 0, frozen so that a refactor of
the engine cannot move a single byte unnoticed.

To refreeze after an intended change of the certificate format, print
``sha256(cert bytes)`` for each argv below and replace the table.

A `model` certificate's `arrows_i` and its pools hold every record the I-side
engine made, so they move with the route the engine takes to ξ.  Its other
payload blocks must not: MODEL_BLOCKS pins the sha256 of each one's canonical
JSON separately, so a refreeze of the whole certificate cannot hide a change
in them.
"""

import hashlib
import json

from awfs_forge.cli import main
from awfs_forge.core import canonical_dumps

GOLDEN = [
    ("soa --fixture FIX-M --variant monic", "ba2fb8447a3ca3de1a29ffe0dcbda0a7844a90c4de1745c4c967a0c1dea32dfa"),
    ("soa --fixture FIX-M --variant standard", "5653aa1b323bc895fa2b7ea725ee0f670602cb4c01eb373a390b5fd687964b5e"),
    ("lift --fixture FIX-M", "31a2aa5f76f15cd985c32dbe7ff7ccbf5bd0b9b7c3fc890e712d4002b9767da8"),
    ("soa --fixture FIX-G --variant monic", "37d7a3ddd7ddf734b53e9f60dc0426618bec3027107f5905ec6d171f1a26a709"),
    ("soa --fixture FIX-G --variant standard", "2e0053e69af78fc9d4e3ac1f2bd0f8532c618f9199b0e6eb5eb0e07f09a86bd6"),
    ("lift --fixture FIX-G", "e335e2f803db2cbc3781cd1872bcfe7219d31ca9f40553ce2c3e3264c6ff5621"),
    ("soa --fixture FIX-PW --variant monic", "3855ee4ab5e49690cb57b440e84026482adab46f86738e5f63125a991e0bc3e0"),
    ("soa --fixture FIX-PW --variant standard", "1a6a7f1f334709d2d4f9a97b80c6377cedbb4685944f64753c2f5ee92bcc327d"),
    ("lift --fixture FIX-PW", "be7e8dae03a50e77fac3bd45f8ad896187da15f0a173fa15be25fa58f94135c3"),
    ("soa --fixture FIX-PROJ --variant monic", "5ae2d41a14f1eb0e911c2de38557f03a73d55f3bede526be5da204e35c113a15"),
    ("soa --fixture FIX-PROJ --variant standard", "ebabeb3079152c6d7e990d6f23acb2c6585ae3841d37934c37d50ed1e2aee4b0"),
    ("lift --fixture FIX-PROJ", "185f8d9757fba529c052b317b69ad19f240da73dd074584c774905fd28fcae89"),
    ("model --fixture FIX-M", "d00e340437e77f0a997f3ffceca81e3059c8ab136d670913ee84eb11918257d0"),
    ("model --fixture FIX-PROJ", "1dcb7b8f1b39b28cc1b4bc0c1dcd784da845354d9a7bd23ab4fa23c8c5e80a5f"),
    ("transport --fixture FIX-M --adjunction ident", "bfa661ae81b56325f2a6eb4a4c60df63c0097b3aed98087946cb9f3cb43e530e"),
    ("quillen-check --fixture FIX-M --adjunction ident", "a54d15b696308ab014cce947095bd09b80ca43567deb623c941bad82439b5208"),
    ("transport --fixture FIX-G --adjunction ident", "0f380e3dc6def5dc4e9b1d04d285c7528c218ec3dfe319c8d6cf740d694a8c22"),
    ("quillen-check --fixture FIX-G --adjunction ident", "1f5443723b507fffe453ec8baf69f5e4e81be0b9c768df953ed5da9be98d6c4d"),
    ("transport --fixture FIX-PROJ --adjunction ident", "d6ae8362298954f3ebb7d903cde533a55be861ef3e1e8f94b541d0702b005123"),
    ("quillen-check --fixture FIX-PROJ --adjunction ident", "fb83de351b3be26bb8fa630cf79efcd1fe0b62a8d1baee749984df63a9529dd1"),
    ("transport --fixture FIX-PROJ --adjunction lan", "7591fd1c71b978f1fa2f4441a99591ddd11851cb89d19971bd71a1138439fa7e"),
    ("quillen-check --fixture FIX-PROJ --adjunction lan", "0add3a03f1c1fbc58357e5bc3a4faa6a54d38bf5594e7fce185ecf93ec99e863"),
    ("soa --fixture FIX-M --threads 8", "ba2fb8447a3ca3de1a29ffe0dcbda0a7844a90c4de1745c4c967a0c1dea32dfa"),
]

MODEL_BLOCKS = {
    "FIX-M": {
        "xi": "7083ca08c0559fb9d87818b5e153f946ecf038c1ead3add2f543ea9d998ff09d",
        "chi": "bc34d6e61bee680a1ae83f8156d632d41bec297f62c36baaf4e0e484bf274dc0",
        "replacement": "a882fc5a334f5a9296c9afd4c2bb7d4eda625d9c570d72e3a57d66d55801b795",
        "replacement_skipped": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "law_report": "c1450e4d8b1c6b7a14363d4ef2e8976850b1d11a251230d63df33e32fa0b5d03",
        "arrows_j": "6bc1790b50fd2b8c88f0ef1c489e1d874f0b1f901e9655f630a69c452004e85e",
        "generators_j": "f375686c9245fe359a04fa38582b610e6a037f3ff2032bc978e9d4e3dd97d902",
        "generators_i": "191f0c2cc31f1817e8b05673ad2f3355d36476e62cf328910098d00493af3db1",
    },
    "FIX-PROJ": {
        "xi": "fdb5e11763c3b2f5d4be43218972410b081d6eec915b2ed2c8a5d9a5916b394d",
        "chi": "507cd588f86e6b9a9dfb31101123eac8da09b788e7e7221a7e5e762eab393c0c",
        "replacement": "de5acda5ff037b1d0519d68b0eda19c07740b53f48b1f7a8afc9b1f288985099",
        "replacement_skipped": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "law_report": "12694ee2847bba2b700a644a5c1ff51f06101ea3c25df90907cdbab7d1a0bfe8",
        "arrows_j": "d67fccc83db306219f379db55fd215d4a53966c918a508cd63930ac4a9db4f57",
        "generators_j": "668066dead90049c8e5a4fea887a915a3bcc994e4e56c69b24428aa1b770ef8a",
        "generators_i": "deb1d02bc2e10dd08ff966d383ecab7d6ae2c20d968c840007fd2fe64aa4121c",
    },
}


def test_golden_certificates(tmp_path, monkeypatch):
    def run(argv):
        out = tmp_path / "cert.json"
        code = main(argv.split() + ["--out", str(out)])
        return argv, code, hashlib.sha256(out.read_bytes()).hexdigest()

    got = [run(argv) for argv, _ in GOLDEN]
    monkeypatch.setenv("AWFS_FORGE_THREADS", "2")
    got.append(run("soa --fixture FIX-M"))
    want = [(argv, 0, digest) for argv, digest in GOLDEN]
    want.append(("soa --fixture FIX-M", 0, GOLDEN[0][1]))
    assert got == want


def test_model_payload_blocks(tmp_path):
    got = {}
    for fixture_name, blocks in MODEL_BLOCKS.items():
        out = tmp_path / "model.json"
        assert main(["model", "--fixture", fixture_name, "--out", str(out)]) == 0
        payload = json.loads(out.read_bytes())["payload"]
        got[fixture_name] = {
            block: hashlib.sha256(canonical_dumps(payload[block]).encode()).hexdigest()
            for block in blocks
        }
    assert got == MODEL_BLOCKS
