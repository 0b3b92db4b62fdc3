"""Pinned SHA-256 digests of `harmcode encode` share files and of the
`harmcode decode` output, one fixed dataset and seed per scheme.

Any change to the coefficient algebra, the key draw order or the file
layout shows up here as a digest mismatch.
"""

import hashlib
import json

import pytest

from harmcode.baselines import freshman_apply
from harmcode.cli import main
from harmcode.field import FieldConfig
from harmcode.fileio import load_shares, write_outputs
from harmcode.poly import PolyMap

DATA = {"K": 3, "data": [[1, 2], [3, 4], [4, 0]]}
SEED = 17

# Every scheme at p = 13 decodes the same f = (8, 12), so the same file.
DECODED_P13 = "63d946db3502c57c77d8347db5ffcbc58300ca5c00cfa27094d95ff22a127300"

# scheme -> (p, d, shares digest, decoded digest)
GOLDEN = {
    "harmonic": (13, 2, "23c4765897963c9395c0ef473951699ad0f93375a2f3e02fc08d023f6e1d7091",
                 DECODED_P13),
    "shamir": (13, 2, "870c93744667c15d649619c3d5d40729038e2705517f36adecd625f3b61dd03f",
               DECODED_P13),
    "lcc": (13, 2, "14bcc4e11f0bf9a874622ddd946eee8150d83c018b2b476b27c5f7b14f31c912",
            DECODED_P13),
    "freshman": (5, 5, "096e9cd1ba480a5ebbcd48d87e6b78c719e217c52eec552e2088ee2e1095b657",
                 "e153e05f6b58cef112d973086233b4cc480476e1541e428306d515559236f3df"),
}


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("scheme", sorted(GOLDEN))
def test_share_and_decode_digests(tmp_path, capsys, scheme):
    p, d, shares_digest, decoded_digest = GOLDEN[scheme]
    data_path = tmp_path / "data.json"
    data_path.write_text(json.dumps(DATA))
    shares_path = tmp_path / "shares.json"
    outputs_path = tmp_path / "outputs.json"
    decoded_path = tmp_path / "f.json"

    assert main(["encode", "--scheme", scheme, "--p", str(p), "--d", str(d),
                 "--data", str(data_path), "--out", str(shares_path),
                 "--seed", str(SEED)]) == 0
    params, shares = load_shares(shares_path)
    if scheme == "freshman":
        outputs = [freshman_apply(params, s) for s in shares]
    else:
        field = FieldConfig(p)
        g = PolyMap.from_terms(field, 2, [[(2, (2, 0)), (5, (1, 1)), (1, (0, 0))],
                                          [(3, (0, 2)), (7, (1, 0))]])
        outputs = [g.eval(s) for s in shares]
    write_outputs(outputs_path, outputs)
    assert main(["decode", "--shares", str(shares_path),
                 "--outputs", str(outputs_path), "--out", str(decoded_path)]) == 0
    capsys.readouterr()

    assert (sha256(shares_path), sha256(decoded_path)) == (shares_digest, decoded_digest)
