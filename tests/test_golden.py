"""Pinned SHA-256 digests of `harmcode encode` share files and of the
`harmcode decode` output, one fixed dataset and seed per scheme, of LCC's
share files at two wide shapes, of exhaustive privacy-audit reports, of
one freshman `harmcode validate` run, and of `harmcode privacy-audit`'s
output and exit code.

Any change to the coefficient algebra, the key draw order or the file
layout shows up here as a digest mismatch; so does any change to an audit
verdict, mutual-information value or state count.
"""

import hashlib
import json

import pytest

from harmcode import harmonic
from harmcode.baselines import FreshmanMap, lcc_params, shamir_params
from harmcode.cli import main
from harmcode.field import FieldConfig
from harmcode.fileio import load_shares, write_outputs
from harmcode.poly import PolyMap
from harmcode.sim import ClearStorageScheme, make_handle, privacy_audit_exhaustive

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
        outputs = [FreshmanMap(params).eval(s) for s in shares]
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


# SHA-256 of the shares file of `harmcode encode --scheme shamir --p 1073741827
# --d 2 --seed 29` on K = 3 inputs of m = 64 coordinates, input k holding
# 64k..64k+63. About half of the 31-bit draws at p = 2^30 + 3 are >= p, so
# the 192 key coordinates take several rounds of redraws.
SHAMIR_P30 = "10c437646340bf8b8ecfa226e66f8e2bb977d0fc8b75da8b649eef4fea4196b7"


def test_shamir_shares_digest_at_a_high_rejection_prime(tmp_path):
    data_path, shares_path = tmp_path / "data.json", tmp_path / "shares.json"
    data_path.write_text(json.dumps(
        {"K": 3, "data": [[64 * k + i for i in range(64)] for k in range(3)]}))
    assert main(["encode", "--scheme", "shamir", "--p", "1073741827", "--d", "2",
                 "--data", str(data_path), "--out", str(shares_path), "--seed", "29"]) == 0
    assert sha256(shares_path) == SHAMIR_P30


# SHA-256 of the shares file of `harmcode encode --scheme lcc --p <p> --d <d>
# --seed <seed>` on K inputs of m coordinates, coordinate i of input k
# holding (m*k + i) * 7919 mod p, at the two shapes where LCC's shares come
# from differences over its consecutive points: (p, K, d, m, seed) -> digest.
LCC_WIDE = {
    (2**31 - 1, 8, 3, 512, 31): "85839d3d2832bfe41c3b6f6105cf8754f1c63254e0515e740eb57c64303be676",
    (2**30 + 3, 3, 2, 64, 37): "88dff80e330c133501eb6111c794bf4727f1f3c74ad0e7a66d5f5af0531a8a13",
}


@pytest.mark.parametrize("shape", sorted(LCC_WIDE))
def test_lcc_shares_digests_on_wide_slots(tmp_path, capsys, shape):
    p, K, d, m, seed = shape
    data_path, shares_path = tmp_path / "data.json", tmp_path / "shares.json"
    data_path.write_text(json.dumps(
        {"K": K, "data": [[(m * k + i) * 7919 % p for i in range(m)] for k in range(K)]}))
    assert main(["encode", "--scheme", "lcc", "--p", str(p), "--d", str(d),
                 "--data", str(data_path), "--out", str(shares_path), "--seed", str(seed)]) == 0
    capsys.readouterr()
    assert sha256(shares_path) == LCC_WIDE[shape]


# SHA-256 of the standard output of `harmcode validate --scheme freshman
# --p 5 --d 5 --K 3 --m 2 --n 2 --trials 20 --seed 3`: twenty trials, each
# with its own random A, data and keys, one JSON line each.
FRESHMAN_VALIDATE = "d87ac9723db88e52849d0647fbf5bdcd8eb014ae8bc5f77efbe126cf02d04db4"


def test_freshman_validate_digest(capsys):
    assert main(["validate", "--scheme", "freshman", "--p", "5", "--d", "5", "--K", "3",
                 "--m", "2", "--n", "2", "--trials", "20", "--seed", "3"]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == FRESHMAN_VALIDATE


# audit case -> SHA-256 of json.dumps(report.to_json(), sort_keys=True).
# The private schemes are harmonic on F_5 (K=2, d=2; m=1 and m=2), LCC on F_7
# and Shamir on F_5 (K=2, d=2, m=1); "<scheme>-leak<w>" is the m=1 instance
# with worker w storing X_1 in the clear.
AUDIT_GOLDEN = {
    "harmonic-m1": "e3091c3d978ca1e24dcc9608d6e54aacf786e79808b2a567d11ec053f469040e",
    "harmonic-m2": "15a0924f522e1bcea4159972f4ba8021b5f81bacdd76e1c756dc44cc6f486b41",
    "lcc": "8cd094c8134596745510e9cb496aa714943c78a8105ffa0e1812fa439158a4a2",
    "shamir": "ce5521992f08c75a7a385a913e5a5d6cfff128804e6ea71586ef51f70815787d",
    "harmonic-leak0": "ef5d4d438268ea25a8ba03cf604f134041e6c2120ab4435d95b0cd8ecf1b7e65",
    "harmonic-leak1": "86ec3a3935772d42a48632ba5eabfb60bbb87a1fd4bade93c7d74f00a36366be",
    "harmonic-leak2": "6328179b2a02c7a151df24a202e2da8ae537be0908331615f70f02cbe09ebc9d",
    "harmonic-leak3": "cd91341b1060984a2a0832888fbb244dd5208e7fbfd1e62c5c3385cc88686678",
    "lcc-leak0": "80dce68c575bc1f35e8a4cda5632d78950fb6733a3a791d79e74630847edc4d9",
    "lcc-leak1": "0fb0092b35fd5f2dca1f48ac4ada92cc1649c9bd87167128d86413304e934ca5",
    "lcc-leak2": "66cc05cda700ae7eeb3bfc6ed0dd75b9446a585cc0427cef61fe954eddd5f710",
    "lcc-leak3": "7394f04c2d8effcbc4adcd15643f8264b8a342cbd5735fdf57f3861592b3ad40",
    "lcc-leak4": "b450b4aa22e37c7c3820dad466c8ab281121506686cfeb601eec40c0a4837a9c",
    "shamir-leak0": "b17fa2c8ff212083170e84f3cbdf9c268eda9a444d40015725e009779632cc40",
    "shamir-leak1": "d73d27019b15de159071e2be01860a9b65136a146000e85085a70d1e40f50799",
    "shamir-leak2": "9073a2253b629d988ca0a6622517102a5c72359790a9cdc2997aa1be00b0f17e",
    "shamir-leak3": "a2857fa718ce0a2ae6dcb3ce60750df26d89c2da3b2b24ddbf8dce3e2e03a2d2",
    "shamir-leak4": "84f736f54643ce9464a1c51c3d4ba26e7d36a25ce88dedd2b84d2958b96804cf",
    "shamir-leak5": "1f71b25f967341a8da8c24731b7c23f06c4b4c752ce070d62c1aa2c2d2b13b30",
}


def audit_case(name):
    """(scheme, m) of one AUDIT_GOLDEN entry."""
    f5, f7 = FieldConfig(5), FieldConfig(7)
    base, _, tag = name.partition("-")
    params = {"harmonic": harmonic.select_params(f5, 2, 2), "lcc": lcc_params(f7, 2, 2),
              "shamir": shamir_params(f5, 2, 2)}[base]
    handle = make_handle(params)
    if tag.startswith("leak"):
        return ClearStorageScheme(handle, int(tag[4:])), 1
    return handle, 2 if tag == "m2" else 1


@pytest.mark.parametrize("name", sorted(AUDIT_GOLDEN))
def test_audit_report_digests(name):
    scheme, m = audit_case(name)
    report = privacy_audit_exhaustive(scheme, m=m)
    doc = json.dumps(report.to_json(), sort_keys=True).encode()
    assert hashlib.sha256(doc).hexdigest() == AUDIT_GOLDEN[name]


# `harmcode privacy-audit --scheme <args>`, with and without --inject-leak ->
# (exit code, SHA-256 of standard output). The first six shapes are the
# audits CI runs through the entry point; the next two split X_1 into
# batches whose last one is short (Shamir: 2, 2, 2, 2, 1 of the 9 values;
# harmonic: 3, 3, 3, 2 of the 11). The last is CI's auditor-memory shape:
# 101 calls of W = 10,201 coordinates, one per value of X_1.
CLI_AUDIT = {
    "shamir --p 5 --K 2 --d 2 --m 2": (
        (0, "575f09c187981059ee707f603c10b4c94573044d474b01135fb8c86736ce1016"),
        (1, "54029418747a7c5087743bec1e580a9b28829ec7735bf980a252319501e5d7ef")),
    "harmonic --p 5 --K 2 --d 2 --m 2": (
        (0, "16bf537c7d81e086be6a1162b656312ee7ad64d9e8b40e96815dcc21a99a722f"),
        (1, "ed58a46ad243188160276f9714c116ccbb9679d32ca88f04f5d1499d0c32aa75")),
    "harmonic --p 7 --K 3 --d 2": (
        (0, "d4965f2fb166b27954514e5dbfe590859e1a3dfd38da621257efc1c11a708e19"),
        (1, "5690d395478bef83c9f64c5bcea28c292027bcb17bc3ebc23975759fe1242554")),
    "shamir --p 7 --K 3 --d 1": (
        (0, "4e23772d0791f1bca9238d845b769082aa28871f53cb0124775680aa3abe9fc6"),
        (1, "a2cc21327240651fb9385dc1249903915ffca818aa10830c93532eb2481a4f2f")),
    "lcc --p 3 --K 1 --d 1 --m 3": (
        (0, "e0e1f54dcdfcd40f89e9ce0c32ee17c1b7ebb40edab0562bb46aa84ca635f1bf"),
        (1, "7cc0823fda620903f27e9bc2587024a5a20c0195789c80e00541a0864c5c0e30")),
    "shamir --p 3 --K 1 --d 1 --m 2": (
        (0, "52ce6e5232544274b72e04a52ef434ca8c5e334bc82e09ae656cd76a823fc09c"),
        (1, "751f99bad62c74e6121a35ca76adaf98760c9e0ef62b2bd317cd98bda3ee84a9")),
    "shamir --p 3 --K 2 --d 1 --m 2": (
        (0, "a7fcbf3b817f5f191f5e463cb199eab43f2ee6608b15d50b24c085c1a22049c5"),
        (1, "0890110fc099f8bd40731077497ff0bd4741d1625adffee4c6f33d71e91c5af4")),
    "harmonic --p 11 --K 3 --d 2": (
        (0, "2c70ce75642cccc8c6f9ab487712385d704e461823a3a52b613af72335128f36"),
        (1, "0c8ab4b4d1a8ed8392c3ee3f247e4e23776bcb9391bb40257f403cba4bbfde30")),
    "harmonic --p 101 --d 2": (
        (0, "ab403bd11c3921ae13a65e9469da7d0775df3d5806f061c81ff0773b92d42f3d"),
        (1, "5083cf3114b9b83afe636c8ff8892f109de80565df5309176768d1908f75309f")),
}


@pytest.mark.parametrize("leak", [False, True], ids=["private", "inject-leak"])
@pytest.mark.parametrize("args", sorted(CLI_AUDIT))
def test_cli_audit_output_digests(capsys, args, leak):
    code = main(["privacy-audit", "--scheme", *args.split(), *(["--inject-leak"] if leak else [])])
    out = capsys.readouterr().out.encode()
    assert (code, hashlib.sha256(out).hexdigest()) == CLI_AUDIT[args][leak]
