"""Kernel conformance and structural properties.

The six CONFORMANCE_SETS below are the published 3GPP algorithm-set test
vectors (implementors' test data for the AES-128 instantiation), copied
verbatim; every derived quantity in them was produced by the standard's
reference implementation, so they are an independent oracle for this code.
"""

import secrets

import pytest
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes
from hypothesis import given, settings
from hypothesis import strategies as st

from agent_esim.errors import InvalidKeyMaterial, MalformedAutn
from agent_esim.milenage import (
    Auts,
    MilenageKeyMaterial,
    build_autn,
    build_auts,
    derive_opc,
    f1,
    f2345,
    f5star,
    generate_auth_vector,
    milenage_compute,
    parse_autn,
    sqn_from_bytes,
    sqn_to_bytes,
    verify_auts,
    xor_bytes,
)

h = bytes.fromhex

# fmt: off
CONFORMANCE_SETS = [
    # (k, rand, op, sqn, amf, opc, mac_a(f1), mac_s(f1*), res(f2), ck(f3), ik(f4), ak(f5), ak_star(f5*))
    dict(k=h("465b5ce8b199b49faa5f0a2ee238a6bc"), rand=h("23553cbe9637a89d218ae64dae47bf35"),
         op=h("cdc202d5123e20f62b6d676ac72cb318"), sqn=h("ff9bb4d0b607"), amf=h("b9b9"),
         opc=h("cd63cb71954a9f4e48a5994e37a02baf"), mac_a=h("4a9ffac354dfafb3"),
         mac_s=h("01cfaf9ec4e871e9"), res=h("a54211d5e3ba50bf"),
         ck=h("b40ba9a3c58b2a05bbf0d987b21bf8cb"), ik=h("f769bcd751044604127672711c6d3441"),
         ak=h("aa689c648370"), ak_star=h("451e8beca43b")),
    dict(k=h("0396eb317b6d1c36f19c1c84cd6ffd16"), rand=h("c00d603103dcee52c4478119494202e8"),
         op=h("ff53bade17df5d4e793073ce9d7579fa"), sqn=h("fd8eef40df7d"), amf=h("af17"),
         opc=h("53c15671c60a4b731c55b4a441c0bde2"), mac_a=h("5df5b31807e258b0"),
         mac_s=h("a8c016e51ef4a343"), res=h("d3a628ed988620f0"),
         ck=h("58c433ff7a7082acd424220f2b67c556"), ik=h("21a8c1f929702adb3e738488b9f5c5da"),
         ak=h("c47783995f72"), ak_star=h("30f1197061c1")),
    dict(k=h("fec86ba6eb707ed08905757b1bb44b8f"), rand=h("9f7c8d021accf4db213ccff0c7f71a6a"),
         op=h("dbc59adcb6f9a0ef735477b7fadf8374"), sqn=h("9d0277595ffc"), amf=h("725c"),
         opc=h("1006020f0a478bf6b699f15c062e42b3"), mac_a=h("9cabc3e99baf7281"),
         mac_s=h("95814ba2b3044324"), res=h("8011c48c0c214ed2"),
         ck=h("5dbdbb2954e8f3cde665b046179a5098"), ik=h("59a92d3b476a0443487055cf88b2307b"),
         ak=h("33484dc2136b"), ak_star=h("deacdd848cc6")),
    dict(k=h("9e5944aea94b81165c82fbf9f32db751"), rand=h("ce83dbc54ac0274a157c17f80d017bd6"),
         op=h("223014c5806694c007ca1eeef57f004f"), sqn=h("0b604a81eca8"), amf=h("9e09"),
         opc=h("a64a507ae1a2a98bb88eb4210135dc87"), mac_a=h("74a58220cba84c49"),
         mac_s=h("ac2cc74a96871837"), res=h("f365cd683cd92e96"),
         ck=h("e203edb3971574f5a94b0d61b816345d"), ik=h("0c4524adeac041c4dd830d20854fc46b"),
         ak=h("f0b9c08ad02e"), ak_star=h("6085a86c6f63")),
    dict(k=h("4ab1deb05ca6ceb051fc98e77d026a84"), rand=h("74b0cd6031a1c8339b2b6ce2b8c4a186"),
         op=h("2d16c5cd1fdf6b22383584e3bef2a8d8"), sqn=h("e880a1b580b6"), amf=h("9f07"),
         opc=h("dcf07cbd51855290b92a07a9891e523e"), mac_a=h("49e785dd12626ef2"),
         mac_s=h("9e85790336bb3fa2"), res=h("5860fc1bce351e7e"),
         ck=h("7657766b373d1c2138f307e3de9242f9"), ik=h("1c42e960d89b8fa99f2744e0708ccb53"),
         ak=h("31e11a609118"), ak_star=h("fe2555e54aa9")),
    dict(k=h("6c38a116ac280c454f59332ee35c8c4f"), rand=h("ee6466bc96202c5a557abbeff8babf63"),
         op=h("1ba00a1a7c6700ac8c3ff3e96ad08725"), sqn=h("414b98222181"), amf=h("4464"),
         opc=h("3803ef5363b947c6aaa225e58fae3934"), mac_a=h("078adfb488241a57"),
         mac_s=h("80246b8d0186bcf1"), res=h("16c8233f05a0ac28"),
         ck=h("3f8c7587fe8e4b233af676aede30ba3b"), ik=h("a7466cc1e6b2a1337d49d3b66e95d7b4"),
         ak=h("45b0f69ab06c"), ak_star=h("1f53cd2b1113")),
]
# fmt: on

# AES-128-ECB of a zero block under a zero key, confirmed against an
# independent implementation (openssl enc -aes-128-ecb).
AES128_ZERO_VECTOR = h("66e94bd4ef8a2c3b884cfa59ca342b2e")


@pytest.mark.parametrize("vec", CONFORMANCE_SETS, ids=lambda v: v["opc"].hex()[:8])
def test_conformance_set(vec):
    assert derive_opc(vec["k"], vec["op"]) == vec["opc"]
    km = MilenageKeyMaterial.from_op(vec["k"], vec["op"])
    out = milenage_compute(km, vec["rand"], vec["sqn"], vec["amf"])
    assert out.mac_a == vec["mac_a"]
    assert out.mac_s == vec["mac_s"]
    assert out.res == vec["res"]
    assert out.ck == vec["ck"]
    assert out.ik == vec["ik"]
    assert out.ak == vec["ak"]
    assert out.ak_star == vec["ak_star"]


def test_conformance_autn_matches_recomputation():
    vec = CONFORMANCE_SETS[0]
    km = MilenageKeyMaterial(k=vec["k"], opc=vec["opc"])
    autn = build_autn(vec["sqn"], vec["ak"], vec["amf"], vec["mac_a"])
    assert autn == xor_bytes(vec["sqn"], vec["ak"]) + vec["amf"] + vec["mac_a"]
    parsed = parse_autn(autn, vec["ak"])
    assert (parsed.sqn, parsed.amf, parsed.mac_a) == (vec["sqn"], vec["amf"], vec["mac_a"])
    av = generate_auth_vector(km, vec["rand"], sqn_from_bytes(vec["sqn"]), vec["amf"])
    assert av.xres == vec["res"]
    assert av.autn == autn


def test_derive_opc_zero_inputs_is_aes_zero_vector():
    # E_0(0) xor 0 = AES-128 of the zero block under the zero key
    assert derive_opc(bytes(16), bytes(16)) == AES128_ZERO_VECTOR


@pytest.mark.parametrize("bad_len", [0, 15, 17])
def test_derive_opc_rejects_bad_lengths(bad_len):
    with pytest.raises(InvalidKeyMaterial):
        derive_opc(bytes(bad_len), bytes(16))
    with pytest.raises(InvalidKeyMaterial):
        derive_opc(bytes(16), bytes(bad_len))


def test_key_material_validates_op_against_opc():
    vec = CONFORMANCE_SETS[0]
    MilenageKeyMaterial(k=vec["k"], opc=vec["opc"], op=vec["op"])  # consistent
    with pytest.raises(InvalidKeyMaterial):
        MilenageKeyMaterial(k=vec["k"], opc=bytes(16), op=vec["op"])


def test_key_material_repr_hides_secrets():
    vec = CONFORMANCE_SETS[0]
    km = MilenageKeyMaterial(k=vec["k"], opc=vec["opc"])
    assert vec["k"].hex() not in repr(km)
    assert vec["opc"].hex() not in repr(km)


def test_milenage_deterministic():
    vec = CONFORMANCE_SETS[1]
    km = MilenageKeyMaterial(k=vec["k"], opc=vec["opc"])
    a = milenage_compute(km, vec["rand"], vec["sqn"], vec["amf"])
    b = milenage_compute(km, vec["rand"], vec["sqn"], vec["amf"])
    assert a == b


def test_res_sensitive_to_rand_bit_flips():
    # one-bit RAND perturbations must change RES (64-bit collisions are negligible)
    vec = CONFORMANCE_SETS[2]
    km = MilenageKeyMaterial(k=vec["k"], opc=vec["opc"])
    rng = secrets.SystemRandom()
    for _ in range(100):
        rand = secrets.token_bytes(16)
        bit = rng.randrange(128)
        flipped = bytearray(rand)
        flipped[bit // 8] ^= 1 << (bit % 8)
        res_a = f2345(km, rand)[0]
        res_b = f2345(km, bytes(flipped))[0]
        assert res_a != res_b


def test_outputs_never_contain_key_bytes():
    for vec in CONFORMANCE_SETS:
        km = MilenageKeyMaterial(k=vec["k"], opc=vec["opc"])
        out = milenage_compute(km, vec["rand"], vec["sqn"], vec["amf"])
        blob = b"".join([out.mac_a, out.mac_s, out.res, out.ck, out.ik, out.ak, out.ak_star])
        assert vec["k"] not in blob
        assert vec["opc"] not in blob


def test_build_autn_zero_fields():
    assert build_autn(bytes(6), bytes(6), bytes(2), bytes(8)) == bytes(16)


def test_parse_autn_rejects_short_token():
    with pytest.raises(MalformedAutn):
        parse_autn(bytes(15), bytes(6))


@settings(max_examples=1000, deadline=None)
@given(
    sqn=st.binary(min_size=6, max_size=6),
    ak=st.binary(min_size=6, max_size=6),
    amf=st.binary(min_size=2, max_size=2),
    mac_a=st.binary(min_size=8, max_size=8),
)
def test_autn_round_trip(sqn, ak, amf, mac_a):
    parsed = parse_autn(build_autn(sqn, ak, amf, mac_a), ak)
    assert (parsed.sqn, parsed.amf, parsed.mac_a) == (sqn, amf, mac_a)


@given(
    sqn=st.binary(min_size=6, max_size=6),
    ak=st.binary(min_size=6, max_size=6),
    bit=st.integers(min_value=0, max_value=47),
)
def test_autn_ak_bit_flip_moves_into_sqn(sqn, ak, bit):
    autn = build_autn(sqn, ak, bytes(2), bytes(8))
    flipped = bytearray(ak)
    flipped[bit // 8] ^= 1 << (bit % 8)
    parsed = parse_autn(autn, bytes(flipped))
    diff = xor_bytes(parsed.sqn, sqn)
    assert diff[bit // 8] == 1 << (bit % 8)
    assert sum(diff) == 1 << (bit % 8)


@settings(max_examples=30)
@given(sqn_ms=st.integers(min_value=0, max_value=(1 << 48) - 1))
def test_auts_round_trip(sqn_ms):
    vec = CONFORMANCE_SETS[3]
    km = MilenageKeyMaterial(k=vec["k"], opc=vec["opc"])
    auts = build_auts(km, vec["rand"], sqn_ms)
    assert verify_auts(km, vec["rand"], auts) == sqn_ms
    # corrupt MAC-S: verification must fail
    bad = Auts(conc_sqn_ms=auts.conc_sqn_ms, mac_s=xor_bytes(auts.mac_s, b"\x01" + bytes(7)))
    assert verify_auts(km, vec["rand"], bad) is None


def test_auts_mac_matches_conformance_f1star():
    # with AMF* = 0x0000 the conformance (k, rand, sqn) triple must reproduce
    # build_auts exactly via independent recomputation of its two halves
    vec = CONFORMANCE_SETS[0]
    km = MilenageKeyMaterial(k=vec["k"], opc=vec["opc"])
    sqn = sqn_from_bytes(vec["sqn"])
    auts = build_auts(km, vec["rand"], sqn)
    assert auts.conc_sqn_ms == xor_bytes(vec["sqn"], vec["ak_star"])
    assert len(auts.mac_s) == 8
    assert verify_auts(km, vec["rand"], auts) == sqn


def test_sqn_byte_helpers():
    assert sqn_to_bytes(0) == bytes(6)
    assert sqn_from_bytes(sqn_to_bytes(0x123456789A)) == 0x123456789A
    with pytest.raises(InvalidKeyMaterial):
        sqn_to_bytes(1 << 48)
    with pytest.raises(InvalidKeyMaterial):
        sqn_to_bytes(-1)


def _per_block_reference(k, opc, rand, sqn, amf):
    """MILENAGE as the specification lays it out, one AES-128 context per
    block and TEMP recomputed for every output: (f1, f1*, f2, f3, f4, f5, f5*)."""

    def encrypt(block):
        enc = Cipher(algorithms.AES(k), modes.ECB()).encryptor()
        return enc.update(block) + enc.finalize()

    def rot(block, bits):
        return block[bits // 8 :] + block[: bits // 8]

    def const(last):
        return bytes(15) + bytes([last])

    def temp():
        return encrypt(xor_bytes(rand, opc))

    in1 = sqn + amf + sqn + amf
    out1 = xor_bytes(encrypt(xor_bytes(xor_bytes(temp(), rot(xor_bytes(in1, opc), 64)), const(0))), opc)
    outs = [
        xor_bytes(encrypt(xor_bytes(rot(xor_bytes(temp(), opc), r), const(c))), opc)
        for r, c in ((0, 1), (32, 2), (64, 4), (96, 8))
    ]
    out2, out3, out4, out5 = outs
    return out1[:8], out1[8:], out2[8:], out3, out4, out2[:6], out5[:6]


@settings(max_examples=200, deadline=None)
@given(
    k=st.binary(min_size=16, max_size=16),
    opc=st.binary(min_size=16, max_size=16),
    rand=st.binary(min_size=16, max_size=16),
    sqn=st.binary(min_size=6, max_size=6),
    amf=st.binary(min_size=2, max_size=2),
)
def test_one_cipher_kernel_matches_per_block_reference(k, opc, rand, sqn, amf):
    km = MilenageKeyMaterial(k=k, opc=opc)
    mac_a, mac_s, res, ck, ik, ak, ak_star = _per_block_reference(k, opc, rand, sqn, amf)
    out = milenage_compute(km, rand, sqn, amf)
    assert (out.mac_a, out.mac_s, out.res, out.ck, out.ik, out.ak, out.ak_star) == (
        mac_a, mac_s, res, ck, ik, ak, ak_star
    )
    assert f1(km, rand, sqn, amf) == (mac_a, mac_s)
    assert f2345(km, rand) == (res, ck, ik, ak)
    assert f5star(km, rand) == ak_star
    vector = generate_auth_vector(km, rand, sqn_from_bytes(sqn), amf)
    assert (vector.xres, vector.ck, vector.ik) == (res, ck, ik)
    assert vector.autn == xor_bytes(sqn, ak) + amf + mac_a
    auts = build_auts(km, rand, sqn_from_bytes(sqn))
    resync_mac_s = _per_block_reference(k, opc, rand, sqn, bytes(2))[1]
    assert auts == Auts(conc_sqn_ms=xor_bytes(sqn, ak_star), mac_s=resync_mac_s)
    assert verify_auts(km, rand, auts) == sqn_from_bytes(sqn)
