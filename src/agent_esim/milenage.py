"""MILENAGE authentication kernel and AUTN/AUTS token construction.

Implements the standard f1 / f1* / f2 / f3 / f4 / f5 / f5* function family
over an AES-128 block cipher, with the default c1..c5 / r1..r5 parameter
set, plus the token layouts exchanged during an authentication and key
agreement round:

    AUTN = (SQN xor AK) || AMF || MAC-A          (6 + 2 + 8 = 16 bytes)
    AUTS = (SQN_MS xor AK*) || MAC-S             (6 + 8     = 14 bytes)

Everything in this module is a pure function of its byte-string inputs and
safe for unrestricted concurrent use. RES is fixed at 8 bytes (the full
64-bit f2 output); the resynchronization AMF is fixed to 0x0000.
"""

from __future__ import annotations

import hmac
from dataclasses import dataclass

from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

from .errors import InvalidKeyMaterial, MalformedAutn

__all__ = [
    "MilenageKeyMaterial",
    "MilenageOutput",
    "AuthVector",
    "Auts",
    "RESYNC_AMF",
    "derive_opc",
    "milenage_compute",
    "f1",
    "f2345",
    "f5star",
    "build_autn",
    "parse_autn",
    "generate_auth_vector",
    "sqn_to_bytes",
    "sqn_from_bytes",
    "xor_bytes",
]

_MASK128 = (1 << 128) - 1
SQN_MAX = (1 << 48) - 1

# Default algorithm customization parameters. c1..c5 are 128-bit constants
# (only the low bits differ); r1..r5 are rotation amounts toward the MSB.
_C = (0, 1, 2, 4, 8)
_R = (64, 0, 32, 64, 96)

# AMF used when computing MAC-S for a resynchronization token.
RESYNC_AMF = b"\x00\x00"


def _require_len(name: str, value: bytes, expected: int) -> bytes:
    if not isinstance(value, (bytes, bytearray)):
        raise InvalidKeyMaterial(f"{name} must be bytes, got {type(value).__name__}")
    if len(value) != expected:
        raise InvalidKeyMaterial(f"{name} must be {expected} bytes, got {len(value)}")
    return bytes(value)


def _aes128_encrypt(key: bytes, block: bytes) -> bytes:
    enc = Cipher(algorithms.AES(key), modes.ECB()).encryptor()
    return enc.update(block) + enc.finalize()


def xor_bytes(a: bytes, b: bytes) -> bytes:
    if len(a) != len(b):
        raise InvalidKeyMaterial(f"xor length mismatch: {len(a)} vs {len(b)}")
    return bytes(x ^ y for x, y in zip(a, b))


def _rotl128(x: int, r: int) -> int:
    if r == 0:
        return x
    return ((x << r) | (x >> (128 - r))) & _MASK128


def sqn_to_bytes(sqn: int) -> bytes:
    if not 0 <= sqn <= SQN_MAX:
        raise InvalidKeyMaterial(f"sqn out of 48-bit range: {sqn}")
    return sqn.to_bytes(6, "big")


def sqn_from_bytes(sqn: bytes) -> int:
    _require_len("sqn", sqn, 6)
    return int.from_bytes(sqn, "big")


def derive_opc(k: bytes, op: bytes) -> bytes:
    """Derive the per-subscriber operator constant: E_k(OP) xor OP."""
    k = _require_len("k", k, 16)
    op = _require_len("op", op, 16)
    return xor_bytes(_aes128_encrypt(k, op), op)


@dataclass(frozen=True)
class MilenageKeyMaterial:
    """Subscriber key `k` plus operator constant `opc` (optionally with `op`).

    When `op` is supplied, `opc` must equal derive_opc(k, op); use
    :meth:`from_op` to compute it. Instances never serialize their secrets.
    """

    k: bytes
    opc: bytes
    op: bytes | None = None

    def __post_init__(self):
        _require_len("k", self.k, 16)
        _require_len("opc", self.opc, 16)
        if self.op is not None:
            _require_len("op", self.op, 16)
            if derive_opc(self.k, self.op) != self.opc:
                raise InvalidKeyMaterial("opc does not match derive_opc(k, op)")

    @classmethod
    def from_op(cls, k: bytes, op: bytes) -> "MilenageKeyMaterial":
        return cls(k=bytes(k), opc=derive_opc(k, op), op=bytes(op))

    def __repr__(self) -> str:  # never leak key bytes via repr
        return "MilenageKeyMaterial(k=<16 bytes>, opc=<16 bytes>)"


@dataclass(frozen=True)
class MilenageOutput:
    """Complete f-function output set for one (key material, RAND, SQN, AMF)."""

    mac_a: bytes   # f1,  8 bytes
    mac_s: bytes   # f1*, 8 bytes
    res: bytes     # f2,  8 bytes
    ck: bytes      # f3, 16 bytes
    ik: bytes      # f4, 16 bytes
    ak: bytes      # f5,  6 bytes
    ak_star: bytes # f5*, 6 bytes


class _Evaluation:
    """One MILENAGE evaluation for (key material, RAND): a single AES-128
    context under K, with TEMP = E_K(RAND xor OPc) computed once."""

    __slots__ = ("_encrypt", "_opc", "_temp")

    def __init__(self, km: MilenageKeyMaterial, rand: bytes):
        rand = _require_len("rand", rand, 16)
        self._encrypt = Cipher(algorithms.AES(km.k), modes.ECB()).encryptor().update
        self._opc = int.from_bytes(km.opc, "big")
        temp = self._encrypt((int.from_bytes(rand, "big") ^ self._opc).to_bytes(16, "big"))
        self._temp = int.from_bytes(temp, "big")

    def out1(self, sqn: bytes, amf: bytes) -> bytes:
        """OUT1: E_K(TEMP xor rot(IN1 xor OPc, r1) xor c1) xor OPc."""
        sqn = _require_len("sqn", sqn, 6)
        amf = _require_len("amf", amf, 2)
        in1 = int.from_bytes(sqn + amf + sqn + amf, "big")
        return self._outputs([self._temp ^ _rotl128(in1 ^ self._opc, _R[0]) ^ _C[0]])[0]

    def out(self, *indexes: int) -> list[bytes]:
        """OUT2..OUT5: E_K(rot(TEMP xor OPc, r_n) xor c_n) xor OPc, in one pass."""
        base = self._temp ^ self._opc
        return self._outputs([_rotl128(base, _R[n - 1]) ^ _C[n - 1] for n in indexes])

    def _outputs(self, args: list[int]) -> list[bytes]:
        blocks = self._encrypt(b"".join(arg.to_bytes(16, "big") for arg in args))
        return [
            (int.from_bytes(blocks[i : i + 16], "big") ^ self._opc).to_bytes(16, "big")
            for i in range(0, len(blocks), 16)
        ]


def f1(km: MilenageKeyMaterial, rand: bytes, sqn: bytes, amf: bytes) -> tuple[bytes, bytes]:
    """Network/resync authentication codes: returns (MAC-A, MAC-S)."""
    out1 = _Evaluation(km, rand).out1(sqn, amf)
    return out1[:8], out1[8:]


def f2345(km: MilenageKeyMaterial, rand: bytes) -> tuple[bytes, bytes, bytes, bytes]:
    """Challenge response and session keys: returns (RES, CK, IK, AK)."""
    out2, ck, ik = _Evaluation(km, rand).out(2, 3, 4)
    return out2[8:16], ck, ik, out2[:6]


def f5star(km: MilenageKeyMaterial, rand: bytes) -> bytes:
    """Resynchronization anonymity key AK* (6 bytes)."""
    return _Evaluation(km, rand).out(5)[0][:6]


def milenage_compute(
    km: MilenageKeyMaterial, rand: bytes, sqn: bytes, amf: bytes
) -> MilenageOutput:
    """Evaluate the full f-function family for one input tuple."""
    evaluation = _Evaluation(km, rand)
    out1 = evaluation.out1(sqn, amf)
    out2, ck, ik, out5 = evaluation.out(2, 3, 4, 5)
    return MilenageOutput(
        mac_a=out1[:8], mac_s=out1[8:], res=out2[8:16], ck=ck, ik=ik, ak=out2[:6],
        ak_star=out5[:6],
    )


def build_autn(sqn: bytes, ak: bytes, amf: bytes, mac_a: bytes) -> bytes:
    """Assemble the 16-byte network authentication token."""
    sqn = _require_len("sqn", sqn, 6)
    ak = _require_len("ak", ak, 6)
    amf = _require_len("amf", amf, 2)
    mac_a = _require_len("mac_a", mac_a, 8)
    return xor_bytes(sqn, ak) + amf + mac_a


@dataclass(frozen=True)
class ParsedAutn:
    sqn: bytes
    amf: bytes
    mac_a: bytes


def parse_autn(autn: bytes, ak: bytes) -> ParsedAutn:
    """Split an AUTN and unmask the sequence number with the given AK."""
    if not isinstance(autn, (bytes, bytearray)) or len(autn) != 16:
        raise MalformedAutn(f"autn must be 16 bytes, got {len(autn)}")
    ak = _require_len("ak", ak, 6)
    return ParsedAutn(
        sqn=xor_bytes(bytes(autn[:6]), ak),
        amf=bytes(autn[6:8]),
        mac_a=bytes(autn[8:16]),
    )


@dataclass(frozen=True)
class Auts:
    """Resynchronization token: concealed SQN_MS plus MAC-S."""

    conc_sqn_ms: bytes  # SQN_MS xor AK*, 6 bytes
    mac_s: bytes        # 8 bytes

    def __post_init__(self):
        if len(self.conc_sqn_ms) != 6 or len(self.mac_s) != 8:
            raise MalformedAutn("auts must be 6 + 8 bytes")

    def to_bytes(self) -> bytes:
        return self.conc_sqn_ms + self.mac_s

    @classmethod
    def from_bytes(cls, raw: bytes) -> "Auts":
        if len(raw) != 14:
            raise MalformedAutn(f"auts must be 14 bytes, got {len(raw)}")
        return cls(conc_sqn_ms=bytes(raw[:6]), mac_s=bytes(raw[6:]))


def build_auts(km: MilenageKeyMaterial, rand: bytes, sqn_ms: int) -> Auts:
    """USIM-side resynchronization token for its current highest SQN."""
    sqn_b = sqn_to_bytes(sqn_ms)
    evaluation = _Evaluation(km, rand)
    mac_s = evaluation.out1(sqn_b, RESYNC_AMF)[8:]
    ak_star = evaluation.out(5)[0][:6]
    return Auts(conc_sqn_ms=xor_bytes(sqn_b, ak_star), mac_s=mac_s)


def verify_auts(km: MilenageKeyMaterial, rand: bytes, auts: Auts) -> int | None:
    """Recover SQN_MS from an AUTS; None when MAC-S does not verify."""
    evaluation = _Evaluation(km, rand)
    sqn_b = xor_bytes(auts.conc_sqn_ms, evaluation.out(5)[0][:6])
    expected = evaluation.out1(sqn_b, RESYNC_AMF)[8:]
    if not hmac.compare_digest(expected, auts.mac_s):
        return None
    return sqn_from_bytes(sqn_b)


@dataclass(frozen=True)
class AuthVector:
    """Network-side authentication quintet."""

    rand: bytes  # 16
    xres: bytes  # 8
    ck: bytes    # 16
    ik: bytes    # 16
    autn: bytes  # 16


def generate_auth_vector(
    km: MilenageKeyMaterial, rand: bytes, sqn: int, amf: bytes
) -> AuthVector:
    """Compute the quintet a home network issues for one challenge (f1 to
    f5; f5*, which only resynchronization uses, is not computed)."""
    sqn_b = sqn_to_bytes(sqn)
    evaluation = _Evaluation(km, rand)
    out1 = evaluation.out1(sqn_b, amf)
    out2, ck, ik = evaluation.out(2, 3, 4)
    return AuthVector(
        rand=bytes(rand),
        xres=out2[8:16],
        ck=ck,
        ik=ik,
        autn=build_autn(sqn_b, out2[:6], amf, out1[:8]),
    )
