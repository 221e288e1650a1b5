"""Ed25519 sign and verify through libsodium, or the libcrypto ``hashlib`` links.

On first use the first of :data:`_ROUTES` that loads and passes RFC 8032
test 1 is bound, each only under a versioned file name (loading an
unversioned system ``libcrypto.dylib`` aborts the process on macOS):

* **libsodium**, opened by name (:data:`_SODIUM_NAMES`).  It signs with
  the per-seed ``seed‖A`` secret key and verifies from the key's bytes.
* **libcrypto**, found among the images this process already mapped
  (``/proc/self/maps``; the dyld image list on macOS).  Each call makes
  and frees its own ``EVP_MD_CTX`` over a per-key ``EVP_PKEY``.

Either memoises per key (at most :data:`_KEYS_MAX`, the oldest evicted
first, an ``EVP_PKEY`` freed).  Where neither binds, or ``_LIB`` is set
to None, :func:`available` is False and :mod:`repro.crypto.keys` runs the
pure kernel alone; it argues what native results may decide: :func:`sign`
equals :func:`repro.crypto.ed25519.sign` byte for byte, and a ``False``
from :func:`accepts` (libsodium's own small-order and non-canonical
refusals among them) decides nothing.  Both libraries check cofactorless,
after :func:`accepts`' own ``s < L`` and canonical ``A`` / ``R`` checks.
"""

from __future__ import annotations

import ctypes
import hashlib  # noqa: F401  (importing it maps libcrypto, through _hashlib)
import os
import re
import sys

from repro.crypto.ed25519 import L, P

_NID_ED25519 = 1087  # EVP_PKEY_ED25519 in every OpenSSL since 1.1.1
_VERSIONED = re.compile(r"libcrypto(\.so\.[0-9.]+|\.[0-9.]+\.dylib)$")
_SODIUM_NAMES = ("libsodium.so.26", "libsodium.so.23", "libsodium.26.dylib", "libsodium.23.dylib")
_KEYS_MAX = 1024
_Y_MASK = (1 << 255) - 1
_UNBOUND = object()
_LIB = _UNBOUND  # then the self-tested route, or None
_POINTER, _SIZE, _BYTES = ctypes.c_void_p, ctypes.c_size_t, ctypes.c_char_p


# RFC 8032 section 7.1, test 1: the binding must reproduce it exactly.
_TEST_SEED = bytes.fromhex("9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60")
_TEST_PUBLIC = bytes.fromhex("d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a")
_TEST_SIGNATURE = bytes.fromhex(
    "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e06522490155"
    "5fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b"
)


def _mapped_libcrypto() -> str | None:
    """Path of a versioned libcrypto this process has already mapped."""
    if sys.platform == "darwin":
        dyld = ctypes.CDLL(None)
        dyld._dyld_get_image_name.restype = ctypes.c_char_p
        paths = [dyld._dyld_get_image_name(i).decode() for i in range(dyld._dyld_image_count())]
    else:
        try:
            with open("/proc/self/maps") as maps:
                paths = [line.split(None, 5)[-1].strip() for line in maps]
        except OSError:
            return None
    return next((path for path in paths if _VERSIONED.search(os.path.basename(path))), None)


def _bind(names, signatures: dict):
    """The first of ``names`` that loads, its ``signatures`` declared."""
    for name in names:
        try:
            lib = ctypes.CDLL(name)
        except OSError:
            continue
        for symbol, (restype, argtypes) in signatures.items():
            function = getattr(lib, symbol)
            function.restype, function.argtypes = restype, argtypes
        return lib
    raise OSError(f"none of {names} loads")


def _remember(memo: dict, key, value, free=lambda evicted: None):
    """Store ``value`` under ``key``, first evicting the oldest entry
    (through ``free``) once ``memo`` holds :data:`_KEYS_MAX`."""
    if len(memo) >= _KEYS_MAX:
        free(memo.pop(next(iter(memo))))
    memo[key] = value
    return value


class _Libsodium:
    name = "libsodium"

    def __init__(self):
        ull = ctypes.c_ulonglong
        self.lib = _bind(_SODIUM_NAMES, {
            "sodium_init": (ctypes.c_int, []),
            "crypto_sign_seed_keypair": (ctypes.c_int, [_BYTES, _BYTES, _BYTES]),
            "crypto_sign_detached": (ctypes.c_int, [_BYTES, _POINTER, _BYTES, ull, _BYTES]),
            "crypto_sign_verify_detached": (ctypes.c_int, [_BYTES, _BYTES, ull, _BYTES]),
        })
        if self.lib.sodium_init() < 0:
            raise OSError("sodium_init failed")
        self.keys: dict[bytes, bytes] = {}

    def sign(self, seed: bytes, message: bytes) -> bytes | None:
        secret = self.keys.get(seed)
        if secret is None:
            public, expanded = ctypes.create_string_buffer(32), ctypes.create_string_buffer(64)
            self.lib.crypto_sign_seed_keypair(public, expanded, seed)  # always returns 0
            secret = _remember(self.keys, seed, expanded.raw)
        buffer = ctypes.create_string_buffer(64)
        self.lib.crypto_sign_detached(buffer, None, message, len(message), secret)  # always returns 0
        return buffer.raw

    def verify(self, public_key: bytes, message: bytes, signature: bytes) -> bool:
        return self.lib.crypto_sign_verify_detached(signature, message, len(message), public_key) == 0


class _Libcrypto:
    name = "libcrypto"

    def __init__(self):
        path = _mapped_libcrypto()
        self.lib = _bind([path] if path else [], {
            "EVP_PKEY_new_raw_public_key": (_POINTER, [ctypes.c_int, _POINTER, _BYTES, _SIZE]),
            "EVP_PKEY_new_raw_private_key": (_POINTER, [ctypes.c_int, _POINTER, _BYTES, _SIZE]),
            "EVP_PKEY_free": (None, [_POINTER]),
            "EVP_MD_CTX_new": (_POINTER, []),
            "EVP_MD_CTX_free": (None, [_POINTER]),
            "EVP_DigestSignInit": (ctypes.c_int, [_POINTER, _POINTER, _POINTER, _POINTER, _POINTER]),
            "EVP_DigestSign": (ctypes.c_int, [_POINTER, _BYTES, ctypes.POINTER(_SIZE), _BYTES, _SIZE]),
            "EVP_DigestVerifyInit": (ctypes.c_int, [_POINTER, _POINTER, _POINTER, _POINTER, _POINTER]),
            "EVP_DigestVerify": (ctypes.c_int, [_POINTER, _BYTES, _SIZE, _BYTES, _SIZE]),
            "ERR_clear_error": (None, []),
        })
        self.keys: dict[tuple[bool, bytes], int] = {}

    def _key(self, private: bool, data: bytes) -> int | None:
        """The memoised ``EVP_PKEY`` of a 32-byte seed or public key."""
        handle = self.keys.get((private, data))
        if handle is None:
            lib = self.lib
            new = lib.EVP_PKEY_new_raw_private_key if private else lib.EVP_PKEY_new_raw_public_key
            handle = new(_NID_ED25519, None, data, 32)
            if not handle:
                lib.ERR_clear_error()
                return None
            _remember(self.keys, (private, data), handle, lib.EVP_PKEY_free)
        return handle

    def sign(self, seed: bytes, message: bytes) -> bytes | None:
        lib, key = self.lib, self._key(True, seed)
        if key is None:
            return None
        ctx = lib.EVP_MD_CTX_new()
        buffer, length = ctypes.create_string_buffer(64), ctypes.c_size_t(64)
        try:
            ok = (
                lib.EVP_DigestSignInit(ctx, None, None, None, key) == 1
                and lib.EVP_DigestSign(ctx, buffer, ctypes.byref(length), message, len(message)) == 1
                and length.value == 64
            )
        finally:
            lib.EVP_MD_CTX_free(ctx)
        if not ok:
            lib.ERR_clear_error()
            return None
        return buffer.raw

    def verify(self, public_key: bytes, message: bytes, signature: bytes) -> bool:
        lib, key = self.lib, self._key(False, public_key)
        if key is None:
            return False
        ctx = lib.EVP_MD_CTX_new()
        try:
            verdict = (
                lib.EVP_DigestVerifyInit(ctx, None, None, None, key) == 1
                and lib.EVP_DigestVerify(ctx, signature, 64, message, len(message)) == 1
            )
        finally:
            lib.EVP_MD_CTX_free(ctx)
        if not verdict:
            lib.ERR_clear_error()
        return verdict


#: Tried in order; the first that loads and passes its self-test is bound.
_ROUTES = (_Libsodium, _Libcrypto)


def _self_tested(route_class):
    """``route_class`` loaded and checked against RFC 8032 test 1, or None
    if it is absent, lacks a symbol or fails the test."""
    try:
        route = route_class()
    except (AttributeError, OSError):
        return None
    passed = (
        route.sign(_TEST_SEED, b"") == _TEST_SIGNATURE
        and route.verify(_TEST_PUBLIC, b"", _TEST_SIGNATURE)
        and not route.verify(_TEST_PUBLIC, b"\x00", _TEST_SIGNATURE)
    )
    return route if passed else None


def _bound():
    """The bound route, chosen and self-tested on first use; None if no
    library binds."""
    global _LIB
    if _LIB is _UNBOUND:
        _LIB = next(filter(None, map(_self_tested, _ROUTES)), None)
    return _LIB


def available() -> bool:
    """Whether native Ed25519 is bound (and passed its self-test)."""
    return _bound() is not None


def library() -> str | None:
    """The bound library's name (``"libsodium"`` or ``"libcrypto"``), or None."""
    return getattr(_bound(), "name", None)


def sign(seed: bytes, message: bytes) -> bytes | None:
    """The RFC 8032 signature of ``message``, or None if native signing
    is unavailable or fails (the caller then signs in pure Python)."""
    route = _bound()
    if route is None or len(seed) != 32:
        return None
    return route.sign(seed, message)


def _canonical(encoding: bytes) -> bool:
    """``y < P``, and no sign bit on ``x = 0`` (``y = 1`` or ``y = P - 1``)."""
    y = int.from_bytes(encoding, "little")
    return (y & _Y_MASK) < P and (y >> 255 == 0 or (y & _Y_MASK) not in (1, P - 1))


def accepts(public_key: bytes, message: bytes, signature: bytes) -> bool:
    """True only if the bound library accepts a signature whose ``s < L``
    and whose ``A`` and ``R`` are canonical encodings; False decides nothing."""
    route = _bound()
    if (
        route is None
        or len(public_key) != 32
        or len(signature) != 64
        or int.from_bytes(signature[32:], "little") >= L
        or not _canonical(public_key)
        or not _canonical(signature[:32])
    ):
        return False
    return route.verify(public_key, message, signature)
