"""Ed25519 sign and verify through the libcrypto ``hashlib`` already links.

The library is looked up among the images this process already mapped
(``/proc/self/maps``; the dyld image list on macOS), on first use, and
only under a versioned file name (``libcrypto.so.3``,
``libcrypto.3.dylib``): loading an unversioned system ``libcrypto.dylib``
aborts the process on macOS.  Where none is mapped, a symbol is missing
or the binding fails RFC 8032 test 1, :func:`available` is False and
:mod:`repro.crypto.keys` runs the pure kernel alone.  What native results
may decide, and why, is argued there: :func:`sign` equals
:func:`repro.crypto.ed25519.sign` byte for byte, and a ``False`` from
:func:`accepts` decides nothing.

Each ``EVP_PKEY`` is memoised per key encoding (at most :data:`_KEYS_MAX`,
the oldest freed on eviction); each call makes and frees its own
``EVP_MD_CTX``.
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
_KEYS_MAX = 1024
_KEYS: dict[tuple[bool, bytes], int] = {}
_Y_MASK = (1 << 255) - 1
_UNBOUND = object()
_LIB = _UNBOUND  # then the self-tested library, or None


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


def _bind(path: str):
    lib = ctypes.CDLL(path)
    pointer, size = ctypes.c_void_p, ctypes.c_size_t
    signatures = {
        "EVP_PKEY_new_raw_public_key": (pointer, [ctypes.c_int, pointer, ctypes.c_char_p, size]),
        "EVP_PKEY_new_raw_private_key": (pointer, [ctypes.c_int, pointer, ctypes.c_char_p, size]),
        "EVP_PKEY_free": (None, [pointer]),
        "EVP_MD_CTX_new": (pointer, []),
        "EVP_MD_CTX_free": (None, [pointer]),
        "EVP_DigestSignInit": (ctypes.c_int, [pointer, pointer, pointer, pointer, pointer]),
        "EVP_DigestSign": (ctypes.c_int, [pointer, ctypes.c_char_p, ctypes.POINTER(size), ctypes.c_char_p, size]),
        "EVP_DigestVerifyInit": (ctypes.c_int, [pointer, pointer, pointer, pointer, pointer]),
        "EVP_DigestVerify": (ctypes.c_int, [pointer, ctypes.c_char_p, size, ctypes.c_char_p, size]),
        "ERR_clear_error": (None, []),
    }
    for name, (restype, argtypes) in signatures.items():
        function = getattr(lib, name)
        function.restype, function.argtypes = restype, argtypes
    return lib


def _bound():
    """The library, bound and self-tested on first use; None if it is
    absent, lacks a symbol or fails RFC 8032 test 1."""
    global _LIB
    if _LIB is _UNBOUND:
        try:
            path = _mapped_libcrypto()
            _LIB = _bind(path) if path else None
        except (AttributeError, OSError):
            _LIB = None
        if _LIB is not None and not (
            sign(_TEST_SEED, b"") == _TEST_SIGNATURE
            and accepts(_TEST_PUBLIC, b"", _TEST_SIGNATURE)
            and not accepts(_TEST_PUBLIC, b"\x00", _TEST_SIGNATURE)
        ):
            _LIB = None
    return _LIB


def available() -> bool:
    """Whether native Ed25519 is bound (and passed its self-test)."""
    return _bound() is not None


def _key(lib, private: bool, data: bytes) -> int | None:
    """The memoised ``EVP_PKEY`` of a 32-byte seed or public key."""
    handle = _KEYS.get((private, data))
    if handle is None:
        new = lib.EVP_PKEY_new_raw_private_key if private else lib.EVP_PKEY_new_raw_public_key
        handle = new(_NID_ED25519, None, data, 32)
        if not handle:
            lib.ERR_clear_error()
            return None
        if len(_KEYS) >= _KEYS_MAX:
            lib.EVP_PKEY_free(_KEYS.pop(next(iter(_KEYS))))
        _KEYS[(private, data)] = handle
    return handle


def sign(seed: bytes, message: bytes) -> bytes | None:
    """The RFC 8032 signature of ``message``, or None if native signing
    is unavailable or fails (the caller then signs in pure Python)."""
    lib = _bound()
    if lib is None or len(seed) != 32:
        return None
    key = _key(lib, True, seed)
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


def _canonical(encoding: bytes) -> bool:
    """``y < P``, and no sign bit on ``x = 0`` (``y = 1`` or ``y = P - 1``)."""
    y = int.from_bytes(encoding, "little")
    return (y & _Y_MASK) < P and (y >> 255 == 0 or (y & _Y_MASK) not in (1, P - 1))


def accepts(public_key: bytes, message: bytes, signature: bytes) -> bool:
    """True only if libcrypto accepts a signature whose ``s < L`` and whose
    ``A`` and ``R`` are canonical encodings; False decides nothing."""
    lib = _bound()
    if (
        lib is None
        or len(public_key) != 32
        or len(signature) != 64
        or int.from_bytes(signature[32:], "little") >= L
        or not _canonical(public_key)
        or not _canonical(signature[:32])
    ):
        return False
    key = _key(lib, False, public_key)
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

