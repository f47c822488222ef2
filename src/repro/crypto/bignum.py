"""OpenSSL's libcrypto, bound once: modular exponentiation and Ed25519.

:func:`modexp` computes ``pow(base, exp, mod)`` with libcrypto's Montgomery
exponentiation; :mod:`repro.crypto.ed25519` signs and verifies with its EVP
calls.  Both reach it through the ``_hashlib`` extension module: ``dlsym`` on
that module finds the very libcrypto ``hashlib`` uses, so no second copy of
OpenSSL is loaded.  One :func:`_bind` binds the symbols of :data:`_SYMBOLS`
(and imports ``ctypes``) on the first call, not at import.

Built-in ``pow`` remains the path where ``_hashlib`` or the bignum symbols
cannot be loaded, and for the arguments Montgomery arithmetic refuses (a
modulus that is even or below 3, a negative base or exponent), which a hostile
wire key can carry.  Both paths return the same integer.
"""

from __future__ import annotations

from repro.errors import SignatureError

#: libcrypto's functions, per group, as ``name: "<restype><argtypes>"`` in the
#: one-letter ctypes codes of :func:`_bind`.  A group binds whole or not at
#: all, so a libcrypto without Ed25519 (before 1.1.1) still exponentiates.
_SYMBOLS = {
    "bignum": {
        "BN_CTX_new": "p", "BN_CTX_free": "vp", "BN_new": "p", "BN_free": "vp",
        "BN_clear_free": "vp", "BN_bin2bn": "psip", "BN_bn2binpad": "ipsi",
        "BN_mod_exp_mont": "ipppppp", "BN_mod_exp_mont_consttime": "ipppppp",
        "ERR_clear_error": "v", "ERR_peek_error": "u",
    },
    "ed25519": {
        "EVP_PKEY_new_raw_private_key": "pipsn",
        "EVP_PKEY_new_raw_public_key": "pipsn",
        "EVP_PKEY_get_raw_public_key": "ipsN", "EVP_PKEY_free": "vp",
        "EVP_MD_CTX_new": "p", "EVP_MD_CTX_free": "vp",
        "EVP_DigestSignInit": "ippppp", "EVP_DigestSign": "ipsNsn",
        "EVP_DigestVerifyInit": "ippppp", "EVP_DigestVerify": "ipsnsn",
    },
}

#: libcrypto once :func:`_bind` ran, per group (``_lib`` bignum, ``_evp``
#: Ed25519); ``None`` before, ``False`` where the group is absent.
_lib = _evp = None


def _bind():
    # ctypes too is imported here: it adds about 0.4 MB to a process, and
    # one that never touches libcrypto should not pay it
    global _lib, _evp
    bound = dict.fromkeys(_SYMBOLS, False)
    try:
        import ctypes

        import _hashlib

        lib = ctypes.CDLL(_hashlib.__file__)
        size = ctypes.c_size_t
        codes = dict(v=None, p=ctypes.c_void_p, i=ctypes.c_int, u=ctypes.c_ulong)
        codes.update(s=ctypes.c_char_p, n=size, N=ctypes.POINTER(size))
    except (ImportError, OSError):
        lib = None
    for group, symbols in _SYMBOLS.items() if lib else ():
        try:
            for name, signature in symbols.items():
                function = getattr(lib, name)
                function.restype = codes[signature[0]]
                function.argtypes = [codes[code] for code in signature[1:]]
        except AttributeError:
            continue
        bound[group] = lib
    _lib, _evp = bound["bignum"], bound["ed25519"]
    return _lib


def _to_bn(lib, value: int):
    raw = value.to_bytes((value.bit_length() + 7) // 8, "big")
    return lib.BN_bin2bn(raw, len(raw), None)


def modexp(base: int, exp: int, mod: int, secret: bool) -> int:
    """``pow(base, exp, mod)``.  ``secret`` selects the constant-time
    exponentiation and wipes every operand's BIGNUM before it is freed
    (private exponents, prime factors, prime candidates)."""
    lib = _lib if _lib is not None else _bind()
    if not lib or mod < 3 or not mod & 1 or base < 0 or exp < 0:
        return pow(base, exp, mod)
    from ctypes import create_string_buffer  # loaded by _bind

    free = lib.BN_clear_free if secret else lib.BN_free
    exp_mont = lib.BN_mod_exp_mont_consttime if secret else lib.BN_mod_exp_mont
    size = (mod.bit_length() + 7) // 8
    out = create_string_buffer(size)
    ctx = lib.BN_CTX_new()
    nums = [lib.BN_new(), _to_bn(lib, base), _to_bn(lib, exp), _to_bn(lib, mod)]
    try:
        if not (
            ctx
            and all(nums)
            and exp_mont(*nums, ctx, None)
            and lib.BN_bn2binpad(nums[0], out, size) == size
        ):
            lib.ERR_clear_error()
            raise SignatureError("OpenSSL modular exponentiation failed")
        return int.from_bytes(out.raw, "big")
    finally:
        for num in nums:
            free(num)  # both free functions ignore NULL
        lib.BN_CTX_free(ctx)
