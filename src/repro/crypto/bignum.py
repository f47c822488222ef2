"""Modular exponentiation on OpenSSL's bignum library.

:func:`modexp` computes ``pow(base, exp, mod)`` with libcrypto's Montgomery
exponentiation, reached through the ``_hashlib`` extension module that the
interpreter already links against it: ``dlsym`` on that module finds the
very libcrypto ``hashlib`` uses, so no second copy of OpenSSL is loaded.
The symbols (and ``ctypes`` itself) are bound on the first call, not at
import.

Built-in ``pow`` remains the path where ``_hashlib`` or the symbols cannot be
loaded, and for the arguments Montgomery arithmetic refuses (a modulus that
is even or below 3, a negative base or exponent), which a hostile wire key
can carry.  Both paths return the same integer.
"""

from __future__ import annotations

from repro.errors import SignatureError

#: The bound libcrypto; ``None`` until the first call, ``False`` when absent.
_lib = None


def _bind():
    # ctypes too is imported here: it adds about 0.4 MB to a process, and
    # one that never exponentiates (an Ed25519-only node) should not pay it
    global _lib
    try:
        import ctypes

        import _hashlib

        lib = ctypes.CDLL(_hashlib.__file__)
        ptr, num, buf = ctypes.c_void_p, ctypes.c_int, ctypes.c_char_p
        for name, restype, argtypes in (
            ("BN_CTX_new", ptr, []),
            ("BN_CTX_free", None, [ptr]),
            ("BN_new", ptr, []),
            ("BN_free", None, [ptr]),
            ("BN_clear_free", None, [ptr]),
            ("BN_bin2bn", ptr, [buf, num, ptr]),
            ("BN_bn2binpad", num, [ptr, buf, num]),
            ("BN_mod_exp_mont", num, [ptr] * 6),
            ("BN_mod_exp_mont_consttime", num, [ptr] * 6),
            ("ERR_clear_error", None, []),
            ("ERR_peek_error", ctypes.c_ulong, []),
        ):
            function = getattr(lib, name)
            function.restype, function.argtypes = restype, argtypes
    except (ImportError, OSError, AttributeError):
        lib = False
    _lib = lib
    return lib


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
