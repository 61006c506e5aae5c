"""CSV rows of float64 tables, each field the bytes of ``'%.17g' % x``.

:func:`csv_rows` formats a whole 2-D block in numpy and gives the same
bytes as formatting each double x with ``'%.17g' % x`` (the text of
``harness._fmt``), joined by commas and newlines.

Method
------
1. k = floor(log10|x|), an estimate that may be off by one next to a
   power of ten.
2. y = |x| * 10**(16 - k) in double-double: 10**(16 - k) is hi + lo, each
   rounded from exact integer arithmetic, and |x| * hi is Dekker's exact
   product prod + err.  y = prod + tail with tail = err + |x| * lo, and
   its error is below 4e-15 for y < 10**17:

   - |x| * ulp(lo) / 2 <= y * 2**-106 < 1.3e-15 from the rounding of lo;
   - ulp(|x| * lo) / 2 <= 2**-50, as |x * lo| <= y * 2**-53 < 12;
   - ulp(tail) / 2 <= 2**-49, as |tail| < 20 with |err| <= ulp(prod) / 2
     <= 8.

3. The 17 digits are D = round(y) = floor(y) + (frac(y) > 1/2): the
   correctly rounded digits '%.17g' prints, unless frac(y) lies within
   ``_TIE_GUARD`` = 1e-12 of 1/2, which covers the exact ties ('%.17g'
   breaks them to even) and every value the error bound cannot place.
   prod is an integer (y > 2**53), so floor(y) = prod + floor(tail) and
   frac(y) = frac(tail) exactly.
4. Each value fills four little-endian 64-bit words: the sign, the
   '0.000' prefix of 1e-4 <= |x| < 1 and the first digit; the other 16
   digits, shifted up one byte from the point '%g' puts among them; the
   'e+XX' suffix and the separator.  Bytes '%g' does not print (trailing
   zeros, a point with no digit after it, an unused prefix or suffix) are
   NUL, and one ``bytes.translate`` drops them.

Fallback
--------
A value is formatted by '%.17g' itself unless the fast path proves its
bytes: non-finite values, subnormals and |x| outside [1e-280, 1e280)
(where 10**(16 - k) or a Veltkamp split would leave the normal range),
the near-ties of step 3, and a k off by one (floor(y) below 10**16, or D
reaching 10**17).  A zero prints as '0' or '-0' through the layout of
k = 0 with D = 0.
"""

from __future__ import annotations

from functools import cache

import numpy as np

_FAST_MIN, _FAST_MAX = 1e-280, 1e280
_TIE_GUARD = 1e-12  # 250 times the error bound of y
_K_MIN, _K_MAX = -281, 281  # k of the fast range, one either side for log10
_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp's split into two 26-bit halves
_SEPARATOR = 30  # byte of the separator in the 32-byte field of a value
_WORD = np.dtype("<u8")  # little-endian, so a field's bytes are in text order
_BYTE, _TOP_BYTE = np.uint64(8), np.uint64(56)  # shifts by one byte, to the top byte


def _word(data: bytes) -> int:
    """Up to 8 bytes as a little-endian 64-bit word, NUL-padded."""
    return int.from_bytes(data.ljust(8, b"\0"), "little")


@cache
def _tables() -> dict[str, np.ndarray]:
    """Lookup tables of the fast path.

    Per k from _K_MIN: hi, its Veltkamp halves and lo of 10**(16 - k),
    the first word per sign (sign and prefix), the last word (suffix and
    separator), the digits before the point and the digits at least
    printed.  Per 4-digit group: its ASCII digits and its trailing zeros.
    Per first digit: its byte in the first word.  Per byte m of the 24
    after the first digit, one table per word: the bytes below m, the
    bytes above m, and a point at m (none at m = 18)."""
    t = {name: [] for name in ("hi", "hi_high", "hi_low", "lo", "first", "last", "before",
                               "least")}
    for k in range(_K_MIN, _K_MAX + 1):
        p = 16 - k
        if p >= 0:
            hi = float(10**p)
            lo = float(10**p - int(hi))
        else:
            hi = 1 / 10**-p  # int / int rounds correctly
            a, b = hi.as_integer_ratio()
            lo = (b - a * 10**-p) / (b * 10**-p)
        c = _SPLIT * hi
        hi_high = c - (c - hi)
        if -4 <= k < 0:
            prefix, suffix, before, least = b"0." + b"0" * (-k - 1), b"", 17, 1
        elif 0 <= k <= 16:
            prefix, suffix, before, least = b"", b"", k + 1, k + 1
        else:
            prefix, suffix, before, least = b"", b"e%+03d" % k, 1, 1
        for name, value in (("hi", hi), ("hi_high", hi_high), ("hi_low", hi - hi_high),
                            ("lo", lo), ("before", before), ("least", least),
                            ("first", _word(b"\0" + prefix)),
                            ("last", _word(b"\0" + suffix.ljust(5, b"\0") + b","))):
            t[name].append(value)
    t = {name: np.array(values) for name, values in t.items()}
    t["first"] = np.concatenate([t["first"], t["first"] | ord("-")]).astype(_WORD)
    t["last"] = t["last"].astype(_WORD)
    t["lead"] = np.array([_word(b"\0" * 6 + b"%d" % i) for i in range(10)], _WORD)
    # 16-bit and byte arrays: a few kB each, where int64 temporaries would
    # add to the peak memory of the first run that writes a table
    groups = np.arange(10_000, dtype=np.uint16)
    ascii_digits = np.empty((10_000, 4), np.uint8)
    for j, e in enumerate((1000, 100, 10, 1)):
        ascii_digits[:, j] = groups // e % 10 + ord("0")
    t["ascii"] = ascii_digits.view("<u4").ravel()
    t["zeros"] = sum((groups % e == 0).view(np.uint8) for e in (10, 100, 1000, 10_000))
    for name, masks in (("below", [b"\xff" * m for m in range(18)]),
                        ("above", [b"\0" * (m + 1) + b"\xff" * 24 for m in range(18)]),
                        ("point", [b"\0" * m + b"." for m in range(18)] + [b""])):
        for i in range(3):
            t[f"{name}{i}"] = np.array([_word(mask[8 * i:8 * i + 8]) for mask in masks], _WORD)
    return t


def _digits(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Steps 1-3 on a 1-D float64 array: D (0 for a zero), the row of k in
    the tables, and whether the fast path proved D and k."""
    t = _tables()
    ax = np.abs(x)
    zero = ax == 0.0
    normal = (ax >= _FAST_MIN) & (ax < _FAST_MAX)  # False on nan
    ax = np.where(normal, ax, 1.0)
    row = np.floor(np.log10(ax)).astype(np.intp) - _K_MIN
    hi, hi_high, hi_low = t["hi"][row], t["hi_high"][row], t["hi_low"][row]
    c = _SPLIT * ax
    ax_high = c - (c - ax)
    ax_low = ax - ax_high
    prod = ax * hi
    tail = ((ax_high * hi_high - prod) + ax_high * hi_low + ax_low * hi_high) + ax_low * hi_low
    tail += ax * t["lo"][row]
    whole = np.floor(tail)
    frac = tail - whole
    floor_y = prod.astype(np.int64) + whole.astype(np.int64)
    d = floor_y + (frac > 0.5)
    fast = normal & (floor_y >= 10**16) & (d < 10**17) & (np.abs(frac - 0.5) > _TIE_GUARD)
    d[zero] = 0
    return d, row, fast | zero


def csv_rows(block: np.ndarray) -> bytes:
    """The CSV rows of a 2-D float64 block, fields as '%.17g' prints them."""
    t = _tables()
    x = block.ravel()
    d, row, proved = _digits(x)
    groups = np.empty((x.size, 4), np.int64)
    lead, rest = np.divmod(d, 10**16)
    high8, low8 = np.divmod(rest, 10**8)
    np.divmod(high8, 10**4, out=(groups[:, 0], groups[:, 1]))
    np.divmod(low8, 10**4, out=(groups[:, 2], groups[:, 3]))
    z = t["zeros"][groups]
    significant = 17 - (z[:, 3] + (z[:, 3] == 4) * (z[:, 2] + (z[:, 2] == 4) * (
        z[:, 1] + (z[:, 1] == 4) * z[:, 0])))
    # '%g' drops the zeros after the last nonzero digit, but none before
    # the point, and drops the point when no digit follows it
    kept = np.maximum(significant, t["least"][row]) - 1
    digits = t["ascii"][groups].view(_WORD)
    a = digits[:, 0] & t["below0"][kept]
    b = digits[:, 1] & t["below1"][kept]
    before = t["before"][row]
    m = before - 1  # the point's byte among the 16 digits after the first
    point = np.where(significant > before, m, 18)

    words = np.empty((x.size, 4), _WORD)
    words[:, 0] = t["first"][row + np.signbit(x) * (_K_MAX - _K_MIN + 1)] | t["lead"][lead]
    words[:, 1] = (a & t["below0"][m]) | (a << _BYTE & t["above0"][m]) | t["point0"][point]
    words[:, 2] = ((b & t["below1"][m]) | ((b << _BYTE | a >> _TOP_BYTE) & t["above1"][m])
                   | t["point1"][point])
    words[:, 3] = (b >> _TOP_BYTE & t["above2"][m]) | t["point2"][point] | t["last"][row]
    # the last field of a row ends in a newline, not a comma
    words.reshape(*block.shape, 4)[:, -1, 3] ^= np.uint64((ord(",") ^ ord("\n")) << 48)
    fields = words.view(np.uint8)
    slow = np.flatnonzero(~proved)
    if slow.size:
        text = b"".join((b"%.17g" % v).ljust(_SEPARATOR, b"\0") for v in x[slow].tolist())
        fields[slow, :_SEPARATOR] = np.frombuffer(text, np.uint8).reshape(-1, _SEPARATOR)
    return fields.tobytes().translate(None, b"\0")
