"""``repr`` of every entry of a float64 array, computed a whole array at a time.

The digits are Schubfach's (R. Giulietti, "The Schubfach way to render
doubles", 2020, as in OpenJDK's ``DoubleToDecimal``): the shortest decimal
that reads back as the value, and of two such the one nearer to it, on a tie
the even one. That is the decimal CPython's ``repr`` writes. The text is laid
out by ``repr``'s rules: plain notation while the decimal point falls at most
4 places left of the first digit and at most 16 right of it, else
``d.ddde±XX``. Every step is integer arithmetic on uint64 arrays, so no
result depends on the platform's floating point, and each row of text is
built as four 8-byte words. NaN, infinities, zeros and subnormal numbers are
rare in data and go to ``repr`` itself.

Every constant operand is a numpy uint64 made once: numpy applies one to a
uint64 array faster than a Python int, and the result stays uint64 in numpy
1 and 2 alike (mixed with an int64 array, a uint64 one becomes float64).
"""

from __future__ import annotations

import functools

import numpy as np

_U = np.uint64
_1, _2, _8, _10, _16, _20, _32, _52, _56, _63 = map(_U, (1, 2, 8, 10, 16, 20, 32, 52, 56, 63))
_100, _103, _10K, _10486, _E8, _E16 = map(_U, (100, 103, 10_000, 10_486, 10**8, 10**16))
_LOW32, _LOW52, _LOW63, _BIT52 = map(_U, (2**32 - 1, 2**52 - 1, 2**63 - 1, 2**52))
_ONE_BITS, _INF_BITS = _U(0x3FF << 52), _U(0x7FF << 52)  # the bits of 1.0 and of infinity
_ZERO, _MINUS, _PLUS, _E = map(_U, b"0-+e")
_ZEROS, _SPACES, _DOTS = _U(0x3030303030303030), _U(0x2020202020202020), _U(0x2E2E2E2E2E2E2E2E)
_ZERO_POINT = _U(0x303030302E30)  # "0.000" in memory order
_LANES32, _LANES16 = _U(0x0000007F0000007F), _U(0x000F000F000F000F)  # a quotient's bits in each lane
_K_MIN, _K_MAX = -324, 292  # the decimal exponents the scaling of a normal double can take
# A row of text is 4 words, 32 bytes, and the longest repr has 24 characters.
# Column b of the masks keeps a row's first b bytes.
_MASKS = np.array([[((1 << 8 * b) - 1) >> 64 * w & (2**64 - 1) for b in range(34)] for w in range(4)], dtype=_U)


@functools.cache
def _pow10_table() -> tuple[np.ndarray, ...]:
    """For each k in [-324, 292], g = floor(10**-k / 2**r) + 1 with 2**125 <= g - 1 < 2**126,
    as the 32-bit halves of its high and of its low 63 bits, then its high 63 bits whole."""
    g = []
    for k in range(_K_MIN, _K_MAX + 1):
        p = 10 ** abs(k)
        if k <= 0:
            r = p.bit_length() - 126
            g.append((p >> r if r >= 0 else p << -r) + 1)
        else:
            g.append((1 << (p.bit_length() + 125)) // p + 1)
    parts = ((95, 2**32 - 1), (63, 2**32 - 1), (32, 2**31 - 1), (0, 2**32 - 1), (63, 2**63 - 1))
    return tuple(np.array([(v >> shift) & mask for v in g], dtype=_U) for shift, mask in parts)


def _mul_high(ah, al, bh, bl):
    """The high 64 bits of the 128-bit products a * b, from the 32-bit halves of a and b."""
    lh, hl = al * bh, ah * bl
    mid = ((al * bl) >> _32) + (lh & _LOW32) + (hl & _LOW32)
    return ah * bh + (lh >> _32) + (hl >> _32) + (mid >> _32)


def _round_to_odd(g, cp):
    """floor(g * cp / 2**127), its lowest bit set when the quotient is inexact (Schubfach's rop)."""
    g1h, g1l, g0h, g0l, g1 = g
    cph, cpl = cp >> _32, cp & _LOW32
    z = ((g1 * cp) >> _1) + _mul_high(g0h, g0l, cph, cpl)
    return (_mul_high(g1h, g1l, cph, cpl) + (z >> _63)) | (((z & _LOW63) + _LOW63) >> _63)


def _shortest(magnitude):
    """The shortest decimal f * 10**k of each positive normal double's bits, f of 16 or 17 digits."""
    t = magnitude & _LOW52
    bq = (magnitude >> _52).astype(np.int64)
    q = bq - 1075
    c = t | _BIT52
    irregular = (t == 0) & (bq > 1)  # a power of two: the gap below it is half the gap above
    # floor(log10(2**q)), or floor(log10(3/4 * 2**q)) for a power of two; then floor(log2(10**-k))
    k = (q * 661_971_961_083 - irregular * 274_743_187_321) >> 41
    h = (q + ((-k * 913_124_641_741) >> 38) + 2).astype(_U)
    g = tuple(column.take(k - _K_MIN) for column in _pow10_table())
    cb = c << _2
    # the value and the two ends of the interval that rounds to it, scaled by 4 * 10**-k
    vb, vbl, vbr = (_round_to_odd(g, cp << h) for cp in (cb, cb - _2 + irregular, cb + _2))
    odd = c & _1  # an odd significand's halfway points round away from it
    vbl += odd
    vbr -= odd
    s = vb >> _2
    sp10 = s // _10 * _10
    tp10 = sp10 + _10
    upin, wpin = vbl <= sp10 << _2, tp10 << _2 <= vbr
    uin, win = vbl <= s << _2, (s + _1) << _2 <= vbr
    mid = (s << _2) + _2
    # one digit fewer when exactly one of sp10, tp10 lies in the interval; else s or s + 1,
    # whichever lies in it, and of both the nearer, on a tie the even one
    up = ~uin | (win & ((vb > mid) | ((vb == mid) & (s & _1).astype(bool))))
    return np.where(upin != wpin, np.where(upin, sp10, tp10), s + up), k


def _digits8(x):
    """The ASCII digits of each x < 10**8, zero-padded to 8, as a word whose first byte is the first digit."""
    hi = x // _10K
    v = hi | ((x - hi * _10K) << _32)
    q = ((v * _10486) >> _20) & _LANES32  # v // 100 in each 32-bit lane
    w = q | ((v - q * _100) << _16)
    q = ((w * _103) >> _10) & _LANES16  # w // 10 in each 16-bit lane
    return (q | ((w - q * _10) << _8)) + _ZEROS


def _below(n_bytes):
    """The 4 words of each row that mask its first ``n_bytes`` bytes, as a (4, n) array."""
    return _MASKS.take(n_bytes, axis=1)


def _later(words, n_bytes):
    """The (4, n) ``words`` of each row with its bytes moved ``n_bytes`` (0 to 7) places later."""
    bits = (8 * n_bytes).astype(_U)
    out = words << bits
    out[1:] |= (words[:-1] >> _1) >> (_63 - bits)
    return out


def _n_bytes(words):
    """The bytes of each word up to its last one that is not 0 (0 for a word of 0);
    no byte of ``words`` is above 15, so the float conversion keeps the top bit."""
    return (np.frexp(words.astype(np.float64))[1] + 7) // 8


def repr_floats(values: np.ndarray) -> list[str]:
    """``list(map(repr, values.tolist()))`` for a 1-D float64 array."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    bits = values.view(_U)
    magnitude = bits & _LOW63
    special = (magnitude < _BIT52) | (magnitude >= _INF_BITS)  # zero, subnormal, inf, NaN
    f, k = _shortest(np.where(special, _ONE_BITS, magnitude))  # 1.0 stands in for them
    short = f < _E16
    f = np.where(short, f * _10, f)  # 17 digits, the first of them in the place 10**(decpt - 1)
    decpt = k + 17 - short
    lead, rest = np.divmod(f, _E16)
    a, b = _digits8(np.stack(np.divmod(rest, _E8)))
    zeros_a, zeros_b = a ^ _ZEROS, b ^ _ZEROS  # 0 bytes where the digit is "0"
    n_digits = 1 + np.where(zeros_b != 0, 8 + _n_bytes(zeros_b), _n_bytes(zeros_a))
    text = np.zeros((4, values.size), dtype=_U)  # each row of text as 4 words, one row per column
    text[0] = (lead + _ZERO) | (a << _8)
    text[1] = (a >> _56) | (b << _8)
    text[2] = b >> _56

    negative = (bits >> _63).astype(np.int64)
    exp = (decpt <= -4) | (decpt > 16)
    fraction = ~exp & (decpt <= 0)  # "0.", then -decpt zeros, come before the digits
    # the point's place among the digits (32: none); the digits from there move one byte later
    point = np.where(exp, np.where(n_digits > 1, 1, 32), np.where(fraction, 32, decpt))
    below = _below(point)
    high = text & ~below
    text &= below
    text[1:] |= high[:-1] >> _56
    text |= (high << _8) | ((_below(point + 1) ^ below) & _DOTS)
    lead_zeros = np.where(fraction, 2 - decpt, 0)  # "0." and the zeros after it
    first = negative + lead_zeros
    text = _later(text, first)
    prefix = (_MASKS[0].take(lead_zeros) & _ZERO_POINT) << (8 * negative).astype(_U)
    text[0] |= prefix | (negative.astype(_U) * _MINUS)
    end = np.where(fraction, first + n_digits,
                   negative + np.where(exp, n_digits + (n_digits > 1), decpt + 1 + np.maximum(n_digits - decpt, 1)))
    rows = np.flatnonzero(exp)
    if rows.size:  # "e", the sign and 2 or 3 digits after the mantissa
        x = decpt[rows] - 1
        ax = np.abs(x).astype(_U)
        wide = ax >= _100
        digits = (ax // _100 + _ZERO) | ((ax // _10 % _10 + _ZERO) << _8) | ((ax % _10 + _ZERO) << _16)
        suffix = _E | (np.where(x < 0, _MINUS, _PLUS) << _8) | (np.where(wide, digits, digits >> _8) << _16)
        at = end[rows]
        text[:, rows] &= _below(at)
        flat = text.reshape(-1)
        shift = (8 * (at % 8)).astype(_U)
        flat[at // 8 * values.size + rows] |= suffix << shift
        flat[(at // 8 + 1) * values.size + rows] |= (suffix >> _1) >> (_63 - shift)
        end[rows] = at + 4 + wide
    keep = _below(end)
    text = (text & keep) | (_SPACES & ~keep)
    out = str(np.ascontiguousarray(text.T, dtype="<u8").data, "ascii").split()
    for i in np.flatnonzero(special).tolist():
        out[i] = repr(values[i].item())
    return out
