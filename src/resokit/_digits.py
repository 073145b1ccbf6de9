"""Exact decimal digits of float64 arrays, the text layouts built on them,
and the reading of ``"%.17e"`` text back.

Three renderings, each byte-equal to Python's own formatting of the same
doubles: ``"%.17e"`` (the Touchstone writer), ``repr`` (the CSV writers:
the shortest string that reads back as the same double) and ``"%.2f"``
(SVG pixel coordinates).  Every digit is decided exactly: a product with a
power of ten is carried as its rounded double plus the exact rounding error
(Dekker's TwoProduct), with 10**k held as an exact double-double.  A row
holding a value whose digits this cannot decide is formatted by Python.
The reader, ``parse_e17``, decides each ``"%.17e"``-shaped token the same
way in reverse (Clinger 1990): a candidate double is accepted when the
exact residual of the 18-digit integer against it lies inside half an ulp.

The shortest-digit search follows Ryu (Adams 2018, PLDI), on a 17-digit
scaled integer: the fewest digits whose correctly rounded candidate lies
strictly inside the half-ulp interval around the value.
"""

from __future__ import annotations

import numpy as np


def _veltkamp(a):
    """Split a into hi + lo, each of at most 26 significant bits."""
    c = 134217729.0 * a  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


# 10**k = _POW10[k] + _POW10_TAIL[k] exactly for k = 0..44: 5**k has at most
# 103 significant bits, so the tail fits a double (and is 0 up to k = 22)
_POW10 = np.array([float(10**k) for k in range(45)])
_POW10_TAIL = np.array([float(10**k - int(float(10**k))) for k in range(45)])
_POW10_HI, _POW10_LO = _veltkamp(_POW10)
_POW10_INT = 10 ** np.arange(19, dtype=np.int64)
# rows rendered per byte matrix: one matrix for a whole 2001-point file
# took the Touchstone writer's peak allocation from 1.8 MB (row by row with
# %) to 2.9 MB; blocks of 512 rows hold it at 1.5 MB and run no slower
_BLOCK_ROWS = 512
# bound on the rounding error of a scaled residual or half-ulp in units of
# the last of 17 digits (about 2**-49 at worst): closer calls go to Python
_MARGIN = 2.0**-40


def _scaled(a: np.ndarray, n: int, kmax: int):
    """The n-digit decimal integers nearest to the positive values a.

    Returns (d, r, e, ok): e is the decimal exponent with
    10**(n-1) <= a * 10**k < 10**n for k = n - 1 - e, d the nearest integer
    to a * 10**k (ties to even) and r = a * 10**k - d, exact for k <= 22 and
    within _MARGIN beyond.  ok is False where no k in [0, kmax] fits.
    """
    e = np.clip(np.floor(np.log10(a)), n - 1 - kmax, n - 1).astype(np.intp)
    a_hi, a_lo = _veltkamp(a)
    lo_bound, hi_bound = 10.0 ** (n - 1), 10.0**n
    for _ in range(3):  # log10 is off by at most one
        k = n - 1 - e
        b_hi, b_lo = _POW10_HI[k], _POW10_LO[k]
        p = a * _POW10[k]
        w = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo + a * _POW10_TAIL[k]
        # rounding is monotonic, so p alone decides unless it lands on a bound
        low = (p < lo_bound) | ((p == lo_bound) & (w < 0.0))
        high = (p > hi_bound) | ((p == hi_bound) & (w >= 0.0))
        if not (low.any() or high.any()):
            break
        e = np.clip(e + high - low, n - 1 - kmax, n - 1)
    # p >= 10**(n-1) > 2**53 is an even integer, so rounding p + w half to
    # even is rounding w alone
    rw = np.rint(w)
    d = p.astype(np.int64) + rw.astype(np.int64)
    ok = ~(low | high) & (d < _POW10_INT[n])
    return d, w - rw, e, ok


def _ascii_digits(d: np.ndarray, n: int) -> np.ndarray:
    """The n decimal digits of each d in [0, 10**n), n <= 18, as an
    (len(d), n) array of ASCII codes.

    d splits into two halves below 10**9 whose digits come from float64
    arithmetic, faster than int64 division: for an integer v < 10**9,
    floor(v * 0.1) is v // 10 exactly, since the double 0.1 exceeds 1/10 by
    too little to carry v / 10 to the next integer.
    """
    v = np.concatenate(np.divmod(d, 10**9)).astype(np.float64)
    digits = np.empty((9, v.size), dtype=np.uint8)
    for j in range(8, -1, -1):
        q = np.floor(v * 0.1)
        digits[j] = v - 10.0 * q
        v = q
    digits += 48  # "0" + digit
    return np.concatenate([digits[:, :d.size], digits[:, d.size:]])[18 - n:].T


def _format_rows(cells: np.ndarray, render, sep: str, percent: str) -> str:
    """Each row of cells as fields joined by sep, one newline-terminated
    line per row.

    render(block) returns a block's fields as an (n, ncols, width) byte
    matrix, NUL-padded, with the last byte of each field left for the
    separator, and a mask of the values it could decide; rows holding an
    undecided value are formatted by ``percent``.
    """
    texts, decided = [], []
    for i in range(0, len(cells), _BLOCK_ROWS):
        buf, ok = render(cells[i:i + _BLOCK_ROWS])
        ok = ok.all(axis=1)
        buf[:, :-1, -1] = ord(sep)
        buf[:, -1, -1] = ord("\n")
        buf[~ok] = 0
        texts.append(buf.tobytes().translate(None, b"\0").decode("ascii"))
        decided.append(ok)
    text = "".join(texts)
    decided = np.concatenate(decided) if decided else np.ones(0, dtype=bool)
    if decided.all():
        return text
    row = sep.join([percent] * cells.shape[1]) + "\n"
    lines = iter(text.splitlines(keepends=True))
    return "".join(next(lines) if ok else row % tuple(c)
                   for ok, c in zip(decided.tolist(), cells.tolist()))


def _render_e17(rows: np.ndarray):
    """``"%.17e"`` fields of the values with 1e-5 <= |x| < 1e18."""
    x = rows.ravel()
    mag = np.abs(x)
    ok = (mag >= 1e-5) & (mag < 1e18)
    d, _, e, in_range = _scaled(np.where(ok, mag, 1.0), 18, 22)
    digits = _ascii_digits(d, 18)
    buf = np.zeros((x.size, 25), dtype=np.uint8)
    buf[:, 0] = np.where(x < 0.0, ord("-"), 0)
    buf[:, 1] = digits[:, 0]
    buf[:, 2] = ord(".")
    buf[:, 3:20] = digits[:, 1:]
    buf[:, 20] = ord("e")
    buf[:, 21] = np.where(e < 0, ord("-"), ord("+"))
    e = np.abs(e)
    buf[:, 22] = 48 + e // 10
    buf[:, 23] = 48 + e % 10
    return buf.reshape(*rows.shape, 25), (ok & in_range).reshape(rows.shape)


def format_e17(cells: np.ndarray) -> str:
    """Each row of cells as ``"%.17e"`` fields joined by spaces, one
    newline-terminated line per row."""
    return _format_rows(cells, _render_e17, " ", "%.17e")


# "0." and the zeros that open a fixed-notation repr below 1, by 1 - decpt
_LEADING = np.array([[0, 0, 0, 0, 0], *(list(b"0.000"[:i]) + [0] * (5 - i) for i in range(2, 6))],
                    dtype=np.uint8)


def _shortest(d17: np.ndarray, r: np.ndarray, half_ulp: np.ndarray):
    """The fewest digits whose nearest candidate lies strictly inside the
    half-ulp interval, for values scaled to d17 + r with 10**16 <= d17 <
    10**17 and half_ulp in units of d17.

    Returns (digits, n, ok): the candidate as a 17-digit integer (10**17 on
    a carry into the next decade), its significant digit count, and False
    where a tie or a distance within rounding of the bound leaves it open.
    17 digits always round-trip, since half_ulp > 0.55 > |r|.
    """
    inside, outside = half_ulp - _MARGIN, half_ulp + _MARGIN
    # 16 digits: the nearest multiple of 10
    rem = d17 % 10
    up = (rem > 5) | ((rem == 5) & (r > 0.0))
    shift = np.where(up, 10 - rem, -rem)
    dist = np.abs(shift - r)
    accept = dist < inside
    ok = ((dist <= inside) | (dist >= outside)) & ~((rem == 5) & (np.abs(r) <= _MARGIN)
                                                     & (dist < outside))
    shift[~accept] = 0
    n = np.where(accept, 16, 17)
    # fewer: half_ulp < 11.2, so only a d17 within 11 of a multiple of 100
    # can be; that multiple is then the nearest multiple of 10**j for every
    # j up to 2 plus its trailing zeros, all at one distance
    c = d17 + 12
    near = np.flatnonzero(c % 100 < 24)
    if near.size:
        q = c[near] // 100
        offset = q * 100 - d17[near]
        dist = np.abs(offset - r[near])
        j = np.full(near.size, 2)
        zeros = q % 10 == 0
        while zeros.any() and j.max() < 16:
            j += zeros
            q //= 10
            zeros &= q % 10 == 0
        accept = dist < inside[near]
        ok[near] &= (dist <= inside[near]) | (dist >= outside[near])
        shift[near[accept]] = offset[accept]
        n[near[accept]] = 17 - j[accept]
    return d17 + shift, n, ok


def _render_repr(rows: np.ndarray):
    """``repr`` fields of the normal values with 1e-28 <= |x| < 1e17 whose
    mantissa is not a power of two."""
    x = rows.ravel()
    mag = np.abs(x)
    ok = (mag >= 1e-28) & (mag < 1e17)
    mag = np.where(ok, mag, 3.0)
    # the half-ulp interval is symmetric unless the mantissa is a power of two
    frac, exp2 = np.frexp(mag)
    ok &= frac != 0.5
    d17, r, e, in_range = _scaled(mag, 17, 44)
    ok &= in_range & (np.abs(r) < 0.5 - _MARGIN)  # no tie at 17 digits
    # half an ulp, 2**(exp2 - 54), scaled by 10**k as d17 is, to within one rounding
    digits, n, decided = _shortest(d17, r, np.ldexp(_POW10[16 - e], exp2 - 54))
    # a carry to 10**17 is the single digit 1 of the next decade
    carry = digits == _POW10_INT[17]
    digits[carry] = _POW10_INT[16]
    n[carry] = 1
    decpt = e + 1 + carry  # the value is 0.DIGITS * 10**decpt
    buf = _layout_repr(x < 0.0, _ascii_digits(digits, 17), n, decpt)
    return buf.reshape(*rows.shape, buf.shape[1]), (ok & decided).reshape(rows.shape)


def _layout_repr(neg, digits, n, decpt):
    """repr's layout of sign, significant digits and decimal point position:
    fixed notation for -4 < decpt <= 16, exponent notation otherwise.

    A field is the sign, "0.000" or the part of it that opens a value below
    1, the 17 digits with a decimal point slot after each digit position
    where some value of the block has its point, 4 bytes of exponent and the
    separator; a byte the value does not use stays NUL.
    """
    fixed = (decpt > -4) & (decpt <= 16)
    small = fixed & (decpt <= 0)
    large = fixed & (decpt > 0)
    # digits shown: all n, and in fixed notation above 1, up to one past the point
    shown = np.where(large, np.maximum(n, decpt + 1), n)
    digits = digits * (np.arange(17) < shown[:, None])
    # the digit position the decimal point follows, or -1
    point = np.where(large, decpt - 1, np.where(~fixed & (n > 1), 0, -1))
    slots = np.flatnonzero(np.bincount(point + 1, minlength=18)[1:]).tolist()
    buf = np.zeros((neg.size, 28 + len(slots)), dtype=np.uint8)
    buf[:, 0] = np.where(neg, ord("-"), 0)
    buf[:, 1:6] = _LEADING[np.where(small, 1 - decpt, 0)]
    col = start = 0
    for slot in slots:
        buf[:, 6 + col:7 + col + slot - start] = digits[:, start:slot + 1]
        col += slot + 1 - start
        buf[:, 6 + col] = np.where(point == slot, ord("."), 0)
        col += 1
        start = slot + 1
    buf[:, 6 + col:23 + col - start] = digits[:, start:]
    sci = ~fixed
    expo = decpt - 1
    buf[:, -5] = np.where(sci, ord("e"), 0)
    buf[:, -4] = np.where(sci, np.where(expo < 0, ord("-"), ord("+")), 0)
    expo = np.abs(expo)
    buf[:, -3] = np.where(sci, 48 + expo // 10, 0)
    buf[:, -2] = np.where(sci, 48 + expo % 10, 0)
    return buf


def format_repr(cells: np.ndarray) -> str:
    """Each row of cells as ``repr`` fields joined by commas, one
    newline-terminated line per row."""
    return _format_rows(cells, _render_repr, ",", "%r")


def format_points(x: np.ndarray, y: np.ndarray) -> str:
    """``"%.2f,%.2f" % (x[i], y[i])`` for each i, joined by spaces.

    100 * |v| is rounded to an integer exactly: TwoProduct gives it as
    p + err, and only a p exactly halfway between integers needs err.  Its
    sign decides; where it is 0 the value is a decimal tie, which rounds to
    even as in %.2f.
    """
    v = np.column_stack([x, y]).ravel()
    mag = np.abs(v)
    if not (mag < 2.0**40).all():  # NaN too: Python's % formats them all
        return " ".join(map("%.2f,%.2f".__mod__, zip(x.tolist(), y.tolist())))
    p = mag * 100.0
    a_hi, a_lo = _veltkamp(mag)
    err = (a_hi * 100.0 - p) + a_lo * 100.0
    q = np.rint(p)
    q = np.where((np.abs(p - q) == 0.5) & (err != 0.0), p + np.copysign(0.5, err), q)
    cents = q.astype(np.int64)
    whole = cents // 100
    width = len(str(int(whole.max()))) if whole.size else 1
    buf = np.zeros((v.size, width + 5), dtype=np.uint8)
    buf[:, 0] = np.where(np.signbit(v), ord("-"), 0)
    digits = _ascii_digits(whole, width)
    # leading zeros of the integer part are dropped, its units digit kept
    digits[:, :-1][whole[:, None] < _POW10_INT[width - 1:0:-1]] = 0
    buf[:, 1:width + 1] = digits
    buf[:, width + 1] = ord(".")
    buf[:, width + 2:width + 4] = _ascii_digits(cents - 100 * whole, 2)
    buf[0::2, -1] = ord(",")
    buf[1::2, -1] = ord(" ")
    return buf.tobytes().translate(None, b"\0")[:-1].decode("ascii")



# The 32 bytes from 28 before a token's end: the sign or a separator at byte
# 4 (checked apart), then a "%.17e" field, "0" standing for any digit, and 4
# bytes past the token.  As little-endian words, each is XORed with the
# shape and masked to the bits that must match ("e" or "E"; "+" up to bits 1
# and 2, which the exponent table checks); adding the limit to a masked
# byte's low 7 bits sets its high bit where a digit exceeds 9 or another
# byte differs.
_E17_WINDOW = "     0.00000000000000000e+00    "


def _window_words(byte) -> np.ndarray:
    """_E17_WINDOW mapped byte by byte, as a column of 4 words."""
    return np.frombuffer(bytes(map(byte, _E17_WINDOW)), dtype="<u8").reshape(4, 1)


_SHAPE = _window_words(lambda c: 0 if c == " " else ord(c))
_KEEP = _window_words(lambda c: {" ": 0, "e": 0xDF, "+": 0xF9}.get(c, 0xFF))
_LIMIT = _window_words(lambda c: {" ": 0, "0": 0x76}.get(c, 0x7F))
_HIGH = _KEEP & np.uint64(0x8080808080808080)
_SEVEN_BITS = np.uint64(0x7F7F7F7F7F7F7F7F)
# the byte before a token of 23 or 24 characters: a separator, or its sign
_LEADS = np.zeros(256, dtype=bool)
_LEADS[[9, 10, 11, 12, 13, 28, 29, 30, 31, 32, 43, 45]] = True


def _divisors() -> np.ndarray:
    """10**(17 - e) for each exponent e by its code: bits 1 and 2 of its
    sign's byte (1 for "+", 2 for "-"), plus 4 times its second digit's low
    nibble and 128 times its first's; NaN outside -5..17 or for another sign."""
    code = np.arange(2048)
    sign = code & 3
    e = ((code >> 7) * 10 + (code >> 2 & 15)) * np.where(sign == 2, -1, 1)
    valid = ((sign == 1) | (sign == 2)) & (e >= -5) & (e <= 17)
    return np.where(valid, _POW10[np.clip(17 - e, 0, 44)], np.nan)


_DIVISOR = _divisors()
_DIVISOR_HI, _DIVISOR_LO = _veltkamp(_DIVISOR)
# tokens decoded per pass: the temporaries stay small enough for the
# allocator to reuse, where larger ones cost a page fault per 4 KB
_DECODE_BLOCK = 2048


def _eight_digits(w: np.ndarray) -> np.ndarray:
    """The numbers spelled by little-endian words of 8 ASCII digits, first
    digit most significant: adjacent digits, then pairs, then quads are
    combined by multiplying within the word (Lemire's SWAR reduction)."""
    w = w - np.uint64(0x3030303030303030)
    w = w * np.uint64(10) + (w >> np.uint64(8))
    mask = np.uint64(0x000000FF000000FF)
    return ((w & mask) * np.uint64(100 + (1000000 << 32))
            + ((w >> np.uint64(16)) & mask) * np.uint64(1 + (10000 << 32))) >> np.uint64(32)


def parse_e17(text: np.ndarray, starts: np.ndarray, ends: np.ndarray):
    """``float(token)`` of each token ``text[starts[i]:ends[i]]`` shaped like
    ``"%.17e"`` output, ``[+-]d.ddddddddddddddddd[eE][+-]dd``, with a
    decimal exponent of -5..17; returns (values, decided).

    text holds ASCII bytes, and the tokens are in order.  The 18 digits
    make an integer D that is exact as a double-double, 10**m (m = 17 -
    exponent <= 22) is an exact double, and the value is D / 10**m (Clinger
    1990).  The quotient q of the doubles is within 1.5 ulps of it, so the
    residual D - q * 10**m is exact with TwoProduct; x = q + residual / 10**m
    is accepted when its exact rounding error plus a bound on the
    division's stays below half the spacing of doubles next to x.  A token
    of another shape, within 4 bytes of the text's end or near a tie is
    left undecided, and its value is meaningless.
    """
    values = np.zeros(ends.size)
    decided = np.zeros(ends.size, dtype=bool)
    first, stop = np.searchsorted(ends, [28, text.size - 3])
    length = ends - starts
    sized = (length >= 23) & (length <= 24)  # with and without a sign
    windows = np.ndarray((max(text.size - 31, 0),), dtype="V32", buffer=text, strides=(1,))
    for i in range(first, stop, _DECODE_BLOCK):
        j = min(i + _DECODE_BLOCK, stop)
        if sized[i:j].any():  # a block of other spellings is left undecided
            values[i:j], decided[i:j] = _decode_e17(windows[ends[i:j] - 28], sized[i:j])
    return values, decided


def _decode_e17(windows: np.ndarray, sized: np.ndarray):
    w = np.ascontiguousarray(windows.view("<u8").reshape(-1, 4).T)
    bad = (w ^ _SHAPE) & _KEEP
    bad = (((bad & _SEVEN_BITS) + _LIMIT) | bad) & _HIGH
    lead = (w[0] >> np.uint64(32)) & np.uint64(0xFF)
    ok = ~bad.any(axis=0) & sized & _LEADS[lead]
    code = (w[3] >> np.uint64(9)) & np.uint64(0x78783)
    code = ((code & np.uint64(0x7FF)) | (code >> np.uint64(13))).view(np.int64)
    p, p_hi, p_lo = _DIVISOR[code], _DIVISOR_HI[code], _DIVISOR_LO[code]
    # "000000" and the first two digits
    w[0] = (((w[0] & np.uint64(0xFF << 40)) << np.uint64(8)) | (w[0] & np.uint64(0xFF << 56))
            | np.uint64(0x303030303030))
    digits = _eight_digits(w[:3]).view(np.int64)
    # D = hi + lo: hi needs at most 52 bits, and Fast2Sum gives D = dh + dl
    hi = (digits[0] * 1e8 + digits[1]) * 1e8
    lo = digits[2].astype(np.float64)
    dh = hi + lo
    dl = lo - (dh - hi)
    q = dh / p
    # D - q * 10**m: each partial sum is a multiple of the product's last
    # bit and below 2**53 of them, so none rounds
    q_hi, q_lo = _veltkamp(q)
    prod = q * p
    err = ((q_hi * p_hi - prod) + q_hi * p_lo + q_lo * p_hi) + q_lo * p_lo
    t = (((dh - prod) - err) + dl) / p
    x = q + t
    # |x - D / 10**m| is at most |(q - x) + t| (Fast2Sum: exact) plus the
    # division's error, below |t| * 2**-53; 2**-50 also covers this sum's rounding
    off = np.abs((q - x) + t) + np.abs(t) * 2.0**-50
    bits = x.view(np.uint64)
    # half the smaller spacing of doubles next to x (below a power of two)
    half = (((bits - np.uint64(1)) & np.uint64(0x7FF << 52)) - np.uint64(53 << 52)).view(np.float64)
    ok &= off < half
    bits |= (lead == 45).astype(np.uint64) << np.uint64(63)
    return x, ok
