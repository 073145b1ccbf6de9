"""Exact decimal digits of float64 arrays, and the text layouts built on them.

Three renderings, each byte-equal to Python's own formatting of the same
doubles: ``"%.17e"`` (the Touchstone writer), ``repr`` (the CSV writers:
the shortest string that reads back as the same double) and ``"%.2f"``
(SVG pixel coordinates).  Every digit is decided exactly: a product with a
power of ten is carried as its rounded double plus the exact rounding error
(Dekker's TwoProduct), with 10**k held as an exact double-double.  A row
holding a value whose digits this cannot decide is formatted by Python.

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
