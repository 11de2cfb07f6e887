"""CSV rows built column-wise, with exact '%.17g' text for every number.

Every CSV number is '%.17g' % v: 17 significant digits, which read back to
the same double.  CPython formats one float at a time through its bignum
dtoa; format_17g gives the same bytes for a whole stack in a few numpy
passes.  For 1e-6 < |v| < 1e17 the decimal exponent e of v lies in
[-6, 16], so 10**(16-e) is an exact double and Dekker's error-free product
(Dekker 1971) gives |v| * 10**(16-e) = p + err exactly.  p >= 1e16 > 2**53
is an even integer, so p + rint(err) is the 17-digit decimal rounded half to
even.  It never rounds up to 10**17: no double in that range lies within
half a unit of its 17th digit below a power of ten (the tests check this
exactly), so the exponent needs no carry.

Each value's text is a fixed template of 4-byte words: a lead (the cell's
separator) in bytes 0-1, a sign, "0.000", the 17 digits, a point, the last
16 digits again and an "e-05"/"e-06" suffix.  A table indexed by sign,
exponent and trailing-zero count keeps the bytes %g prints, in a few runs,
so one boolean compaction is cheap.  Zeros take the table too; NaN,
infinities and magnitudes outside the range (the double nearest 1e-6 lies
below 10**-6) are formatted by '%.17g' one at a time into the same layout:
the lead in bytes 0-1, the number from byte 2.

csv_rows lays out whole rows in the spare bytes after each number, so this
module alone knows the layout.
"""

import functools
from collections.abc import Sequence

import numpy as np

# words: lead and sign, "0.000", "000" and the 17 digits (words 2-6), the
# point (word 7), digits 1-16 again (words 8-11), the suffix (word 12)
_TEMPLATE = np.frombuffer(b"  -0.000" + b"0" * 20 + b"   ." + b"0" * 16 + b"e-05", "<u4")
_INT, _POINT = 11, 31  # digit i sits at byte _INT + i, and again (i > 0) at _POINT + i
_CELL = 4 * _TEMPLATE.size  # the spare bytes after a number start here
_ZERO_SLOT = 23  # exponent slots 0-22 are e = -6 .. 16


def _split(a):
    """Dekker's split of a into a 26-bit high part and the rest."""
    t = 134217729.0 * a  # 2**27 + 1
    hi = t - (t - a)
    return hi, a - hi


@functools.cache
def _digit_tables():
    """Built on first use: the 4-digit groups as little-endian ASCII words,
    the trailing-zero count of each group, and the powers 10**(16-e),
    e = -6 .. 16, with their Dekker splits as rows."""
    k = np.arange(10000)
    quads = np.stack([k // 1000, k // 100 % 10, k // 10 % 10, k % 10], axis=1) + ord("0")
    scale = 10.0 ** np.arange(22, -1, -1)
    return (quads.astype(np.uint8).view("<u4").ravel(),
            sum(k % 10**j == 0 for j in range(1, 5)), np.stack([scale, *_split(scale)]))


@functools.cache
def _layout(lead: int, width: int) -> np.ndarray:
    """The template bytes %g keeps after ``lead`` kept bytes, one opaque row
    of ``width`` bytes per (sign, exponent slot, trailing zeros)."""
    sign, slot, zeros = np.arange(2)[:, None, None], np.arange(24)[:, None], np.arange(17)
    e, zero, digit = slot - 6, slot == _ZERO_SLOT, np.arange(17)
    fixed, small, tiny = (e >= 0) & ~zero, (e >= -4) & (e < 0), e < -4
    significant = digit < 17 - zeros[..., None]
    keep = np.zeros((2, 24, 17, width), dtype=bool)
    keep[..., :lead] = True
    keep[..., 2] = sign
    keep[..., 3] = zero | small  # "0", and "0." with up to three zeros
    keep[..., 4] = small
    keep[..., 5:8] = small[..., None] & (np.arange(3) < -e[..., None] - 1)
    keep[..., _INT:_INT + 17] = (
        (fixed[..., None] & (digit <= e[..., None])) | (tiny[..., None] & (digit == 0))
        | (small[..., None] & significant))
    keep[..., _POINT] = (fixed & (e < 16 - zeros)) | (tiny & (zeros < 16))
    keep[..., _POINT + 1:_POINT + 17] = significant[..., 1:] & (
        (fixed[..., None] & (digit[1:] > e[..., None])) | tiny[..., None])
    keep[..., _CELL - 4:_CELL] = tiny[..., None]
    return keep.reshape(-1, width).view(np.dtype((np.void, width))).ravel()


def _scaled(a, e):
    """p + err == a * 10**(16-e) exactly, for e in [-6, 16]."""
    s, s_hi, s_lo = _digit_tables()[2].take(e + 6, axis=1)
    p = a * s
    a_hi, a_lo = _split(a)
    return p, ((a_hi * s_hi - p) + a_hi * s_lo + a_lo * s_hi) + a_lo * s_lo


def decimal17(a, e):
    """(d, e): the 17-digit integer d = round-half-even(a * 10**(16-e)) and
    the decimal exponent e of a, for 1e-6 < a < 1e17 and a guess ``e`` in
    [-6, 16] within one of the exponent, fixed in place.  The guess is fixed
    from the exact sum p + err at both ends, never from p alone."""
    p, err = _scaled(a, e)
    # p - 10**k is exact near 10**k (Sterbenz) and outweighs err elsewhere,
    # so these sums have the sign of the exact p + err - 10**k
    low, high = (p - 1e16) + err < 0, (p - 1e17) + err >= 0
    fix = np.flatnonzero(low | high)
    if fix.size:
        e[fix] += high[fix].astype(e.dtype) - low[fix]
        p[fix], err[fix] = _scaled(a[fix], e[fix])
    return p.astype(np.int64) + np.rint(err).astype(np.int64), e


def format_17g(x, lead: bytes = b"", spare: int = 0):
    """(text, keep): for every value v of the float64 array ``x`` a template
    row and the mask of its bytes; ``text[i][keep[i]]`` is ``lead`` (at most
    two bytes) followed by the bytes of '%.17g' % v.  Each row ends with at
    least ``spare`` unkept bytes from byte _CELL on, after every byte of
    the number; both arrays have the shape ``x.shape + (row width,)``.  The
    lead sits in bytes 0-1 and the number starts at byte 2, whichever path
    formats it."""
    quads, group_zeros, _ = _digit_tables()
    x = np.asarray(x, dtype=np.float64)
    flat = x.ravel()
    a = np.abs(flat)
    fast = (a > 1e-6) & (a < 1e17)
    a = np.where(fast, a, 1.0)
    d, e = decimal17(a, np.clip(np.floor(np.log10(a)), -6, 16).astype(np.intp))
    # text and mask share one allocation: as two, glibc handed their pages
    # back after each call, and each call faulted them in again
    buffer = np.empty((2, flat.size, _TEMPLATE.size - (-spare // 4)), dtype="<u4")
    text = buffer[0]
    text[:, :_TEMPLATE.size], text[:, _TEMPLATE.size:] = _TEMPLATE, 0x20202020
    text[:, 0] = np.frombuffer(lead.ljust(2) + b"-0", "<u4")
    text[:, 12] += (e == -6).astype(np.uint32) << 24  # the suffix "e-05" or "e-06"
    for col in (4, 3, 2, 1):  # the 4-digit groups of d, last first
        high = d // 10000
        group = d - high * 10000
        text[:, 2 + col] = text[:, 7 + col] = quads.take(group)
        if col == 4:  # trailing zeros of the 17 digits
            zeros = group_zeros.take(group)
            more = np.flatnonzero(zeros == 4)
        else:  # a group counts only where every later group is zero
            zeros[more] += group_zeros.take(group[more])
            more = more[zeros[more] == 4 * (5 - col)]
        d = high
    text[:, 2] = quads.take(d)  # "000" and the leading digit
    text = text.view(np.uint8)
    slot = np.where(flat == 0, _ZERO_SLOT, e + 6)
    keep = buffer[1].view(bool)
    _layout(len(lead), text.shape[1]).take(  # every key is in range; "clip" writes unbuffered
        (np.signbit(flat) * 24 + slot) * 17 + zeros, mode="clip",
        out=keep.view(np.dtype((np.void, text.shape[1]))).ravel())
    for i in np.flatnonzero(~fast & (flat != 0)):  # NaN, inf, outside the range
        number = b"%.17g" % flat[i]  # the lead stays as the table laid it out
        text[i, 2:2 + len(number)] = np.frombuffer(number, np.uint8)
        keep[i, 2:] = np.arange(text.shape[1] - 2) < len(number)
    return text.reshape(x.shape + text.shape[1:]), keep.reshape(x.shape + text.shape[1:])


def _csv_cell(text: str) -> str:
    """``text`` as a csv cell: quoted, as the csv module's default dialect
    quotes, when it holds a comma, a quote or a line break."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _tails(columns: list, last: bool):
    """The bytes after a number on each row: the cells of ``columns``, each
    led by its comma, then the row's line break if the number is the row's
    ``last``.  Returns the distinct tails as padded byte
    rows, their keep masks, and each row's index into them (None when every
    row has the same tail)."""
    strings = [column for column in columns if column is not None]
    keys = list(zip(*strings)) if strings else [()]
    code = {key: i for i, key in enumerate(dict.fromkeys(keys))}

    def tail(key) -> bytes:  # each distinct string is quoted once
        cells = iter(key)
        return (b"".join(b"," + (b"" if column is None else _csv_cell(next(cells)).encode())
                         for column in columns) + (b"\r\n" if last else b""))

    tails = [tail(key) for key in code]
    width = max(map(len, tails), default=0)
    table = np.frombuffer(b"".join(t.ljust(width) for t in tails), np.uint8).reshape(
        len(tails), width)
    kept = np.arange(width) < np.array(list(map(len, tails)))[:, None]
    rows = None if len(code) < 2 else np.fromiter(map(code.__getitem__, keys), np.intp, len(keys))
    return table, kept, rows


def csv_rows(columns: Sequence) -> np.ndarray:
    """The rows of ``columns`` as the csv module's default dialect writes
    them, each ending in a line break, as one uint8 array.  A column is a
    float64 array, whose cells are '%.17g' % v; None, for empty cells; or a
    sequence of strings, quoted as the csv module quotes them.  The first
    column holds numbers.

    Every number column is formatted at once (format_17g), each cell led by
    its comma but a row's first.  The cells after a number up to the next
    number, and the line break after the row's last number, go in the spare
    bytes after it, so one boolean compaction gives the rows."""
    numbers = [j for j, column in enumerate(columns) if isinstance(column, np.ndarray)]
    if numbers[:1] != [0]:
        raise ValueError("the first column of csv_rows must hold numbers")
    tails = [_tails(columns[j + 1:end], end == len(columns))
             for j, end in zip(numbers, numbers[1:] + [len(columns)])]
    text, keep = format_17g(np.stack([columns[j] for j in numbers], axis=1), b",",
                            max(table.shape[1] for table, _, _ in tails))
    keep[:, 0, 0] = False  # no comma before a row's first cell
    for col, (table, kept, rows) in enumerate(tails):
        end = _CELL + table.shape[1]
        text[:, col, _CELL:end] = table if rows is None else table.take(rows, axis=0)
        keep[:, col, _CELL:end] = kept if rows is None else kept.take(rows, axis=0)
    return text[keep]
