"""Decimal text of int64 arrays in bulk: the "p/q" strings of a table written and read
with numpy digit arithmetic over byte matrices, in place of one f-string or int() per value.

render_rows writes rows of text whose fields are literal bytes or int64 arrays, one
decimal per row, digits column by column.  parse_values reads a list of "p/q" strings
in the grammar

    value := '-'? digit+ ('/' digit+)?        digit := '0' .. '9', the '/' part nonzero

with a vectorised automaton over the columns of a padded byte matrix and Horner's rule in
int64.  Both work in chunks of _CHUNK rows, which bounds their temporaries.  number_parts
reads the same grammar one value at a time, for every other exact number read as text.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Optional

import numpy as np

from .ladditive import as_exact, exact_array

_CHUNK = 2**14  # rows per step
_NUMBER = re.compile(r"(-?[0-9]+)(?:/(0*[1-9][0-9]*))?")  # the module grammar, one value at a time

_DIGITS = 18  # a part of at most 18 digits is below 10**18 < 2**63
_WIDTH = 2 * _DIGITS + 3  # the longest row with two such parts, '-', '/' and '\n'

# The automaton of the grammar.  _STEP[s | b] is the state after state s reads byte b, with
# the states held as multiples of 256 so that s | b indexes one flat table.  States: 0 start,
# 1 after '-', 2 numerator digits, 3 after '/', 4 denominator digits, 5 accepted (a row's
# '\n' read after a digit; it stays), 6 rejected; every pair not listed rejects.
_NUM, _DEN, _DONE = 2 << 8, 4 << 8, 5 << 8
_STEP = np.full((7, 256), 6 << 8, np.uint16)
_STEP[5] = _DONE
for _state, _bytes, _next in [
    (0, "-", 1), (0, "0123456789", 2), (1, "0123456789", 2), (2, "0123456789", 2), (2, "/", 3),
    (2, "\n", 5), (3, "0123456789", 4), (4, "0123456789", 4), (4, "\n", 5),
]:
    _STEP[_state, list(_bytes.encode())] = _next << 8
_STEP = _STEP.ravel()


def render_rows(fields: list, rows: int) -> str:
    """rows lines of text, line i the concatenation of the fields at i: a bytes field as
    is, an int64 array field as the decimal of its entry i ('-' and no leading zeros).

    Each int64 field of a chunk takes one sign column, where any entry is negative, and
    one column per digit of its largest magnitude (np.abs as uint64, so -2**63 is exact),
    filled right to left by division by 10.  A keep-mask drops leading zeros and the sign
    of nonnegative entries; the kept bytes, in row-major order, are the text."""
    out = []
    for lo in range(0, rows, _CHUNK):
        chunk = [f if isinstance(f, bytes) else f[lo : lo + _CHUNK] for f in fields]
        cols = []  # (field, magnitudes or None, sign column?, width)
        for f in chunk:
            if isinstance(f, bytes):
                cols.append((f, None, False, len(f)))
            else:
                m = np.abs(f).astype(np.uint64)
                signed = bool(f.min() < 0)
                cols.append((f, m, signed, signed + len(str(int(m.max())))))
        # one row of text per column of the text, so that each write is contiguous
        text = np.empty((sum(c[3] for c in cols), min(_CHUNK, rows - lo)), np.uint8)
        keep = np.ones(text.shape, bool)
        j = 0
        for f, m, signed, width in cols:
            if m is None:
                text[j : j + width] = np.frombuffer(f, np.uint8)[:, None]
            else:
                if signed:
                    text[j] = ord("-")
                    np.less(f, 0, out=keep[j])
                for col in range(j + width - 1, j + signed - 1, -1):
                    np.greater(m, 0, out=keep[col])
                    q = m // 10  # faster than np.divmod, which does not divide by a constant
                    text[col] = m - q * 10 + ord("0")
                    m = q
                keep[j + width - 1] = True  # the units digit, "0" for 0
            j += width
        # a mask over transposed views is slower than over contiguous copies
        out.append(np.ascontiguousarray(text.T)[np.ascontiguousarray(keep.T)].tobytes())
    return b"".join(out).decode("ascii")


def parse_values(values: list) -> np.ndarray:
    """[0, *values] as numerators, values a list of "p/q" strings in the module grammar:
    int64 when every value is an int in range, else object dtype with Python ints and
    Fractions in lowest terms (exact_array's rule).  The first value that is not a str in
    the grammar raises ValueError("malformed value at n = <n>: ...")."""
    num = np.zeros(len(values) + 1, np.int64)
    dens: dict = {}  # n -> denominator, where it is not 1
    wide: dict = {}  # n -> value, for the rows read by fraction_from_str
    for lo in range(0, len(values), _CHUNK):
        strs = values[lo : lo + _CHUNK]
        den = np.empty(len(strs), np.int64)
        bad = _parse_chunk(strs, num[lo + 1 : lo + 1 + len(strs)], den, wide, lo + 1)
        if bad is not None:
            raise ValueError(f"malformed value at n = {lo + bad + 1}: {strs[bad]!r}")
        i = np.flatnonzero(den != 1)
        dens.update(zip((i + lo + 1).tolist(), den[i].tolist()))
    if not wide and not dens:
        return num
    vals = num.tolist()
    for n, q in dens.items():
        vals[n] = Fraction(vals[n], q)
    for n, v in wide.items():
        vals[n] = v
    return exact_array(vals[1:])


def _parse_chunk(strs: list, num: np.ndarray, den: np.ndarray, wide: dict, n0: int) -> Optional[int]:
    """Reads strs into num and den in lowest terms, and the values of the rows with a part of
    more than 18 digits into wide by n (strs[0] is at n0); returns the index of the first
    malformed value, or None.

    The automaton steps every row, with its '\n', over the columns of a byte matrix at most
    _WIDTH wide and counts the digits of each part; _horner then reads each part.  A longer
    row has a part of more than 18 digits or is malformed; it and every row with such a
    part are read by fraction_from_str, row by row."""
    if not strs:
        return None
    try:
        buf = "\n".join(strs).encode("ascii")
        ends = np.flatnonzero(np.frombuffer(buf, np.uint8) == ord("\n"))
        clean = len(ends) == len(strs) - 1
    except (TypeError, UnicodeEncodeError):
        clean = False
    if not clean:  # a value that is not an ASCII str or holds a '\n', and so is malformed
        first = next(i for i, s in enumerate(strs) if not (isinstance(s, str) and s.isascii() and "\n" not in s))
        bad = _parse_chunk(strs[:first], num[:first], den[:first], wide, n0)
        return first if bad is None else bad
    starts = np.concatenate(([0], ends + 1)) + _DIGITS  # in padded
    lens = np.diff(np.concatenate((starts, [len(buf) + _DIGITS + 1])))  # with the '\n'
    width = min(int(lens.max()), _WIDTH)
    padded = np.frombuffer(b"\n" * _DIGITS + buf + b"\n" * width, np.uint8)
    state = np.zeros(len(strs), np.uint16)
    nd, dd = np.zeros((2, len(strs)), np.int16)  # the digits of each part
    for col in _columns(padded, starts, width):
        state = _STEP.take(state | col)
        nd += state == _NUM
        dd += state == _DEN
    neg = padded[starts] == ord("-")
    num[...] = _horner(padded, starts + neg + nd, nd)
    den[...] = _horner(padded, starts + neg + nd + 1 + dd, dd)
    long = lens > _WIDTH
    wide_rows = long | (nd > _DIGITS) | (dd > _DIGITS)
    bad = ~long & (state != _DONE) | ~wide_rows & (den == 0) & (dd > 0)
    first = int(np.argmax(bad)) if bad.any() else len(strs)
    for i in np.flatnonzero(wide_rows[:first]).tolist():
        try:
            wide[n0 + i] = as_exact(fraction_from_str(strs[i]))
        except ValueError:
            first = i
            break
    if first < len(strs):
        return first
    num[wide_rows] = 0
    den[wide_rows | (dd == 0)] = 1
    if (den != 1).any():
        g = np.gcd(num, den)
        num //= g
        den //= g
    np.negative(num, out=num, where=neg)
    return None


def _columns(padded: np.ndarray, starts: np.ndarray, width: int) -> np.ndarray:
    """The (width, len(starts)) byte matrix whose column i is padded[starts[i] : starts[i] + width]."""
    return padded.take(starts + np.arange(width)[:, None])


def _horner(padded: np.ndarray, ends: np.ndarray, digits: np.ndarray) -> np.ndarray:
    """The int64 value of the digits[i] decimal digits just before padded[ends[i]], 0 where
    digits[i] = 0: Horner's rule over the rows of the runs right-aligned, with '0' to their
    left.  A run of more than 18 digits gives some value, not its own."""
    k = int(min(digits.max(), _DIGITS))
    value = np.zeros(len(ends), np.int64)
    if k:
        runs = _columns(padded, ends - k, k)
        runs[np.arange(k)[:, None] < k - digits] = ord("0")
        for row in runs - ord("0"):
            value *= 10
            value += row
    return value


def number_parts(s: str) -> tuple[int, Optional[int]]:
    """(p, q) of "p/q" text, or (p, None) of "p", in the module grammar, as written; any other
    text, q = 0 and parts past int()'s digit limit included, raises ValueError."""
    m = _NUMBER.fullmatch(s)
    if m is None:
        raise ValueError(f"malformed number {s!r}: expected -?[0-9]+(/[0-9]+)?, q nonzero")
    return int(m[1]), None if m[2] is None else int(m[2])


def fraction_from_str(s: str) -> Fraction:
    """The Fraction of "p/q" or "p" text in the module grammar, read by number_parts."""
    p, q = number_parts(s)
    return Fraction(p, q or 1)
