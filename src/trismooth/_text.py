"""Text in and out: row writers, float text, JSON row templates, the
in-place file writer and the JSON reader.  Standard library and numpy only."""

from __future__ import annotations

import json
import os
import stat
import sys
from collections.abc import Iterator
from contextlib import contextmanager

import numpy as np


#: Faces or lines per block of ``blocks``: small temporaries, reused block to
#: block, keep the array passes' memory flat however many faces there are.
FACE_BLOCK = 4096


def blocks(n: int) -> Iterator[slice]:
    """The ``FACE_BLOCK``-long slices of ``range(n)`` that every block pass takes."""
    for start in range(0, n, FACE_BLOCK):
        yield slice(start, min(start + FACE_BLOCK, n))


def block_rows(template: str, sep: str, table: np.ndarray) -> Iterator[str]:
    """``table``'s rows through the ``%`` ``template``, joined by ``sep``: one
    string per block of ``blocks``, each block after the first led by ``sep``."""
    for rows in blocks(len(table)):
        block = table[rows]
        text = sep.join([template] * len(block)) % tuple(block.ravel().tolist())
        yield sep + text if rows.start else text


# The tables of _repr_field: 10**s (exact doubles for s <= 22) with their
# Veltkamp halves for Dekker's exact product, the same powers as int64, the
# ASCII digit pairs "00".."99" as uint16, and per row key the NUL masks of
# the digits shown, the leads "0.", "0.0", ... and the "." after digit P.
_SPLITTER = 134217729.0  # 2**27 + 1
_POW10 = np.array([10**s for s in range(21)], dtype=float)
_POW10_HI = _POW10 * _SPLITTER - (_POW10 * _SPLITTER - _POW10)
_POW10_LO = _POW10 - _POW10_HI
_IPOW10 = 10 ** np.arange(18, dtype=np.int64)
_PAIRS = (np.arange(100) // 10 + 48 | (np.arange(100) % 10 + 48) << 8).astype("<u2")
_SHOWN = (np.arange(17) < np.arange(18)[:, None]).astype(np.uint8)
_LEADS = np.array([b"", b"0.", b"0.0", b"0.00", b"0.000"]).view(np.uint8).reshape(5, 5)
_DOTS = (np.arange(-4, 16)[:, None] == np.arange(16)).astype(np.uint8) * ord(".")


def _scaled(x: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x * 10**(16 - p) exactly, as hi + lo: Dekker's product, without FMA."""
    s = 16 - p
    y, y_hi, y_lo = _POW10.take(s), _POW10_HI.take(s), _POW10_LO.take(s)
    hi = x * y
    x_hi = x * _SPLITTER - (x * _SPLITTER - x)
    x_lo = x - x_hi
    return hi, ((x_hi * y_hi - hi) + x_hi * y_lo + x_lo * y_hi) + x_lo * y_lo


def _shortest(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``repr``'s digits of each x in [1e-4, 1e16): x's 17-digit int c whose
    first ``nd`` digits are the shortest that read back as x, and the power
    of ten P of the first, so that the digits read c * 10**(P - 16).

    With p the power of ten of x, D = x * 10**(16 - p) lies in [1e16, 1e17).
    Around D, the reals that round to x span half an ulp each way (a
    quarter below a power of two), ends included for an even significand,
    all times 10**(16 - p), exactly.  The shortest digits are the multiple
    of the largest power 10**j in that span, the one nearest D, ties to an
    even digit; a span reaching 1e17 carries into p + 1."""
    p = np.floor(np.log10(x)).astype(np.int64)
    hi, lo = _scaled(x, p)
    up = (hi > 1e17) | ((hi == 1e17) & (lo >= 0))  # log10 rounded past a power of ten
    down = (hi < 1e16) | ((hi == 1e16) & (lo < 0))
    if up.any() or down.any():
        p += up.astype(np.int64) - down
        hi, lo = _scaled(x, p)
    bits = x.view(np.int64)
    above = np.spacing(x) * 0.5 * _POW10.take(16 - p)  # exact: a power of two times 10**s
    below = np.where(bits & ((1 << 52) - 1) == 0, 0.5 * above, above)
    odd = (bits & 1).astype(bool)
    # hi is an even integer, and lo - below, lo + above are exact: their
    # bits run from under 32 down to 2**-48
    whole = hi.astype(np.int64)
    t, u = lo - below, lo + above
    t_up, u_down = np.ceil(t), np.floor(u)
    first = whole + t_up.astype(np.int64) + (odd & (t_up == t))
    last = whole + u_down.astype(np.int64) - (odd & (u_down == u))
    lo_down = np.floor(lo)
    floor, frac = whole + lo_down.astype(np.int64), lo - lo_down
    # the span holds an integer; below 100 wide, it holds at most one
    # multiple of 100, and j = 1 where it holds a multiple of ten
    width = last - first
    r = last - last // 100 * 100
    m = np.where(r - r // 10 * 10 <= width, 10, 1)
    # the multiple of m nearest D, ties to an even k, moved into the span
    k = floor // m
    twice = 2 * (floor - k * m) + 2 * frac  # exact: 2 (D - k m)
    c = (k + ((twice > m) | ((twice == m) & (k & 1 == 1)))) * m
    c += m * (c < first) - m * (c > last)
    j = (m == 10).astype(np.int64)
    deep = np.flatnonzero(r <= width)
    if deep.size:  # j >= 2: the one multiple of 10**j inside
        ends, spans, jd = last[deep], width[deep], np.full(deep.size, 2)
        for k in range(3, 18):
            jd += ends % _IPOW10[k] <= spans
        c[deep], j[deep] = ends - ends % _IPOW10.take(jd), jd
    carry = c == _IPOW10[17]
    return np.where(carry, _IPOW10[16], c), p + carry, np.where(carry, 1, 17 - j)


def _digits(c: np.ndarray) -> np.ndarray:
    """The 18 ASCII digits of ints 0 <= c < 1e18, leading zeros kept, as
    (n, 18) uint8: two digits per division."""
    out = np.empty((len(c), 9), "<u2")
    for k in range(8, -1, -1):
        q = c // 100
        out[:, k] = _PAIRS.take(c - q * 100)
        c = q
    return out.view(np.uint8)


def _fixed_text(x: np.ndarray) -> np.ndarray:
    """``repr``'s text of floats in [1e-4, 1e16), from ``_shortest``'s
    digits, as uint8 rows with NULs between and after the characters: a
    "0." lead and zeros when P < 0, each digit of the first P + 1 followed
    by a slot for the ".", the digits after them, and a "0" after a "."
    with no digit after it.  Only the slots some row uses are kept."""
    c, P, nd = _shortest(x)
    digits = _digits(c)[:, 1:]  # c < 1e17: the first of 18 is 0
    digits *= _SHOWN.take(np.maximum(nd, P + 1), axis=0)
    low, top = int(P.min()), int(P.max())
    lead = max(1 - low, 0)  # "0." and up to three zeros
    mixed = max(top + 1, 0)  # the digits before the "."
    bare = nd <= P + 1  # no digit after the ".": a "0" follows it
    tail = int(bare.any())
    text = np.empty((len(P), lead + mixed + 17 + tail), np.uint8)
    text[:, :lead] = _LEADS.take(np.maximum(-P, 0), axis=0)[:, :lead]
    text[:, lead : lead + 2 * mixed : 2] = digits[:, :mixed]
    text[:, lead + 1 : lead + 2 * mixed : 2] = _DOTS.take(P + 4, axis=0)[:, :mixed]
    text[:, lead + 2 * mixed : lead + mixed + 17] = digits[:, mixed:]
    text[:, lead + mixed + 17 :] = bare[:, None] * np.uint8(ord("0"))
    return text


def _int_text(n: np.ndarray) -> np.ndarray:
    """The decimal text of ints 0 <= n < 1e18, NULs before it."""
    digits = _digits(n.astype(np.int64))
    digits *= np.maximum.accumulate(digits != ord("0"), axis=1)  # no leading zeros
    digits[:, -1] |= ord("0")  # but 0 itself
    return digits[:, 18 - len(str(n.max())) :]


def _repr_field(values: np.ndarray) -> np.ndarray:
    """``repr`` of each of ``values`` as an (n, w) uint8 matrix: row i with
    its NUL bytes dropped is the ASCII ``repr(values.flat[i])``.  Ints in
    [0, 1e18) and floats in [1e-4, 1e16), where ``repr`` writes fixed
    notation, take array passes (``_int_text``, ``_fixed_text``); every
    other value (scientific notation, signed zeros, negatives, inf, nan)
    is ``repr``'d one by one."""
    values = np.asarray(values).ravel()
    if values.dtype.kind in "iu":
        fast, text = (values >= 0) & (values < 10**18), _int_text
    else:
        values = np.ascontiguousarray(values, dtype=float)
        fast, text = (values >= 1e-4) & (values < 1e16), _fixed_text
    if fast.all() and len(values):
        return text(values)
    other = np.array(list(map(repr, values[~fast].tolist())), dtype="S")
    other = other.view(np.uint8).reshape(len(other), other.itemsize)
    fixed = text(values[fast]) if fast.any() else other[:0]
    out = np.zeros((len(values), max(fixed.shape[1], other.shape[1])), np.uint8)
    out[fast, : fixed.shape[1]] = fixed
    out[~fast, : other.shape[1]] = other
    return out


def _field_rows(template: str, sep: str, fields: list[np.ndarray], lead: bool) -> str:
    """The text ``block_rows`` gives for one block, from fields: each ``%s``
    of ``template`` takes the next of ``fields``' rows, (n, w) uint8
    matrices whose rows without their NULs are ASCII (``_repr_field``).
    Rows are joined by ``sep``, and led by it when ``lead`` is true.  The
    block is one byte matrix, the template's pieces broadcast between the
    fields, whose NULs are dropped at once."""
    first, *pieces = (sep + template).encode("ascii").split(b"%s")
    parts = [np.frombuffer(first, np.uint8)]
    for field, piece in zip(fields, pieces, strict=True):
        parts += [field, np.frombuffer(piece, np.uint8)]
    n = len(fields[0])
    block = np.concatenate([np.broadcast_to(part, (n, part.shape[-1])) for part in parts], axis=1)
    if not lead:
        block[0, : len(sep)] = 0
    return str(block[block != 0], "ascii")


@contextmanager
def _output(path, newline: str):
    """``path`` as ``open(path, "w", encoding="utf-8", newline=newline)`` gives
    it, but written over in place, not emptied first: on exit, after an
    exception too, a regular file is cut to the bytes written, so it ends as
    "w" would leave it, with its inode, links and mode.  A handle that wrote
    nothing leaves the file as it was, and removes it only if this call made
    it and it is still empty (another handle on it may have written).  A
    device or a FIFO is only written.  Killed mid-write, the file holds the
    new text followed by the old file's tail, where "w" leaves the new text."""
    flags = os.O_WRONLY | getattr(os, "O_BINARY", 0)
    try:
        fd, made = os.open(path, flags), False
    except FileNotFoundError:
        try:
            fd, made = os.open(path, flags | os.O_CREAT | os.O_EXCL, 0o666), True
        except FileExistsError:  # a dangling symlink: "w" makes its target
            fd, made = os.open(path, flags | os.O_CREAT, 0o666), False
    fh = os.fdopen(fd, "w", encoding="utf-8", newline=newline)
    try:
        yield fh
    finally:
        with fh:
            fh.flush()
            info = os.fstat(fd)
            end = os.lseek(fd, 0, os.SEEK_CUR) if stat.S_ISREG(info.st_mode) else None
            if end and end < info.st_size:
                os.ftruncate(fd, end)
        if made and end == 0 == info.st_size:
            os.remove(path)


def _json_rows(document: dict, key: str, row: dict) -> tuple[str, str, str]:
    """Head, ``%`` item template and tail of ``json.dumps(document, indent=2)``
    around its top-level list ``key``, from a placeholder item ``row`` whose
    values, nested ones too, are all "%s": head + ``block_rows(template, ",\\n",
    table)`` + tail is the document with ``table``'s rows as that list."""
    text = json.dumps({**document, key: [row]}, indent=2)
    head, opening, rest = text.partition(f'\n  "{key}": [\n')  # at the top level only
    item, closing, tail = rest.partition("\n  ]")
    return head + opening, item.replace('"%s"', "%s"), closing + tail


def _distinct_text(values: np.ndarray) -> np.ndarray:
    """``repr`` of each of ``values`` (``json``'s text), as an object array of
    their shape for ``block_rows``' ``%s`` templates, each distinct value
    formatted once.  ``np.unique`` merges -0.0 with 0.0: the values must be
    finite and >= 0.  Its inverse is flat or shaped by numpy version."""
    # not _repr_field: its fixed cost per call loses on fans of at most 500
    # rows (JSON rows of 3 faces 105 against 33 us, 500 faces 1,175 against 950)
    distinct, inverse = np.unique(values, return_inverse=True)
    text = np.array(list(map(repr, distinct.tolist())), dtype=object)
    return text[inverse.reshape(values.shape)]


def _read_json(path):
    """The JSON document in ``path`` (UTF-8, with or without a byte-order
    mark).  Nesting too deep for the decoder, and an integer longer than
    ``int``'s digit limit, are JSONDecodeErrors as well."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        text = fh.read()
    try:
        return json.loads(text)
    except RecursionError:
        raise json.JSONDecodeError("document nested too deeply", text, 0) from None
    except json.JSONDecodeError:
        raise
    except ValueError:  # the only other ValueError json raises
        limit = sys.get_int_max_str_digits()
        raise json.JSONDecodeError(f"integer over {limit} digits", text, 0) from None
