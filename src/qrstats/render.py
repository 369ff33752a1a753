"""The command line's output documents: columnar bodies, rendered in chunks.

A table body is {"header": [...], "columns": [...]} (see table): one
column per header name, each a numpy array or a sequence holding one
kind of value.  render_csv and render_json yield the document in chunks
of CHUNK_ROWS rows, so the text of a long body is never held whole.

One row engine makes each chunk's text as bytes in numpy.  Each column
of the chunk becomes a rows x width uint8 matrix of right-aligned cells,
plus each cell's length:

* integer columns (numpy integer arrays such as int64 and uint64, or
  lists that np.asarray makes one) take their digits two at a time
  from `// 100` passes and a table of the pairs "00" to "99", with a `-`
  just before the leading digit, and their digit counts from one
  searchsorted over the powers of ten;
* every other column (floats, bools, str, Python ints past 64 bits) is
  turned into text by the same converters as the metadata (_texts),
  then encoded as UTF-8.

The row literals (opening, cell separators, closing + row separator)
are constant columns of one chunk matrix, and one mask built from the
cell lengths picks the bytes kept, row after row.

* CSV: `#`-prefixed metadata lines, the header row, then the rows;
  floats with 17 significant digits, bools as true and false.
* JSON: one json.dumps(..., sort_keys=True, indent=1) document.  It is
  rendered with a mark in place of the rows, which are spliced in with
  the value forms of json's C encoder.  A body without columns (trace)
  is dumped whole.

meta is the document's metadata, the JSON "meta" object: tool, version,
subcommand, params, conventions and, when there is one, a summary.
"""

from __future__ import annotations

import json
from typing import Any, Iterator

import numpy as np

CHUNK_ROWS = 1 << 14

_BOOL = {False: "false", True: "true"}
_ROWS_MARK = "\0rows"
# A row is opening + cells joined by the cell separator + closing, and
# rows are joined by the row separator: for JSON, json.dumps' indent=1.
_CSV_ROW = ("", ",", "\n", "")
_JSON_ROW = ("  [\n   ", ",\n   ", "\n  ]", ",\n")
# 10**1 .. 10**19: a uint64 of d digits has d - 1 of them at or below it
_POWERS = 10 ** np.arange(1, 20, dtype=np.uint64)
# the two-digit texts "00" .. "99", each read as one uint16
_PAIRS = np.frombuffer("".join(f"{k:02d}" for k in range(100)).encode(), dtype=np.uint16)
_MINUS = ord("-")


def table(header: list[str], *columns: Any) -> dict[str, Any]:
    """A body of one column per header name."""
    return {"header": header, "columns": list(columns)}


def _texts(cells: list, json_form: bool) -> list[str]:
    """The text of each cell of a list holding one kind of value."""
    first = cells[0]
    if isinstance(first, bool):
        return [_BOOL[v] for v in cells]
    if isinstance(first, float):
        if json_form:
            return json.dumps(cells)[1:-1].split(", ")
        return list(map("%.17g".__mod__, cells))
    if isinstance(first, str) and json_form:
        return list(map(json.dumps, cells))
    return list(map(str, cells))


def _numeric(column: Any) -> Any:
    """column, or the numpy integer array np.asarray makes of a list of
    ints (ints that no 64-bit type holds stay a list and keep their str)."""
    if isinstance(column, np.ndarray) or isinstance(column[0], bool) or not isinstance(column[0], (int, np.integer)):
        return column
    array = np.asarray(column)
    return array if array.dtype.kind in "iu" else column


def _right_aligned(lengths: np.ndarray, width: int) -> np.ndarray:
    """The mask of the last lengths[i] bytes of each width-byte row."""
    return np.arange(width) >= (width - lengths)[:, None]


def _void(matrix: np.ndarray) -> np.ndarray:
    """Each row of a contiguous rows x width matrix as one void value."""
    return matrix.view(f"V{matrix.shape[1]}")[:, 0]


def _slot(matrix: np.ndarray, start: int, width: int) -> np.ndarray:
    """Bytes start .. start + width of each row of a contiguous matrix,
    one void value per row, so a copy into it moves whole cells."""
    return np.ndarray(matrix.shape[:1], f"V{width}", matrix, start, matrix.strides[:1])


def _digit_cells(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The decimal cells of a chunk of a numpy integer column, and their
    lengths."""
    negative = values < 0
    magnitude = values.astype(np.uint64)
    if negative.any():  # uint64 negation leaves |v|, -2**63 included
        magnitude = np.where(negative, -magnitude, magnitude)
    top = len(str(magnitude.max()))  # the digits of the widest cell
    lengths = np.searchsorted(_POWERS[:top - 1], magnitude, side="right") + 1 + negative
    width = -(-int(lengths.max()) // 2) * 2
    cells = np.empty((len(values), width), dtype=np.uint8)
    pairs = cells.view(np.uint16)
    if top <= 9:  # uint32 divides in half the time
        magnitude = magnitude.astype(np.uint32)
    # One pair a pass, from the right.  A scalar // is several times faster
    # than np.divmod, and take writes the strided column unbuffered only
    # in a mode other than "raise" (every index is below 100).
    for j in range(width // 2 - 1, width // 2 - 1 - (top + 1) // 2, -1):
        high = magnitude // 100
        np.take(_PAIRS, magnitude - high * 100, out=pairs[:, j], mode="clip")
        magnitude = high
    rows = np.flatnonzero(negative)
    cells[rows, width - lengths[rows]] = _MINUS
    return cells, lengths


def _text_cells(texts: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Cells holding the UTF-8 bytes of texts, and their lengths."""
    encoded = [text.encode() for text in texts]
    lengths = np.fromiter(map(len, encoded), dtype=np.int64, count=len(encoded))
    cells = np.empty((len(encoded), int(lengths.max())), dtype=np.uint8)
    cells[_right_aligned(lengths, cells.shape[1])] = np.frombuffer(b"".join(encoded), dtype=np.uint8)
    return cells, lengths


def _cells(part: Any, json_form: bool) -> tuple[np.ndarray, np.ndarray]:
    """The cells of one chunk of a column, and their lengths."""
    if isinstance(part, np.ndarray) and part.dtype.kind in "iu":
        return _digit_cells(part)
    return _text_cells(_texts(part.tolist() if isinstance(part, np.ndarray) else part, json_form))


def _chunk(pieces: list[tuple[np.ndarray, np.ndarray | None]], row_sep: str) -> str:
    """The text of one chunk from its pieces in row order, each a matrix
    and its cell lengths, or a 1 x width literal and None.

    The pieces are copied into one rows x bytes matrix, whole cells at a
    time, and a mask from the cell lengths keeps the bytes of the text;
    the last row separator is trimmed."""
    widths = [matrix.shape[1] for matrix, _ in pieces]
    grid = np.empty((max(matrix.shape[0] for matrix, _ in pieces), sum(widths)), dtype=np.uint8)
    keep = np.ones(grid.shape, dtype=bool)
    at = 0
    for (matrix, lengths), width in zip(pieces, widths):
        if not width:
            continue
        _slot(grid, at, width)[...] = _void(matrix)
        if lengths is not None:
            masks = _void(_right_aligned(np.arange(width + 1), width))  # one per cell length
            _slot(keep, at, width)[...] = np.take(masks, lengths)
        at += width
    text = grid[keep]
    return str(text[:text.size - len(row_sep)], "utf-8")  # decoded from the array's own buffer


def _rows(columns: list, json_form: bool) -> Iterator[str]:
    """The rows of a body as text, one chunk of CHUNK_ROWS rows at a time.
    The matrix and mask of a chunk live only inside _chunk."""
    count = len(columns[0]) if columns else 0
    if not count:
        return
    opening, cell_sep, closing, row_sep = _JSON_ROW if json_form else _CSV_ROW
    literals = [opening, *[cell_sep] * (len(columns) - 1), closing + row_sep]
    literals = [(np.frombuffer(text.encode(), dtype=np.uint8)[None, :], None) for text in literals]
    columns = [_numeric(column) for column in columns]
    for start in range(0, count, CHUNK_ROWS):
        pieces = [literals[0]]
        for column, literal in zip(columns, literals[1:]):
            pieces += [_cells(column[start:start + CHUNK_ROWS], json_form), literal]
        yield _chunk(pieces, row_sep)


def _scalar(value: Any) -> str:
    """One metadata value in its CSV form."""
    return _texts([value], json_form=False)[0]


def render_csv(meta: dict[str, Any], body: dict[str, Any]) -> Iterator[str]:
    def pairs(values: dict[str, Any]) -> str:
        return " ".join(f"{k}={_scalar(v)}" for k, v in sorted(values.items()))

    lines = [
        f"# tool: {meta['tool']} {meta['version']}",
        f"# subcommand: {meta['subcommand']}",
        f"# params: {pairs(meta['params'])}",
        f"# conventions: {pairs(meta['conventions'])}",
        *(f"# {k}: {_scalar(v)}" for k, v in sorted(meta.get("summary", {}).items())),
        ",".join(body["header"]),
    ]
    yield "\n".join(lines) + "\n"
    yield from _rows(body["columns"], json_form=False)


def render_json(meta: dict[str, Any], body: dict[str, Any]) -> Iterator[str]:
    if "columns" not in body:
        yield json.dumps({"meta": meta, **body}, sort_keys=True, indent=1) + "\n"
        return
    skeleton = {"meta": meta, "header": body["header"], "rows": _ROWS_MARK}
    # "rows" sorts last, so its mark is the last one in the skeleton
    head, tail = json.dumps(skeleton, sort_keys=True, indent=1).rsplit(json.dumps(_ROWS_MARK), 1)
    chunks = _rows(body["columns"], json_form=True)
    first = next(chunks, None)
    if first is None:
        yield head + "[]" + tail + "\n"
        return
    yield head + "[\n" + first
    for chunk in chunks:
        yield ",\n" + chunk
    yield "\n ]" + tail + "\n"
