"""The command line's output documents: columnar bodies, rendered in chunks.

A table body is {"header": [...], "columns": [...]} (see table): one
column per header name, each a numpy array or a sequence holding one
kind of value.  render_csv and render_json format one column at a time,
through one form chosen for the whole column, and yield the document in
chunks of CHUNK_ROWS rows, so the text of a long body is never held
whole.  Numpy columns are formatted from tolist(), so values past int64
stay exact.

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
from typing import Any, Callable, Iterator

import numpy as np

CHUNK_ROWS = 1 << 14

_BOOL = {False: "false", True: "true"}
_ROWS_MARK = "\0rows"
# A row is opening + cells joined by the cell separator + closing, and
# rows are joined by the row separator: for JSON, json.dumps' indent=1.
_CSV_ROW = ("", ",", "\n", "")
_JSON_ROW = ("  [\n   ", ",\n   ", "\n  ]", ",\n")


def table(header: list[str], *columns: Any) -> dict[str, Any]:
    """A body of one column per header name."""
    return {"header": header, "columns": list(columns)}


def _form(first: Any, json_form: bool) -> tuple[str, Callable[[list], list]]:
    """The %-spec of a column whose first value is first, and the map
    from a slice of the column to the values the spec takes."""
    if isinstance(first, bool):
        return "%s", lambda cells: [_BOOL[v] for v in cells]
    if isinstance(first, float):
        if json_form:
            return "%s", lambda cells: json.dumps(cells)[1:-1].split(", ")
        return "%.17g", list
    if isinstance(first, str) and json_form:
        return "%s", lambda cells: [json.dumps(v) for v in cells]
    return "%s", list


def _part(column: Any, start: int, stop: int) -> list:
    part = column[start:stop]
    return part.tolist() if isinstance(part, np.ndarray) else part


def _rows(columns: list, json_form: bool) -> Iterator[str]:
    """The rows of a body as text, one chunk of CHUNK_ROWS rows at a time."""
    count = len(columns[0]) if columns else 0
    if not count:
        return
    forms = [_form(_part(column, 0, 1)[0], json_form) for column in columns]
    opening, cell_sep, closing, row_sep = _JSON_ROW if json_form else _CSV_ROW
    template = opening + cell_sep.join(spec for spec, _ in forms) + closing
    for start in range(0, count, CHUNK_ROWS):
        cells = [convert(_part(column, start, start + CHUNK_ROWS)) for column, (_, convert) in zip(columns, forms)]
        yield row_sep.join(map(template.__mod__, zip(*cells)))


def _scalar(value: Any) -> str:
    """One metadata value in its CSV form."""
    spec, convert = _form(value, json_form=False)
    return spec % tuple(convert([value]))


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
