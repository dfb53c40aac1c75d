"""The line format shared by every input file and every output table.

Lines end at ``\\n``, ``\\r\\n`` or ``\\r``, the line ends ``open()``
translates; other characters ``str.splitlines`` breaks on (form feed,
``\\x85``, ``\\u2028`` and the like) stay inside their line.  Each line is
stripped of surrounding whitespace; blank lines and lines starting with
``#`` carry no data.  A CSV header, if any, is the first data line.  A
``ValueError`` raised while data line N is handled is re-raised as the
loader's own error class as ``line N: <reason>``; input bytes are UTF-8,
and ``decode`` names the line of a byte that is not.  An output table is a
CSV header line, then one line per row, each ended by ``\\n``.
"""

from __future__ import annotations

import json
from typing import Callable, Iterable, TypeVar

T = TypeVar("T")


def _split(source: str) -> list[str]:
    if "\r" in source:
        source = source.replace("\r\n", "\n").replace("\r", "\n")
    return source.split("\n")


def decode(data: bytes, error: type[ValueError] = ValueError) -> str:
    """`data` as UTF-8 text; a byte that is not raises `error` as ``line N:
    not UTF-8 text (<reason>)``, N counted as the loaders count lines."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = len(_split(data[: exc.start].decode("utf-8")))
        raise error(f"line {line}: not UTF-8 text ({exc.reason})") from exc


def data_lines(source: str) -> list[str]:
    """The stripped data lines of `source`, in order, without line numbers."""
    return [line for line in map(str.strip, _split(source)) if line and line[0] != "#"]


def read_lines(
    source: str,
    parse: Callable[[str], T],
    error: type[ValueError],
    header: str | None = None,
    header_required: bool = False,
) -> list[T]:
    """Apply `parse` to each stripped data line of `source`, in order.

    A first data line whose comma-separated fields match `header` is
    skipped; with `header_required`, a missing header is an error.
    """
    results = []
    expect_header = header is not None
    for lineno, raw in enumerate(_split(source), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            if expect_header:
                expect_header = False
                if [f.strip() for f in line.split(",")] == header.split(","):
                    continue
                if header_required:
                    raise ValueError(f"expected header {header!r}")
            results.append(parse(line))
        except ValueError as exc:
            raise error(f"line {lineno}: {exc}") from exc
    if expect_header and header_required:
        raise error(f"expected header {header!r}, found no data lines")
    return results


def table(header: str, rows: Iterable[str]) -> str:
    """An output table: `header`, then each row, one per line."""
    return "\n".join([header, *rows]) + "\n"


def json_rows(text: str) -> str:
    """A table as JSON objects keyed by its header.  Rows end at ``\\n`` alone;
    only the last column (a waiver note) may hold commas or other line breaks."""
    header, *lines = text.removesuffix("\n").split("\n")
    keys = header.split(",")
    rows = [dict(zip(keys, line.split(",", len(keys) - 1))) for line in lines]
    return json.dumps(rows, indent=2, sort_keys=True) + "\n"
