"""The line format shared by every input file.

Lines end at ``\\n``, ``\\r\\n`` or ``\\r``, the line ends ``open()``
translates; other characters ``str.splitlines`` breaks on (form feed,
``\\x85``, ``\\u2028`` and the like) stay inside their line.  Each line is
stripped of surrounding whitespace; blank lines and lines starting with
``#`` carry no data.  A CSV header, if any, is the first data line.  A
``ValueError`` raised while data line N is handled is re-raised as the
loader's own error class as ``line N: <reason>``.
"""

from __future__ import annotations

from typing import Callable, TypeVar

T = TypeVar("T")


def _split(source: str) -> list[str]:
    if "\r" in source:
        source = source.replace("\r\n", "\n").replace("\r", "\n")
    return source.split("\n")


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
