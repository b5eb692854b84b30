"""Exception hierarchy shared by all journeyshare modules.

Everything raised on purpose derives from JourneyShareError so the CLI can
map input problems to exit code 1 and internal invariant violations to 2.
read_text is the one reader of input files, so that undecodable bytes are a
ParseError too, and read_csv, built on it, the one reader of CSV files, so
that malformed CSV and a missing or wrong header are one as well.
"""

import csv
import io
from pathlib import Path
from typing import Iterator


class JourneyShareError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(JourneyShareError):
    """A source file is syntactically malformed (message names file and line)."""


class ValidationError(JourneyShareError):
    """Parsed data violates a structural invariant (bad run, bad coordinate...)."""


class ReferentialError(JourneyShareError):
    """A record references an entity that does not exist (dangling stop id)."""


class InputError(JourneyShareError):
    """An operation was called with arguments outside its domain."""


class ConsistencyError(JourneyShareError):
    """An internal invariant that should hold by construction was violated."""


class ScenarioError(JourneyShareError):
    """A scenario cannot be generated (e.g. no admissible origin-destination pairs)."""


def read_text(path: str | Path) -> str:
    """The UTF-8 text of a file, newlines translated as by open().

    Raises ParseError naming the file and the line of the first byte that is
    not valid UTF-8.
    """
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ParseError(f"{path}:{line}: not valid UTF-8 ({exc.reason})") from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


def read_csv(path: str | Path, header: list[str]) -> Iterator[tuple[int, list[str]]]:
    """The non-blank rows of a CSV file after its header, each with the line
    it starts on and as many fields as the header.

    A quoted field may span lines and keeps its newlines, so a row starts on
    the line after the one where the previous row ended.  Cells are not
    stripped.  Raises ParseError naming the file and line 1 when the
    header's stripped cells are not header, the line of a row with another
    number of fields, and the line at which the csv module gave up, e.g. on
    a field over its size limit.
    """
    reader = csv.reader(io.StringIO(read_text(path)))
    try:
        first = next(reader, [])
        if [c.strip() for c in first] != header:
            raise ParseError(f"{path}:1: expected header {','.join(header)!r}, got {','.join(first)!r}")
        line = reader.line_num + 1
        for row in reader:
            if row:
                if len(row) != len(header):
                    raise ParseError(f"{path}:{line}: expected {len(header)} fields, got {len(row)}")
                yield line, row
            line = reader.line_num + 1
    except csv.Error as exc:
        raise ParseError(f"{path}:{reader.line_num}: {exc}") from None
