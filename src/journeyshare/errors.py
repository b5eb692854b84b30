"""Exception hierarchy shared by all journeyshare modules.

Everything raised on purpose derives from JourneyShareError so the CLI can
map input problems to exit code 1 and internal invariant violations to 2.
read_text is the one reader of input files, so that undecodable bytes are a
ParseError too, and csv_rows the one CSV parser, so that malformed CSV is one.
"""

import csv
from pathlib import Path
from typing import Iterable, Iterator


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


def csv_rows(lines: Iterable[str], name: str) -> Iterator[tuple[int, list[str]]]:
    """The rows of csv.reader(lines), each with the line it starts on.

    A quoted field may span lines, so a row starts on the line after the
    one where the previous row ended.  Raises ParseError naming name and the
    line at which the csv module gave up, e.g. on a field over its size limit.
    """
    reader = csv.reader(lines)
    line = 1
    try:
        for row in reader:
            yield line, row
            line = reader.line_num + 1
    except csv.Error as exc:
        raise ParseError(f"{name}:{reader.line_num}: {exc}") from None
