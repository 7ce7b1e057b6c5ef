"""The PMOD text format for persistence modules, plus output formats.

A PMOD document:

    PMOD 1
    field <p>
    grid <m> <n>
    dim <i> <j> <k>          # once per vertex, any order
    map h <i> <j>            # arrow (i,j) -> (i,j+1), then its rows
    <row of k integers> ...  # codomain-dim rows, domain-dim entries each
    map v <i> <j>            # arrow (i,j) -> (i+1,j), likewise
    ...
    END

'#' starts a comment, blank lines are ignored.  Exactly the arrows
whose domain and codomain are both nonzero-dimensional carry a map
block; all other arrows are zero maps of forced shape and must be
omitted.  Entries are residues in [0, p).  A dimension is at most
MAX_DIM.  Documents describing a non-commuting family of matrices are
rejected.

Entry rows have one definition, the text print_pmod writes for a
block.  When the directive walk reaches a map block, it is read in one
pass, and that reading stands only if the values are residues and
print_pmod would write them as the same text.  For p <= 10 an entry is
one digit and one separator, so the pass takes the ASCII byte at every
even offset of a block of the printed length; for other p numpy parses
the block's words in one call.  Any other block goes to the per-row
loop.  That loop also accepts tabs, runs of spaces, '-0' and
zero-padded numbers, and it writes the message and line number of the
block's first bad row.
"""

from __future__ import annotations

import io
import re

import numpy as np

from .ffmat import FFMatrix, FieldSpec
from .grid import Grid, PersistenceModule, validate
from .intervals import Interval


class PmodError(ValueError):
    """A malformed or inconsistent PMOD document."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


def _logical_lines(text: str):
    r"""Numbered nonblank lines without comments.  Only '\n' ends a line:
    str.splitlines also ends one, even in a comment, at '\f', '\u2028' and others."""
    for lineno, raw in enumerate(text.split("\n"), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            yield lineno, body


# Largest dimension a document may give a vertex.  Validation and the
# path-map table build k x k matrices for a vertex of dimension k even
# when no map block touches it, so without a bound a short document
# could make the parser allocate without limit.
MAX_DIM = 1024

# a row of ASCII integers; checked once per row, not once per entry
_ENTRY_ROW = re.compile(r"-?[0-9]+( -?[0-9]+)*")


def _is_natural(word: str) -> bool:
    """A nonempty run of ASCII digits; str.isdigit alone also accepts '²'."""
    return word.isascii() and word.isdigit()


def _amount(noun: str, value: int) -> str:
    """A noun and a number from the document as a message names them: the
    number up to six digits, else only its length, so no message grows."""
    digits = str(value)
    return f"{noun} {digits}" if len(digits) <= 6 else f"{noun} of {len(digits)} digits"


def _word(noun: str, word: str) -> str:
    """As _amount, for a word: quoted if short, else named by its length."""
    quoted = repr(word)
    return f"{noun} {quoted}" if len(quoted) <= 32 else f"{noun} of {len(word)} characters"


def _vertex(i: int, j: int) -> str:
    return f"({_amount('row', i)}, {_amount('column', j)})"


def _ints(words: list[str], lineno: int) -> list[int]:
    """The words as integers; one too long for int() is a PmodError at lineno."""
    try:
        return list(map(int, words))
    except ValueError:
        raise PmodError(f"integer of {max(map(len, words))} characters is too long", lineno) from None


def _entries_by_row(rows: list[tuple[int, str]], cols: int, p: int) -> np.ndarray:
    """One block's entries read row by row; the first bad row raises its PmodError."""
    body = []
    for rowline, row in rows:
        entries = row.split()
        if _ENTRY_ROW.fullmatch(" ".join(entries)) is None:
            bad = next(w for w in entries if not _is_natural(w.removeprefix("-")))
            raise PmodError(_word("bad matrix entry", bad), rowline)
        vals = _ints(entries, rowline)
        if len(vals) != cols:
            raise PmodError(f"expected {cols} entries, got {len(vals)}", rowline)
        if min(vals) < 0 or max(vals) >= p:
            raise PmodError(f"entries must be residues in [0, {p})", rowline)
        body.append(vals)
    return np.array(body, dtype=np.int64).reshape(len(rows), cols)


def _block_entries(rows: list[tuple[int, str]], cols: int, p: int) -> np.ndarray:
    """One block's entries: a one-pass reading of its rows if print_pmod
    would write those values as the same text, else the per-row loop's."""
    text = "\n".join(body for _, body in rows) + "\n"
    # for p <= 10 print_pmod writes one digit and one separator per entry
    if p <= 10 and text.isascii() and len(text) == 2 * cols * len(rows):
        digits = np.frombuffer(text.encode("ascii"), dtype=np.uint8)[::2]
        values = (digits.astype(np.int64) - ord("0")).reshape(len(rows), cols)
    else:
        try:
            values = np.fromstring(text, dtype=np.int64, sep=" ").reshape(len(rows), cols)
        except ValueError:  # unmatched text, or not rows x cols values
            return _entries_by_row(rows, cols, p)
    # _block_text assumes residues: for p = 3 it would write 5 as '5'
    if 0 <= values.min(initial=0) and values.max(initial=0) < p and _block_text(values, p) == text:
        return values
    return _entries_by_row(rows, cols, p)


def parse_pmod(text: str, *, max_height: int | None = None) -> PersistenceModule:
    """Parse a PMOD document into a validated persistence module.

    Raises PmodError carrying the offending line number for syntax
    problems, and without one for global problems (missing vertices,
    missing or surplus map blocks, a non-commuting square).  A grid
    taller than max_height, if given, fails at its grid line.
    """
    lines = list(_logical_lines(text))
    pos = 0

    def take(expect: str) -> tuple[int, list[str]]:
        nonlocal pos
        if pos >= len(lines):
            raise PmodError(f"unexpected end of document, expected {expect}",
                            lines[-1][0] if lines else 1)
        lineno, body = lines[pos]
        pos += 1
        return lineno, body.split()

    lineno, words = take("header 'PMOD 1'")
    if words != ["PMOD", "1"]:
        raise PmodError("expected header 'PMOD 1'", lineno)
    lineno, words = take("'field <p>'")
    if len(words) != 2 or words[0] != "field" or not _is_natural(words[1]):
        raise PmodError("expected 'field <p>'", lineno)
    (p,) = _ints(words[1:], lineno)
    try:
        field = FieldSpec(p)
    except ValueError as exc:
        message = str(exc) if p < 2**16 else f"{_amount('field modulus', p)} is not below 2**16"
        raise PmodError(message, lineno) from exc
    lineno, words = take("'grid <m> <n>'")
    if len(words) != 3 or words[0] != "grid" or not all(map(_is_natural, words[1:])):
        raise PmodError("expected 'grid <m> <n>'", lineno)
    m, n = _ints(words[1:], lineno)
    try:
        grid = Grid(m, n)
    except ValueError as exc:
        message = f"grid sizes must be positive: {_amount('height', m)}, {_amount('width', n)}"
        raise PmodError(message, lineno) from exc
    if max_height is not None and m > max_height:
        raise PmodError(f"{_amount('grid height', m)} exceeds the bound {max_height}", lineno)

    dims: dict[tuple[int, int], int] = {}
    maps: dict[str, dict[tuple[int, int], FFMatrix]] = {"h": {}, "v": {}}

    def in_grid(i: int, j: int) -> bool:
        # arithmetic, so a huge grid header allocates nothing per vertex
        return 1 <= i <= grid.m and 1 <= j <= grid.n

    while True:
        lineno, words = take("'dim', 'map' or 'END'")
        if words == ["END"]:
            break
        if words[0] == "dim":
            if len(words) != 4 or not all(map(_is_natural, words[1:])):
                raise PmodError("expected 'dim <i> <j> <k>'", lineno)
            i, j, k = _ints(words[1:], lineno)
            if not in_grid(i, j):
                raise PmodError(f"vertex {_vertex(i, j)} outside the grid", lineno)
            if (i, j) in dims:
                raise PmodError(f"duplicate dimension for vertex {_vertex(i, j)}", lineno)
            if k > MAX_DIM:
                raise PmodError(f"{_amount('dimension', k)} exceeds the bound {MAX_DIM}", lineno)
            dims[(i, j)] = k
        elif words[0] == "map":
            if len(words) != 4 or words[1] not in ("h", "v") or not all(map(_is_natural, words[2:])):
                raise PmodError("expected 'map h|v <i> <j>'", lineno)
            kind, (i, j) = words[1], _ints(words[2:], lineno)
            src = (i, j)
            dst = (i, j + 1) if kind == "h" else (i + 1, j)
            if not (in_grid(*src) and in_grid(*dst)):
                raise PmodError(f"arrow {_vertex(i, j)} has no {kind} successor in the grid", lineno)
            if src not in dims or dst not in dims:
                raise PmodError("map block before the dimensions of both endpoints", lineno)
            if (i, j) in maps[kind]:
                raise PmodError(f"duplicate map block for {kind} {_vertex(i, j)}", lineno)
            rows, cols = dims[dst], dims[src]
            if rows == 0 or cols == 0:
                raise PmodError("zero-dimensional arrows must be omitted", lineno)
            block = lines[pos:pos + rows]
            pos += len(block)
            maps[kind][(i, j)] = FFMatrix._wrap(_block_entries(block, cols, field.p), field.p)
            if len(block) < rows:
                take(f"a row of {cols} entries")  # raises: the document ends in the block
        else:
            raise PmodError(_word("unexpected directive", words[0]), lineno)

    if pos < len(lines):
        raise PmodError("content after END", lines[pos][0])
    # dims holds grid vertices only, so the scan stops within len(dims) + 1 steps
    missing = next((v for v in grid.vertices() if v not in dims), None)
    if missing is not None:
        raise PmodError(f"missing dimension for vertex {missing}")

    # every block has endpoints of positive dimension, checked at its line
    for kind, feet, (di, dj) in (("h", grid.harrows(), (0, 1)), ("v", grid.varrows(), (1, 0))):
        for i, j in feet:
            if dims[(i, j)] and dims[(i + di, j + dj)] and (i, j) not in maps[kind]:
                raise PmodError(f"missing map block for {kind} {(i, j)}")

    module = PersistenceModule(grid, field, dims, maps["h"], maps["v"])
    bad = validate(module)
    if bad is not None:
        raise PmodError(f"square at ({bad[0]}, {bad[1]}) does not commute")
    return module


def _block_text(data: np.ndarray, p: int) -> str:
    """The rows of a matrix with entries in [0, p) as decimal words, one
    space between and a newline after each row, built as bytes: every
    entry gets the digits of p - 1 and then loses its leading zeros."""
    width = len(str(p - 1))
    cells = np.empty(data.shape + (width + 1,), dtype=np.uint8)
    keep = np.ones(cells.shape, dtype=bool)
    values = data.astype(np.uint32)  # divides faster than int64
    high = 0
    for k in range(width):
        lead = values // 10 ** (width - 1 - k)  # the entry's first k + 1 of width digits
        cells[:, :, k] = lead - high
        high = 10 * lead
        if k < width - 1:
            keep[:, :, k] = lead != 0
    cells += 48
    cells[:, :, width] = 32
    cells[:, -1, width] = 10
    return cells[keep].tobytes().decode("ascii")


def print_pmod(module: PersistenceModule) -> str:
    """Canonical PMOD document: dims row-major, then h maps, then v maps.

    parse_pmod(print_pmod(M)) reproduces M exactly.  A module with a
    dimension above MAX_DIM has no such document and raises ValueError.
    """
    g = module.grid
    out = io.StringIO()
    out.write("PMOD 1\n")
    out.write(f"field {module.field.p}\n")
    out.write(f"grid {g.m} {g.n}\n")
    for i, j in g.vertices():
        k = module.dims[(i, j)]
        if k > MAX_DIM:
            raise ValueError(f"vertex ({i}, {j}) has dimension {k}, above the PMOD bound MAX_DIM = {MAX_DIM}")
        out.write(f"dim {i} {j} {k}\n")

    def emit(kind: str, feet, mats) -> None:
        for v in feet:
            mat = mats[v]
            if mat.rows == 0 or mat.cols == 0:
                continue
            out.write(f"map {kind} {v[0]} {v[1]}\n")
            out.write(_block_text(mat.data, mat.p))

    emit("h", g.harrows(), module.hmaps)
    emit("v", g.varrows(), module.vmaps)
    out.write("END\n")
    return out.getvalue()


def format_interval_function(f: dict[Interval, int]) -> str:
    """'<value> <interval>' lines in canonical order, zeros omitted."""
    lines = [f"{v} {I.to_string()}" for I, v in sorted(f.items()) if v != 0]
    return "\n".join(lines) + ("\n" if lines else "")


def format_signed_sum(coeffs: dict[Interval, int]) -> str:
    """Signed sum serialisation: 'APPROX ss' header, then coefficient lines."""
    return "APPROX ss\n" + format_interval_function(coeffs)
