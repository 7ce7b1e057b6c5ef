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

Entry rows are read in two steps.  The directive walk only collects
each map block's rows.  One array pass over the rows of all blocks
then checks their bytes: ASCII digits, single spaces, a '-' only at
the start of a word and before a digit, no run of more than 18 digits,
each row holding its block's number of words, every value in [0, p).
It converts them with one numpy call.  If the pass refuses a row, the
per-row loop reads every block again.  That loop also accepts what the
pass leaves to it (tabs, runs of spaces, long zero-padded numbers), and
it writes the message and line number of the first bad row.
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
    for lineno, raw in enumerate(text.splitlines(), start=1):
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


# the array pass reads words of at most this many digits, so each fits in int64
_ARRAY_DIGITS = 18


def _has_run(mask: np.ndarray, length: int) -> bool:
    """Whether mask holds `length` consecutive True values."""
    width = 1
    while width < length:
        step = min(width, length - width)
        mask = mask[:-step] & mask[step:]  # True where a run of width + step starts
        width += step
    return bool(mask.any())


def _in_array_grammar(a: np.ndarray, widths: np.ndarray) -> bool:
    """Whether the bytes a hold rows of words -?[0-9]{1,18}, one space
    between words and a newline between rows, row r holding widths[r]
    words.  Every temporary with one element per byte is uint8 or bool,
    and at most four are alive at once.
    """
    digit = (a - 48) < 10  # uint8 wraps, so only '0'..'9' land below 10
    if _has_run(digit, _ARRAY_DIGITS + 1):
        return False
    # a '-' is not last, not after a digit and not before a non-digit
    minus = a == 45
    if minus[-1] or (minus[1:] & digit[:-1]).any() or (minus[:-1] > digit[1:]).any():
        return False
    gap = a == 32
    gap |= a == 10
    # nothing else, and no two gaps touch (rows are stripped, so none is empty)
    if np.count_nonzero(digit) + np.count_nonzero(minus) + np.count_nonzero(gap) < a.size:
        return False
    if (gap[1:] & gap[:-1]).any():
        return False
    # a row's words end at the gaps up to its newline, so their count is
    # the step between the positions of consecutive newlines among the gaps
    ends = np.concatenate(([0], np.flatnonzero(a[gap] == 10) + 1, [np.count_nonzero(gap) + 1]))
    return np.array_equal(np.diff(ends), widths)


def _entries_by_array(rows: list[str], shapes: list[tuple[int, int]], p: int) -> list[np.ndarray] | None:
    """The entries of every block from one pass over all their rows, or
    None if a row is outside the pass's grammar or holds a bad entry.
    Each row is a stripped, nonempty logical line."""
    if not rows:
        return [np.zeros(shape, dtype=np.int64) for shape in shapes]
    try:
        data = "\n".join(rows).encode("ascii")
    except UnicodeEncodeError:
        return None
    heights, widths = zip(*shapes)
    # a call of its own, so its per-byte temporaries are gone before values exists
    if not _in_array_grammar(np.frombuffer(data, dtype=np.uint8), np.repeat(widths, heights)):
        return None
    values = np.fromstring(data, dtype=np.int64, sep=" ")
    if values.min() < 0 or values.max() >= p:
        return None
    blocks, at = [], 0
    for height, width in shapes:
        blocks.append(values[at:at + height * width].reshape(height, width))
        at += height * width
    return blocks


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


def _read_entries(lines: list[tuple[int, str]], blocks, p: int) -> list[np.ndarray]:
    """The entries of the blocks, each given as (first row's index in
    lines, row count, column count): the array pass, or the per-row loop
    over every block if the pass refuses a row."""
    rows = [body for start, height, _ in blocks for _, body in lines[start:start + height]]
    shapes = [(height, width) for _, height, width in blocks]
    entries = _entries_by_array(rows, shapes, p)
    if entries is None:
        entries = [_entries_by_row(lines[start:start + height], width, p)
                   for start, height, width in blocks]
    return entries


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
    # (kind, i, j) -> (first row's index in lines, rows collected, columns), in document order
    blocks: dict[tuple[str, int, int], tuple[int, int, int]] = {}

    def in_grid(i: int, j: int) -> bool:
        # arithmetic, so a huge grid header allocates nothing per vertex
        return 1 <= i <= grid.m and 1 <= j <= grid.n

    walk_error = None
    try:
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
                if (kind, i, j) in blocks:
                    raise PmodError(f"duplicate map block for {kind} {_vertex(i, j)}", lineno)
                rows, cols = dims[dst], dims[src]
                if rows == 0 or cols == 0:
                    raise PmodError("zero-dimensional arrows must be omitted", lineno)
                got = min(rows, len(lines) - pos)
                blocks[(kind, i, j)] = (pos, got, cols)
                pos += got
                if got < rows:
                    take(f"a row of {cols} entries")  # raises: the document ends in the block
            else:
                raise PmodError(_word("unexpected directive", words[0]), lineno)
    except PmodError as exc:
        walk_error = exc
    # read before raising walk_error, so a bad row above it is reported first
    entries = _read_entries(lines, blocks.values(), field.p)
    if walk_error is not None:
        raise walk_error

    if pos < len(lines):
        raise PmodError("content after END", lines[pos][0])
    # dims holds grid vertices only, so the scan stops within len(dims) + 1 steps
    missing = next((v for v in grid.vertices() if v not in dims), None)
    if missing is not None:
        raise PmodError(f"missing dimension for vertex {missing}")

    maps = {key: FFMatrix._wrap(arr, field.p) for key, arr in zip(blocks, entries)}
    # every block has endpoints of positive dimension, checked at its line
    for kind, feet, (di, dj) in (("h", grid.harrows(), (0, 1)), ("v", grid.varrows(), (1, 0))):
        for i, j in feet:
            if dims[(i, j)] and dims[(i + di, j + dj)] and (kind, i, j) not in maps:
                raise PmodError(f"missing map block for {kind} {(i, j)}")
    hmaps = {(i, j): a for (kind, i, j), a in maps.items() if kind == "h"}
    vmaps = {(i, j): a for (kind, i, j), a in maps.items() if kind == "v"}

    module = PersistenceModule(grid, field, dims, hmaps, vmaps)
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
    for k in range(width):
        scale = 10 ** (width - 1 - k)
        cells[:, :, k] = data // scale % 10 + 48
        if k < width - 1:
            keep[:, :, k] = data >= scale
    cells[:, :, width] = 32
    cells[:, -1, width] = 10
    return cells[keep].tobytes().decode("ascii")


def print_pmod(module: PersistenceModule) -> str:
    """Canonical PMOD document: dims row-major, then h maps, then v maps.

    parse_pmod(print_pmod(M)) reproduces M exactly.
    """
    g = module.grid
    out = io.StringIO()
    out.write("PMOD 1\n")
    out.write(f"field {module.field.p}\n")
    out.write(f"grid {g.m} {g.n}\n")
    for i, j in g.vertices():
        out.write(f"dim {i} {j} {module.dims[(i, j)]}\n")

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
