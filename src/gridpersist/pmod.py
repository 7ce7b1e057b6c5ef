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
"""

from __future__ import annotations

import io
import re

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


def parse_pmod(text: str) -> PersistenceModule:
    """Parse a PMOD document into a validated persistence module.

    Raises PmodError carrying the offending line number for syntax
    problems, and without one for global problems (missing vertices,
    missing or surplus map blocks, a non-commuting square).
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

    dims: dict[tuple[int, int], int] = {}
    maps: dict[tuple[str, int, int], FFMatrix] = {}

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
            if (kind, i, j) in maps:
                raise PmodError(f"duplicate map block for {kind} {_vertex(i, j)}", lineno)
            rows, cols = dims[dst], dims[src]
            if rows == 0 or cols == 0:
                raise PmodError("zero-dimensional arrows must be omitted", lineno)
            body = []
            for _ in range(rows):
                rowline, entries = take(f"a row of {cols} entries")
                if _ENTRY_ROW.fullmatch(" ".join(entries)) is None:
                    bad = next(w for w in entries if not _is_natural(w.removeprefix("-")))
                    raise PmodError(_word("bad matrix entry", bad), rowline)
                vals = _ints(entries, rowline)
                if len(vals) != cols:
                    raise PmodError(f"expected {cols} entries, got {len(vals)}", rowline)
                if min(vals) < 0 or max(vals) >= field.p:
                    raise PmodError(f"entries must be residues in [0, {field.p})", rowline)
                body.append(vals)
            maps[(kind, i, j)] = FFMatrix(body, field.p)
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
            if dims[(i, j)] and dims[(i + di, j + dj)] and (kind, i, j) not in maps:
                raise PmodError(f"missing map block for {kind} {(i, j)}")
    hmaps = {(i, j): a for (kind, i, j), a in maps.items() if kind == "h"}
    vmaps = {(i, j): a for (kind, i, j), a in maps.items() if kind == "v"}

    module = PersistenceModule(grid, field, dims, hmaps, vmaps)
    bad = validate(module)
    if bad is not None:
        raise PmodError(f"square at ({bad[0]}, {bad[1]}) does not commute")
    return module


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
            for row in mat.data.tolist():
                out.write(" ".join(map(str, row)) + "\n")

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
