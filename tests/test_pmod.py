"""PMOD text format: round trips and the rejection corpus."""

from __future__ import annotations

import time
import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gridpersist.pmod as pmod
from gridpersist.ffmat import FieldSpec
from gridpersist.generators import (
    example_module,
    make_rng,
    random_interval_decomposable,
    random_module,
    staircase_family_module,
)
from gridpersist.grid import Grid, PersistenceModule, rank_invariant
from gridpersist.intervals import Interval
from gridpersist.pmod import (
    MAX_DIM,
    PmodError,
    format_interval_function,
    format_signed_sum,
    parse_pmod,
    print_pmod,
)

iv = Interval.from_string

GOOD = """\
PMOD 1
field 2
grid 2 2
dim 1 1 1
dim 1 2 1
dim 2 1 1
dim 2 2 1
map h 1 1
1
map h 2 1
1
map v 1 1
1
map v 1 2
1
END
"""


class TestRoundTrip:
    def test_parse_then_print_is_canonical(self):
        m = parse_pmod(GOOD)
        assert print_pmod(m) == GOOD

    def test_example_module(self):
        m = example_module()
        assert parse_pmod(print_pmod(m)).hmaps == m.hmaps

    @pytest.mark.parametrize("p", [2, 3, 251])
    def test_random_modules(self, p):
        rng = make_rng(60 + p)
        for n, d in [(1, 2), (3, 3), (5, 2)]:
            m = random_module(n, d, FieldSpec(p), rng)
            back = parse_pmod(print_pmod(m))
            assert back.dims == m.dims
            assert back.hmaps == m.hmaps and back.vmaps == m.vmaps
            assert back.field == m.field

    def test_zero_dimensional_blocks_omitted(self):
        m = staircase_family_module(1)
        text = print_pmod(m)
        assert "map h 2 4" not in text  # (2,4) -> (2,5) has zero target
        assert "map v 1 1" not in text  # (1,1) has dimension zero
        back = parse_pmod(text)
        assert rank_invariant(back) == rank_invariant(m)

    def test_comments_and_blank_lines_ignored(self):
        noisy = GOOD.replace("PMOD 1", "# leading comment\n\nPMOD 1  # trailing")
        assert print_pmod(parse_pmod(noisy)) == GOOD


def _replace_line(doc: str, old: str, new: str) -> str:
    assert old in doc
    return doc.replace(old, new)


REJECTS = [
    ("empty document", "", 1),
    ("bad magic", _replace_line(GOOD, "PMOD 1", "PMOD 2"), 1),
    ("missing field", _replace_line(GOOD, "field 2\n", ""), 2),
    ("composite modulus", _replace_line(GOOD, "field 2", "field 6"), 2),
    ("modulus one", _replace_line(GOOD, "field 2", "field 1"), 2),
    ("huge modulus", _replace_line(GOOD, "field 2", "field 65537"), 2),
    ("bad grid arity", _replace_line(GOOD, "grid 2 2", "grid 2"), 3),
    ("zero grid", _replace_line(GOOD, "grid 2 2", "grid 0 2"), 3),
    ("dim arity", _replace_line(GOOD, "dim 1 1 1", "dim 1 1"), 4),
    ("dim outside grid", _replace_line(GOOD, "dim 2 2 1", "dim 3 2 1"), 7),
    ("duplicate dim", _replace_line(GOOD, "dim 1 2 1", "dim 1 1 1"), 5),
    ("map kind", _replace_line(GOOD, "map h 1 1", "map x 1 1"), 8),
    ("map off the grid", _replace_line(GOOD, "map h 2 1", "map h 2 2"), 10),
    ("map before dims", "PMOD 1\nfield 2\ngrid 1 2\nmap h 1 1\n1\nEND\n", 4),
    ("duplicate map", _replace_line(GOOD, "map v 1 2", "map h 1 1"), 14),
    ("bad entry token", _replace_line(GOOD, "map h 1 1\n1", "map h 1 1\nx"), 9),
    ("entry out of range", _replace_line(GOOD, "map h 1 1\n1", "map h 1 1\n2"), 9),
    ("negative entry", _replace_line(GOOD, "map h 1 1\n1", "map h 1 1\n-1"), 9),
    ("superscript modulus", _replace_line(GOOD, "field 2", "field \u00b2"), 2),
    ("superscript grid size", _replace_line(GOOD, "grid 2 2", "grid 2 \u00b2"), 3),
    ("superscript dimension", _replace_line(GOOD, "dim 1 1 1", "dim 1 1 \u00b3"), 4),
    ("superscript map foot", _replace_line(GOOD, "map h 1 1", "map h 1 \u00b9"), 8),
    ("superscript entry", _replace_line(GOOD, "map h 1 1\n1", "map h 1 1\n\u00b9"), 9),
    ("row too long", _replace_line(GOOD, "map h 1 1\n1", "map h 1 1\n1 0"), 9),
    ("truncated rows", _replace_line(GOOD, "map v 1 2\n1\nEND\n", "map v 1 2\nEND\n"), 15),
    ("unknown directive", _replace_line(GOOD, "map v 1 2", "spam v 1 2"), 14),
    ("content after END", GOOD + "dim 1 1 1\n", 17),
    # checks of the whole document fail at the END line; (2, 2) loses its
    # dimension and both its map blocks, which would fail first at their lines
    ("missing vertex dim", GOOD.replace("dim 2 2 1\n", "").replace("map h 2 1\n1\n", "")
     .replace("map v 1 2\n1\n", ""), 11),
    ("missing map block", _replace_line(GOOD, "map v 1 2\n1\n", ""), 14),
    ("non-commuting square", _replace_line(GOOD, "map h 2 1\n1", "map h 2 1\n0"), 16),
    # int() refuses more than 4300 digits
    ("5000-digit dimension", _replace_line(GOOD, "dim 1 1 1", "dim 1 1 " + "1" * 5000), 4),
    ("5000-digit map foot", _replace_line(GOOD, "map h 1 1", "map h 1 " + "1" * 5000), 8),
    ("5000-digit entry", _replace_line(GOOD, "map h 1 1\n1", "map h 1 1\n" + "1" * 5000), 9),
    ("4000-digit modulus", _replace_line(GOOD, "field 2", "field " + "9" * 4000), 2),
    ("5000-digit modulus", _replace_line(GOOD, "field 2", "field " + "1" * 5000), 2),
    ("5000-digit grid size", _replace_line(GOOD, "grid 2 2", "grid " + "1" * 5000 + " 2"), 3),
    ("4000-digit grid size", _replace_line(GOOD, "grid 2 2", "grid 0 " + "9" * 4000), 3),
    ("4000-digit dim column", _replace_line(GOOD, "dim 1 1 1", "dim 1 " + "9" * 4000 + " 1"), 4),
    ("4000-digit dimension", _replace_line(GOOD, "dim 1 1 1", "dim 1 1 " + "9" * 4000), 4),
    ("4000-digit map foot", _replace_line(GOOD, "map h 1 1", "map h 1 " + "9" * 4000), 8),
    ("4000-character entry", _replace_line(GOOD, "map h 1 1\n1", "map h 1 1\n" + "x" * 4000), 9),
    ("4000-character directive", _replace_line(GOOD, "map v 1 2", "y" * 4000 + " v 1 2"), 14),
    (
        "zero-dim map block",
        "PMOD 1\nfield 2\ngrid 1 2\ndim 1 1 1\ndim 1 2 0\nmap h 1 1\n0\nEND\n",
        6,
    ),
]


# exact messages of some REJECTS: long numbers and words are named by their length, not echoed
REJECT_MESSAGES = {
    "4000-digit modulus": "line 2: field modulus of 4000 digits is not below 2**16",
    "5000-digit modulus": "line 2: integer of 5000 characters is too long",
    "5000-digit grid size": "line 3: integer of 5000 characters is too long",
    "4000-digit grid size": "line 3: grid sizes must be positive: height 0, width of 4000 digits",
    "4000-digit dim column": "line 4: vertex (row 1, column of 4000 digits) outside the grid",
    "4000-digit dimension": "line 4: dimension of 4000 digits exceeds the bound 1024",
    "4000-digit map foot": "line 8: arrow (row 1, column of 4000 digits) has no h successor in the grid",
    "4000-character entry": "line 9: bad matrix entry of 4000 characters",
    "4000-character directive": "line 14: unexpected directive of 4000 characters",
    "unknown directive": "line 14: unexpected directive 'spam'",
    "missing vertex dim": "line 11: missing dimension for vertex (2, 2)",
    "missing map block": "line 14: missing map block for v (1, 2)",
    "non-commuting square": "line 16: square at (1, 1) does not commute",
}


class TestRejection:
    @pytest.mark.parametrize("label,doc,line", REJECTS, ids=[r[0] for r in REJECTS])
    def test_rejected_with_line(self, label, doc, line):
        with pytest.raises(PmodError) as err:
            parse_pmod(doc)
        assert err.value.line == line, str(err.value)
        assert len(str(err.value)) < 120, str(err.value)[:120]
        if label in REJECT_MESSAGES:
            assert str(err.value) == REJECT_MESSAGES[label]

    @pytest.mark.parametrize("row,message", [
        ("1 -0", None),
        ("1 \t 2", None),
        ("1 -1", "line 7: entries must be residues in [0, 3)"),
        ("1 3", "line 7: entries must be residues in [0, 3)"),
        ("1 \u00b2", "line 7: bad matrix entry '\u00b2'"),
        ("x \u00b2", "line 7: bad matrix entry 'x'"),
        ("1 --1", "line 7: bad matrix entry '--1'"),
        ("1 -", "line 7: bad matrix entry '-'"),
        ("+1 0", "line 7: bad matrix entry '+1'"),
        ("1_0 1", "line 7: bad matrix entry '1_0'"),
        ("1 x 0", "line 7: bad matrix entry 'x'"),
        ("1 2 0", "line 7: expected 2 entries, got 3"),
        ("1", "line 7: expected 2 entries, got 1"),
    ])
    def test_entry_row_messages(self, row, message):
        doc = f"PMOD 1\nfield 3\ngrid 1 2\ndim 1 1 2\ndim 1 2 1\nmap h 1 1\n{row}\nEND\n"
        if message is None:
            expect = [[int(w) for w in row.split()]]
            assert parse_pmod(doc).hmaps[(1, 1)].tolist() == expect
            return
        with pytest.raises(PmodError) as err:
            parse_pmod(doc)
        assert str(err.value) == message

    @pytest.mark.parametrize("sep", ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
    def test_comments_run_to_the_newline(self, sep):
        # only '\n' ends a line: a separator that str.splitlines breaks at
        # leaves the rest of its comment a comment
        one = "PMOD 1\nfield 2\ngrid 1 1\n# " + sep + " dim 1 1 1\nEND\n"
        with pytest.raises(PmodError, match="missing dimension"):
            parse_pmod(one)
        with pytest.raises(PmodError) as err:
            parse_pmod("PMOD 1\n# note" + sep + "field 3\nfield 2\ngrid 2\n")
        assert str(err.value) == "line 4: expected 'grid <m> <n>'"
        # a later error keeps the line number of its own line
        with pytest.raises(PmodError) as err:
            parse_pmod(GOOD.replace("dim 2 1 1", "dim 2 1 1 # x" + sep + "y").replace("dim 2 2 1", "dim 2 2"))
        assert err.value.line == 7
        trailing = GOOD + "# x" + sep + "junk\n"
        assert print_pmod(parse_pmod(trailing)) == GOOD
        assert print_pmod(parse_pmod(GOOD.replace("\n", "\r\n"))) == GOOD

    def test_noncommuting_square_names_square(self):
        bad = _replace_line(GOOD, "map h 2 1\n1", "map h 2 1\n0")
        with pytest.raises(PmodError, match=r"square at \(1, 1\)"):
            parse_pmod(bad)


def _rows_doc(p: int, blocks: int) -> tuple[list[str], int, int, int]:
    """A valid document on a 1 x (blocks + 1) grid as lines, and the index,
    height and width of the rows under test: those of the middle block.
    With height 1 no square has to commute."""
    dims = [3, 4, 4, 3][: blocks + 1]
    lines = ["PMOD 1", f"field {p}", f"grid 1 {len(dims)}"]
    lines += [f"dim 1 {j} {k}" for j, k in enumerate(dims, start=1)]
    rng = make_rng(p)
    for j in range(1, len(dims)):
        lines.append(f"map h 1 {j}")
        if j == (blocks + 1) // 2:
            first = len(lines)
        lines += [" ".join(map(str, rng.integers(0, p, dims[j - 1]))) for _ in range(dims[j])]
    lines.append("END")
    middle = (blocks + 1) // 2
    return lines, first, dims[middle], dims[middle - 1]


def _text(lines: list[str]) -> str:
    return "\n".join(lines) + "\n"


# (word put last in a row, exact message after "line L: ")
BAD_WORDS = [
    ("+1", "bad matrix entry '+1'"),
    ("1_0", "bad matrix entry '1_0'"),
    ("\u00b2", "bad matrix entry '\u00b2'"),
    ("\u0663", "bad matrix entry '\u0663'"),  # ARABIC-INDIC DIGIT THREE: int() reads it as 3
    ("--1", "bad matrix entry '--1'"),
    ("1-2", "bad matrix entry '1-2'"),
    ("1-", "bad matrix entry '1-'"),
    ("-", "bad matrix entry '-'"),
    ("-1", "entries must be residues in [0, {p})"),
    ("{p}", "entries must be residues in [0, {p})"),
    ("1" * 5000, "integer of 5000 characters is too long"),
]
ROW_AT = {"first": lambda height: 0, "middle": lambda height: height // 2, "last": lambda height: height - 1}
DOCS = pytest.mark.parametrize("blocks", [1, 3], ids=["one block", "three blocks"])
FIELDS = pytest.mark.parametrize("p", [2, 65521])


def _entry_rows(text: str) -> tuple[list[str], list[int]]:
    """The lines of a printed document, and the indices of its entry rows."""
    lines = text.split("\n")
    return lines, [k for k, line in enumerate(lines) if line[:1].isdigit()]


def _outcome(text: str):
    """The parts of the module parse_pmod reads from text, or its PmodError's text."""
    try:
        m = parse_pmod(text)
    except PmodError as exc:
        return str(exc)
    return m.field, m.dims, m.hmaps, m.vmaps


def _row_loop_outcome(text: str):
    """_outcome with every block read by the per-row loop."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pmod, "_block_entries", pmod._entries_by_row)
        return _outcome(text)


# what a printed row's gap k becomes, and the format its word k is put in
_GAP_EDITS = {"tab": "\t", "double space": "  "}
_WORD_EDITS = {"leading zeros": "00{}", "sign +": "+{}", "sign -": "-{}", "-": "-", "x": "x",
               "dash after": "{} -"}


def _edit_row(row: str, op: str, k: int) -> str:
    """A printed row with one edit at its gap, word or character k."""
    words = row.split(" ")
    if op == "truncation":
        return row[:k % (len(row) + 1)]
    if op in _GAP_EDITS:
        k %= len(words) + 1
        return " ".join(words[:k]) + _GAP_EDITS[op] + " ".join(words[k:])
    k %= len(words)
    words[k] = _WORD_EDITS[op].format(words[k])
    return " ".join(words)


# edits as (row, edit, position), each number taken modulo what it indexes
_EDITS = st.lists(st.tuples(st.integers(0, 10**6), st.sampled_from(["truncation", *_GAP_EDITS, *_WORD_EDITS]),
                            st.integers(0, 10**6)), min_size=1, max_size=3)


class TestEntryRows:
    """Every bad row reaches the per-row loop, which names the first one
    with its exact message and line; numpy's reading of a block stands only
    where the loop would read the same."""

    @FIELDS
    @DOCS
    @pytest.mark.parametrize("where", list(ROW_AT))
    @pytest.mark.parametrize("word,message", BAD_WORDS, ids=[w[:8] for w, _ in BAD_WORDS])
    def test_bad_word(self, p, blocks, where, word, message):
        lines, first, height, _ = _rows_doc(p, blocks)
        at = first + ROW_AT[where](height)
        lines[at] = lines[at].rsplit(" ", 1)[0] + " " + word.format(p=p)
        with pytest.raises(PmodError) as err:
            parse_pmod(_text(lines))
        assert str(err.value) == f"line {at + 1}: " + message.format(p=p)

    @FIELDS
    @DOCS
    @pytest.mark.parametrize("where", list(ROW_AT))
    @pytest.mark.parametrize("extra", [1, -1], ids=["one too many", "one too few"])
    def test_word_count_with_the_block_total_right(self, p, blocks, where, extra):
        # the row gains (or loses) a word and a neighbour loses (or gains) one
        lines, first, height, width = _rows_doc(p, blocks)
        row = ROW_AT[where](height)
        other = row + 1 if row + 1 < height else row - 1
        for k, change in ((row, extra), (other, -extra)):
            words = lines[first + k].split()
            lines[first + k] = " ".join(words + ["0"] if change > 0 else words[:-1])
        bad, change = min((row, extra), (other, -extra))
        with pytest.raises(PmodError) as err:
            parse_pmod(_text(lines))
        assert str(err.value) == f"line {first + bad + 1}: expected {width} entries, got {width + change}"

    @FIELDS
    @DOCS
    @pytest.mark.parametrize("label,clean_first,spell", [
        ("tabs", None, "\t".join),
        ("double spaces", None, "  ".join),
        ("-0", "0", lambda words: " ".join(["-0"] + words[1:])),
        ("25 digits", "1", lambda words: " ".join(["0" * 24 + "1"] + words[1:])),
    ])
    def test_rows_the_loop_accepts(self, p, blocks, label, clean_first, spell):
        lines, first, height, _ = _rows_doc(p, blocks)
        at = first + height // 2
        words = lines[at].split()
        if clean_first is not None:
            words[0] = clean_first
        lines[at] = " ".join(words)
        clean = parse_pmod(_text(lines))
        lines[at] = spell(words)
        assert parse_pmod(_text(lines)).hmaps == clean.hmaps

    @FIELDS
    @DOCS
    def test_double_space_in_place_of_a_word(self, p, blocks):
        # the row's gaps still count a full row, but it holds one word less
        lines, first, height, width = _rows_doc(p, blocks)
        at = first + height // 2
        words = lines[at].split()
        lines[at] = " ".join(words[:-2]) + "  " + words[-1]
        with pytest.raises(PmodError) as err:
            parse_pmod(_text(lines))
        assert str(err.value) == f"line {at + 1}: expected {width} entries, got {width - 1}"

    # rows that are close to the printed format, one or two to a string
    @pytest.mark.parametrize("p", [2, 65521])
    @pytest.mark.parametrize("rows", [
        "1 2\n3 45 6", "-1 0\n-0", "1" * 18 + "\n-" + "0" * 18, "1" * 19, "0" * 19, "1  2",
        "1 \n2", "1 2\n3", "1\t2", "1 -", "1-2", "-",
    ])
    def test_rows_read_as_by_the_row_loop(self, p, rows):
        # a 1 x 2 grid, so a changed entry leaves no square to commute
        doc = f"PMOD 1\nfield {p}\ngrid 1 2\ndim 1 1 2\ndim 1 2 2\nmap h 1 1\n0 1\n1 0\nEND\n"
        lines, at = _entry_rows(print_pmod(parse_pmod(doc)))
        # the block's last rows, as numpy reads a '-' before a row break as -(next number)
        lines[at[-1] - rows.count("\n"):at[-1] + 1] = rows.split("\n")
        text = "\n".join(lines)
        assert _outcome(text) == _row_loop_outcome(text)

    @given(st.sampled_from([2, 3, 65521]), st.integers(1, 3), st.integers(1, 3), st.integers(0, 2**16),
           _EDITS)
    @settings(max_examples=300, deadline=None)
    def test_edited_printed_modules_read_as_by_the_row_loop(self, p, n, d, seed, edits):
        lines, rows = _entry_rows(print_pmod(random_module(n, d, FieldSpec(p), make_rng(seed))))
        for row, op, k in edits:
            at = rows[row % len(rows)]
            lines[at] = _edit_row(lines[at], op, k)
        text = "\n".join(lines)
        assert _outcome(text) == _row_loop_outcome(text)

    @pytest.mark.parametrize("spell", [
        lambda row: row.replace(" ", "\t", 1),
        lambda row: row.replace(" 1 ", " 001 ", 1),
        lambda row: row.replace(" 0 ", " -0 ", 1),
        lambda row: row.replace(" 1 ", " " + "0" * 24 + "1 ", 1),
    ], ids=["tab", "zero-padded", "-0", "25 digits"])
    def test_one_odd_row_sends_only_its_block_to_the_row_loop(self, spell, monkeypatch):
        text = print_pmod(random_module(12, 100, FieldSpec(2), make_rng(0)))
        lines, rows = _entry_rows(text)
        at = rows[len(rows) // 2]
        row, lines[at] = lines[at], spell(lines[at])
        assert lines[at] != row
        calls = []
        by_row = pmod._entries_by_row

        def counted(block, cols, p):
            calls.append([rowline for rowline, _ in block])
            return by_row(block, cols, p)

        monkeypatch.setattr(pmod, "_entries_by_row", counted)
        back, clean = parse_pmod("\n".join(lines)), parse_pmod(text)
        assert back.hmaps == clean.hmaps and back.vmaps == clean.vmaps
        assert len(calls) == 1 and at + 1 in calls[0] and len(calls[0]) == 100

    @pytest.mark.parametrize("fault", ["duplicate map block", "unknown directive", "ends in a block",
                                       "content after END", "missing map block"])
    def test_bad_row_is_reported_before_a_later_fault(self, fault):
        lines, first, _, _ = _rows_doc(2, 3)
        lines[first + 1] = "1 x 0"
        last_map = lines.index("map h 1 3")
        if fault == "duplicate map block":
            lines[last_map] = "map h 1 2"
        elif fault == "unknown directive":
            lines[last_map] = "spam"
        elif fault == "ends in a block":
            del lines[-2:]
        elif fault == "content after END":
            lines.append("dim 1 1 1")
        else:
            del lines[last_map:-1]
        with pytest.raises(PmodError) as err:
            parse_pmod(_text(lines))
        assert str(err.value) == f"line {first + 2}: bad matrix entry 'x'"

    def test_printed_modules_never_reach_the_row_loop(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the per-row loop read a printed module")

        monkeypatch.setattr(pmod, "_entries_by_row", refuse)
        modules = [random_module(4, 20, FieldSpec(p), make_rng(p)) for p in (2, 3, 65521)]
        for m in modules + [example_module()]:
            back = parse_pmod(print_pmod(m))
            assert (back.field, back.dims) == (m.field, m.dims)
            assert back.hmaps == m.hmaps and back.vmaps == m.vmaps


# how a row of a single-digit block is changed: (label, edit of the row's words)
_DIGIT_ROW_EDITS = [
    ("tab", lambda words, p: "\t".join(words)),
    ("double space", lambda words, p: "  ".join(words)),
    ("commas", lambda words, p: ",".join(words)),  # the digits stay at even offsets
    ("-0", lambda words, p: " ".join(["-0"] + words[1:])),
    ("01", lambda words, p: " ".join(["01"] + words[1:])),
    ("row '1 -'", lambda words, p: "1 -"),
    ("superscript two", lambda words, p: " ".join(["\u00b2"] + words[1:])),
    ("arabic-indic three", lambda words, p: " ".join(["\u0663"] + words[1:])),
    ("entry p", lambda words, p: " ".join([str(p)] + words[1:])),
    ("entry 9", lambda words, p: " ".join(["9"] + words[1:])),
    ("short row", lambda words, p: " ".join(words[:-1])),
    ("trailing comment", lambda words, p: " ".join(words) + " # 1 0"),
]


class TestSingleDigitBlocks:
    """For p <= 10 a block is read from its bytes, a digit at every even
    offset; any block that is not print_pmod's text for its values gets
    the per-row loop's values or PmodError, at the row's own line."""

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    @pytest.mark.parametrize("label,edit", _DIGIT_ROW_EDITS, ids=[e[0] for e in _DIGIT_ROW_EDITS])
    def test_edited_row(self, p, label, edit):
        lines, first, height, _ = _rows_doc(p, 3)
        at = first + height // 2
        lines[at] = edit(lines[at].split(), p)
        text = _text(lines)
        outcome = _outcome(text)
        assert outcome == _row_loop_outcome(text)
        if isinstance(outcome, str):
            assert outcome.startswith(f"line {at + 1}: ")

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_comment_lines_inside_a_block(self, p):
        lines, first, height, _ = _rows_doc(p, 3)
        clean = parse_pmod(_text(lines))
        lines[first + height // 2:first + height // 2] = ["# a comment", "", "   # another"]
        text = _text(lines)
        assert _outcome(text) == _row_loop_outcome(text)
        assert parse_pmod(text).hmaps == clean.hmaps

    def test_printed_blocks_are_not_parsed_by_numpy(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("numpy parsed a single-digit block")

        modules = [random_module(4, 20, FieldSpec(p), make_rng(p)) for p in (2, 3, 5, 7)]
        monkeypatch.setattr(np, "fromstring", refuse)
        for m in modules:
            back = parse_pmod(print_pmod(m))
            assert back.hmaps == m.hmaps and back.vmaps == m.vmaps

    @given(st.sampled_from([2, 3, 5, 7]), st.integers(1, 5), st.integers(0, 6), st.booleans(),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_round_trip(self, p, n, d, sums, seed):
        rng, field = make_rng(seed), FieldSpec(p)
        if sums:
            m = random_interval_decomposable(2, n, d, field, rng)[0]
        else:
            m = random_module(n, d, field, rng)
        back = parse_pmod(print_pmod(m))
        assert (back.field, back.dims) == (m.field, m.dims)
        assert back.hmaps == m.hmaps and back.vmaps == m.vmaps


class TestTallGrid:
    TALL = "PMOD 1\nfield 2\ngrid 3 1\nspam\n"

    def test_library_reads_past_the_grid_line(self):
        with pytest.raises(PmodError) as err:
            parse_pmod(self.TALL)
        assert str(err.value) == "line 4: unexpected directive 'spam'"

    def test_max_height_fails_at_the_grid_line(self):
        with pytest.raises(PmodError) as err:
            parse_pmod(self.TALL, max_height=2)
        assert str(err.value) == "line 3: grid height 3 exceeds the bound 2"
        with pytest.raises(PmodError) as err:
            parse_pmod(self.TALL.replace("grid 3", "grid " + "9" * 4000), max_height=2)
        assert str(err.value) == "line 3: grid height of 4000 digits exceeds the bound 2"


def _print_by_rows(module: PersistenceModule) -> str:
    """print_pmod written one Python row at a time, as an oracle."""
    g = module.grid
    out = ["PMOD 1", f"field {module.field.p}", f"grid {g.m} {g.n}"]
    out += [f"dim {i} {j} {module.dims[(i, j)]}" for i, j in g.vertices()]
    for kind, feet, mats in (("h", g.harrows(), module.hmaps), ("v", g.varrows(), module.vmaps)):
        for v in feet:
            if mats[v].rows and mats[v].cols:
                out.append(f"map {kind} {v[0]} {v[1]}")
                out += [" ".join(map(str, row)) for row in mats[v].data.tolist()]
    return "\n".join(out + ["END"]) + "\n"


class TestPrinting:
    @pytest.mark.parametrize("p", [2, 3, 11, 101, 65521])
    def test_equals_the_row_by_row_text(self, p):
        m = random_module(3, 7, FieldSpec(p), make_rng(p))
        assert print_pmod(m) == _print_by_rows(m)

    @pytest.mark.parametrize("p", [2, 3, 11, 101, 65521])
    def test_entries_of_every_length(self, p):
        values = [v for v in (0, 1, 9, 10, 99, 100, 999, 1000, 9999, 10000, p - 1) if v < p]
        data = np.array([values, values[::-1]], dtype=np.int64)
        rows = [" ".join(map(str, values)), " ".join(map(str, values[::-1]))]
        assert pmod._block_text(data, p) == "\n".join(rows) + "\n"


def _small(top: int = 3):
    return st.integers(0, top).map(str)


# Lines close to the grammar; dimensions stay small because validate
# multiplies maps of those sizes.
_LINES = st.one_of(
    st.sampled_from(["PMOD 1", "END", "# note", "", "field 2", "field 3", "field 4", "field 0"]),
    st.builds("grid {} {}".format, _small(), st.sampled_from(["0", "1", "2", "3", "1000000000"])),
    st.builds("dim {} {} {}".format, _small(), _small(), _small(2)),
    st.builds("map {} {} {}".format, st.sampled_from(["h", "v", "d"]), _small(), _small()),
    st.lists(st.sampled_from(["0", "1", "2", "-1", "x", "²", "--1"]), max_size=3).map(" ".join),
    st.text(max_size=8),
)


def _edit(doc: str, edits) -> str:
    lines = doc.splitlines()
    for at, op, line in edits:
        at %= len(lines) + 1
        if op == "insert":
            lines.insert(at, line)
        elif at < len(lines):
            lines[at:at + 1] = [] if op == "delete" else [line]
    return "\n".join(lines)


# Valid documents with a few lines inserted, deleted or replaced, and
# free-form line sequences.
_DOCUMENTS = st.one_of(
    st.builds(
        _edit,
        st.sampled_from([GOOD, print_pmod(example_module(FieldSpec(3))),
                         "PMOD 1\nfield 2\ngrid 2 1000000000\nEND\n"]),
        st.lists(st.tuples(st.integers(2, 40), st.sampled_from(["insert", "delete", "replace"]),
                           _LINES), max_size=3),
    ),
    st.builds("{}{}".format, st.sampled_from(["", "PMOD 1\nfield 2\ngrid 2 2\n"]),
              st.lists(_LINES, max_size=16).map("\n".join)),
)


@contextmanager
def _vertex_walk_limit(limit: int):
    """Fail, instead of allocating, when a parse walks more grid vertices."""
    walk = Grid.vertices

    def guarded(self):
        for step, v in enumerate(walk(self)):
            assert step < limit, "parser walked the grid's vertices"
            yield v

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Grid, "vertices", guarded)
        yield


class TestBounds:
    def test_huge_grid_header_allocates_nothing_per_vertex(self):
        # the missing vertex is found after at most len(dims) + 1 steps
        t0 = time.perf_counter()
        with _vertex_walk_limit(2):
            for doc in ("PMOD 1\nfield 2\ngrid 2 1000000000\nEND\n",
                        "PMOD 1\nfield 2\ngrid 2 1000000000\ndim 1 1 1\nEND\n"):
                with pytest.raises(PmodError, match="missing dimension"):
                    parse_pmod(doc)
        assert time.perf_counter() - t0 < 1.0

    def test_huge_grid_rejects_vertices_outside(self):
        doc = "PMOD 1\nfield 2\ngrid 2 1000000000\ndim 3 1 1\nEND\n"
        with _vertex_walk_limit(2), pytest.raises(PmodError, match="outside") as err:
            parse_pmod(doc)
        assert err.value.line == 4

    def test_huge_dimension_fails_at_once_and_allocates_nothing(self):
        # two corners of dimension K and no map blocks: unbounded, validation
        # and the path-map table would build K x K matrices
        doc = ("PMOD 1\nfield 2\ngrid 2 2\ndim 1 1 100000\ndim 1 2 0\n"
               "dim 2 1 0\ndim 2 2 100000\nEND\n")
        tracemalloc.start()
        try:
            with pytest.raises(PmodError, match="exceeds the bound") as err:
                parse_pmod(doc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert err.value.line == 4
        assert peak < 1 << 20

    def test_dimension_at_the_bound_is_accepted(self):
        doc = f"PMOD 1\nfield 2\ngrid 1 1\ndim 1 1 {MAX_DIM}\nEND\n"
        assert parse_pmod(doc).dims == {(1, 1): MAX_DIM}

    def test_printing_a_dimension_above_the_bound_raises(self):
        module = PersistenceModule(Grid(1, 2), FieldSpec(2), {(1, 1): 0, (1, 2): MAX_DIM + 1})
        with pytest.raises(ValueError, match=rf"vertex \(1, 2\) has dimension {MAX_DIM + 1}, .* MAX_DIM = {MAX_DIM}"):
            print_pmod(module)

    @given(_DOCUMENTS)
    @settings(max_examples=400, deadline=None)
    def test_any_text_gives_module_or_pmod_error(self, text):
        with _vertex_walk_limit(100):
            try:
                module = parse_pmod(text)
            except PmodError:
                return
        assert isinstance(module, PersistenceModule)


class TestOutputFormats:
    def test_interval_function_lines(self):
        f = {iv("1..1:[1,1]"): 2, iv("2..2:[1,2]"): -1, iv("1..1:[2,2]"): 0}
        assert format_interval_function(f) == "2 1..1:[1,1]\n-1 2..2:[1,2]\n"

    def test_empty_function(self):
        assert format_interval_function({}) == ""
        assert format_interval_function({iv("1..1:[1,1]"): 0}) == ""

    def test_signed_sum_header(self):
        text = format_signed_sum({iv("1..2:[2,3];[1,2]"): -1})
        assert text == "APPROX ss\n-1 1..2:[2,3];[1,2]\n"
