"""The text rules every reader and writer shares: lines, numbers, key-value text."""

from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from roitrack.text import fmt_float, format_kv_text, parse_kv_text, parse_number, split_lines

# Every line break of str.splitlines() but "\n" and "\r", which universal
# newlines turn into "\n" before any reader sees them.
OTHER_LINE_BREAKS = ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("separator", OTHER_LINE_BREAKS)
def test_a_line_ends_at_newline_only(separator):
    assert parse_kv_text(f"a = 1{separator}b = 2\nc = 3\n") == {"a": f"1{separator}b = 2", "c": "3"}
    with pytest.raises(ValueError, match="^<config>: line 2: duplicate key 'a'$"):
        parse_kv_text(f"a = 1{separator}a = 2\na = 3\n")


# A leading "+" and surrounding whitespace denote the same value, and stay accepted.
@pytest.mark.parametrize("kind,text,value", [(int, "+7", 7), (int, " 7 ", 7), (float, "+0.5", 0.5),
                                             (float, "\t1e-3 ", 1e-3)])
def test_a_sign_and_surrounding_whitespace_are_accepted(kind, text, value):
    assert parse_number(kind, text) == value


@given(st.floats(allow_nan=False))
def test_every_float_the_tool_writes_reads_back(value):
    assert parse_number(float, repr(value)) == value
    assert math.isclose(parse_number(float, fmt_float(value)), value, rel_tol=1e-8)  # 9 significant digits


@given(st.dictionaries(st.from_regex(r"[a-z][a-z0-9_]*", fullmatch=True),
                       st.from_regex(r"[!-\"$-~]([ -\"$-~]*[!-\"$-~])?", fullmatch=True)))
def test_key_value_text_reads_back_as_written(values):
    assert parse_kv_text(format_kv_text(values)) == values


def test_each_block_of_a_text_has_its_own_item_of_lines():
    """``split_lines`` gives one item per block, empty for a block that ends no
    line, so that replay takes the lines of blocks ``first`` to ``end`` by
    their items' index; the last item is the unended last line, if any, as
    iterating a text file gives the lines."""
    blocks = ["t,x", ",y\n0,1", ",2", "\n\n1,2,3", "\n", ""]
    assert list(split_lines(blocks)) == [
        ([], True), (["t,x,y"], True), ([], True), (["0,1,2", ""], True), (["1,2,3"], True), ([], True), ([], True)
    ]
    assert list(split_lines(["a\n", "b_"])) == [(["a"], True), ([], True), (["b_"], False)]
