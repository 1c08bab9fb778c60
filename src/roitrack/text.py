"""The rules of the text the tool reads and writes; no ``roitrack`` module is
imported here.  Every input is read as UTF-8 by ``decode_blocks``, a block
at a time, and its lines are split by ``split_lines``: a line ends at
``"\\n"`` only (universal newlines turn ``"\\r\\n"`` and ``"\\r"`` into
it), as iterating a text file gives them.  A byte that is not UTF-8 is
refused by its position in the file, after the text before it, so a bad
line before it is named first.  A number is read only from ``is_plain``
text.  Configs, manifests, arena fixtures and reports are the
``key = value`` text of ``parse_kv_text``.
"""

from __future__ import annotations

import codecs
import io
from typing import Iterator


def decode_blocks(fh, source, size: int = 1 << 16) -> Iterator[str]:
    """The text of the binary file ``fh``: UTF-8, with ``"\\r\\n"`` and a
    lone ``"\\r"`` each turned into ``"\\n"``.  It comes one block of
    ``size`` bytes at a time, then what the decoder held at the end.  The
    text before a byte that is not UTF-8 comes before its refusal, which
    names ``source`` and the byte's position in the file."""
    decoder = io.IncrementalNewlineDecoder(codecs.getincrementaldecoder("utf-8")(), translate=True)
    at = 0
    while True:
        data = fh.read(size)
        try:
            text = decoder.decode(data, final=not data)
        except UnicodeDecodeError as exc:  # exc.object: the bytes the decoder held, then data
            held, flag = decoder.getstate()
            decoder.setstate((b"", flag))
            yield decoder.decode(exc.object[:exc.start], final=True)
            start, end = at - len(held) + exc.start, at - len(held) + exc.end
            where = (f"byte 0x{exc.object[exc.start]:02x} in position {start}" if end - start == 1
                     else f"bytes in position {start}-{end - 1}")
            raise ValueError(f"{source}: not UTF-8 text: '{exc.encoding}' codec can't decode {where}:"
                             f" {exc.reason}") from None
        yield text
        if not data:
            return
        at += len(data)


def split_lines(blocks) -> Iterator[tuple[list[str], bool]]:
    """The lines of a text given in blocks, without their ``"\\n"``, as
    iterating a text file gives them: for each block, a list of the lines it
    ends (empty if it ends none), so that an item's index is its block's,
    with a flag that is True only if all of them are ``is_plain``; then a
    list of the last line, unless it is empty, flagged alike.  A line split
    across blocks is kept in pieces and joined once, in the list of the
    block that ends it."""
    pieces: list[str] = []  # the line that no "\n" has ended yet
    for block in blocks:
        lines = block.split("\n")
        pieces.append(lines[0])
        if len(lines) == 1:
            yield [], True
            continue
        lines[0] = "".join(pieces)
        pieces = [lines.pop()]
        yield lines, is_plain(block) and is_plain(lines[0])
    last = "".join(pieces)
    yield ([last] if last else []), is_plain(last)


def read_text(path) -> str:
    """The whole text of a config or a manifest."""
    with open(path, "rb") as fh:
        return "".join(decode_blocks(fh, path))


def is_plain(text: str) -> bool:
    """ASCII with no ``_``: ``int()`` and ``float()`` also take other scripts'
    digits (``７``) and ``_`` digit groups (``0_5``), which no input may hold."""
    return text.isascii() and "_" not in text


def parse_number(kind: type, text: str):
    """``kind(text)``, ``kind`` being ``int`` or ``float``, for ``is_plain`` text only."""
    if not is_plain(text):
        raise ValueError(f"invalid {kind.__name__} value: {text!r}")
    return kind(text)


def fmt_float(value: float) -> str:
    return "%.9g" % value


def fmt_bool(value: bool) -> str:
    return "true" if value else "false"


def parse_kv_text(text: str, source: str = "<config>") -> dict[str, str]:
    """Parse flat 'key = value' lines; '#' starts a comment.  A key may appear
    only once, so no line can silently override another."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{source}: line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in values:
            raise ValueError(f"{source}: line {lineno}: duplicate key {key!r}")
        values[key] = value.strip()
    return values


def format_kv_text(values: dict[str, str]) -> str:
    """The one writer of the ``key = value`` text that ``parse_kv_text`` reads."""
    return "".join(f"{key} = {value}\n" for key, value in values.items())
