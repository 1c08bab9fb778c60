"""The rules of the text the tool reads and writes; no ``roitrack`` module is
imported here.  Every input is opened as UTF-8 by ``open_text``, a line ends
at ``"\\n"`` only (universal newlines turn ``"\\r\\n"`` and ``"\\r"`` into it),
and a number is read only from ``is_plain`` text.  Configs, manifests, arena
fixtures and reports are the ``key = value`` text of ``parse_kv_text``.
"""

from __future__ import annotations

import contextlib


@contextlib.contextmanager
def open_text(path):
    """The one opener of an input file: UTF-8 with universal newlines.  Bytes
    that are not UTF-8, wherever they are read, are refused naming the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text: {exc}") from None


def read_text(path) -> str:
    """The whole text of a config, a manifest or a replay log."""
    with open_text(path) as fh:
        return fh.read()


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
