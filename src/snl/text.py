"""Helpers shared by the text formats of every model."""

import re
from typing import Iterable

_WORD = re.compile(r"\w+")


def strip_comments(text: str) -> str:
    """Drop everything from `#` to the end of each line, keeping the line
    count, so parse errors can still name the line."""
    return "\n".join(line.split("#", 1)[0] for line in text.splitlines())


def non_words(names: Iterable[str]) -> list[str]:
    """A problem for each name that is not a word identifier, the one name
    shape every text format reads back.  An ASCII identifier is one; only
    other names go to the regular expression."""
    return [f"name {n!r} is not a word identifier" for n in names
            if not (n.isascii() and n.isidentifier()) and not _WORD.fullmatch(n)]
