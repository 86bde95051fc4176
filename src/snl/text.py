"""Helpers shared by the text formats of every model."""


def strip_comments(text: str) -> str:
    """Drop everything from `#` to the end of each line, keeping the line
    count, so parse errors can still name the line."""
    return "\n".join(line.split("#", 1)[0] for line in text.splitlines())
