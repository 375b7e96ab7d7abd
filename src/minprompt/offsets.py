"""UTF-8 byte-offset helpers.

Every span in this package (sentence spans into documents, mention spans
into sentences) is a pair of UTF-8 byte offsets. Python strings index by
code point, so these helpers translate between the two views. For ASCII
text the mapping is the identity and costs nothing.
"""

from __future__ import annotations

from .errors import ValidationError


def byte_length(text: str) -> int:
    return len(text.encode("utf-8"))


def byte_slice(text: str, start: int, end: int) -> str:
    """Slice `text` by byte offsets. Offsets must land on UTF-8 boundaries."""
    data = text.encode("utf-8")
    if not (0 <= start <= end <= len(data)):
        raise ValidationError(
            f"byte span ({start}, {end}) out of bounds for text of {len(data)} bytes"
        )
    try:
        return data[start:end].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValidationError(
            f"byte span ({start}, {end}) does not land on UTF-8 boundaries"
        ) from exc


class ByteOffsets:
    """Precomputed code-point -> byte offset map for one text."""

    __slots__ = ("_table",)

    def __init__(self, text: str):
        if text.isascii():
            self._table = None  # pure ASCII: identity
        else:
            table = [0] * (len(text) + 1)
            pos = 0
            for i, ch in enumerate(text):
                table[i] = pos
                pos += len(ch.encode("utf-8"))
            table[len(text)] = pos
            self._table = table

    def byte(self, char_index: int) -> int:
        if self._table is None:
            return char_index
        return self._table[char_index]

    def byte_span(self, char_start: int, char_end: int) -> tuple[int, int]:
        return self.byte(char_start), self.byte(char_end)
