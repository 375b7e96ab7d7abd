"""Code-point spans to UTF-8 byte offsets.

Every span in this package (sentence spans into documents, mention spans
into sentences) is a pair of UTF-8 byte offsets. Python strings index by
code point, so `byte_spans` translates the spans that the segmenter and
the recognizer find. For ASCII text the mapping is the identity and costs
nothing.
"""

from __future__ import annotations

from .errors import ValidationError


def byte_spans(text: str, spans):
    """The UTF-8 byte offsets of the code-point `spans` into `text`.

    The spans must be sorted and disjoint: each starts at or after the
    previous one's end and ends at or after its own start. One pass encodes
    each gap and each span once. ASCII text, whose byte offsets are its
    code-point offsets, gets `spans` back as they are, unchecked."""
    if text.isascii():
        return spans
    converted = []
    pos = offset = 0
    for start, end in spans:
        if not pos <= start <= end:  # an overlap would shift every later offset
            raise ValidationError(f"spans must be sorted and disjoint; {start, end} follows {pos}")
        first = offset + len(text[pos:start].encode("utf-8"))
        offset = first + len(text[start:end].encode("utf-8"))
        converted.append((first, offset))
        pos = end
    return converted
