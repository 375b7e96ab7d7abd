"""Reading and writing of every input and artifact file.

Text that is not JSON raises ParseError("<path>:<line>: malformed JSON ...").
Writers write a temporary file next to the target and rename it over the
target, so a reader sees the previous file or the whole new one, never a
half-written one; a failed write leaves the previous file and no temporary.
"""

from __future__ import annotations

import json
import os

from .errors import ParseError

# json.dumps builds a new encoder on every call that passes options
_JSONL_ENCODER = json.JSONEncoder(ensure_ascii=False)


def iter_lines(path: str, comments: bool = False, opener=open):
    """(line number, stripped line) for each non-blank line of a UTF-8 file;
    with `comments`, also skips lines starting with '#'."""
    with opener(path, "rt", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            stripped = line.strip()
            if stripped and not (comments and stripped.startswith("#")):
                yield lineno, stripped


def parse_json(text: str, path: str, lineno: int = 1):
    """`text`, which starts on line `lineno` of `path`, parsed as JSON."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{lineno + exc.lineno - 1}: malformed JSON: {exc}") from exc


def iter_jsonl(path: str):
    """(line number, record) for each non-blank line of a JSON Lines file."""
    for lineno, line in iter_lines(path):
        yield lineno, parse_json(line, path, lineno)


def read_jsonl(path: str) -> list:
    return [record for _, record in iter_jsonl(path)]


def read_json(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        return parse_json(handle.read(), path)


def write_text(text: str, path: str) -> None:
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def write_jsonl(records, path: str) -> None:
    """One JSON value per '\\n'-ended line, non-ASCII text kept as is."""
    encode = _JSONL_ENCODER.encode
    write_text("".join(encode(record) + "\n" for record in records), path)


def write_json(payload, path: str, indent: int | None = None) -> None:
    write_text(json.dumps(payload, indent=indent, sort_keys=True) + "\n", path)
