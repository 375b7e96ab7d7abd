from __future__ import annotations

import ast
import gzip
import json
import os
import re
import tracemalloc

import pytest

import minprompt
from conftest import make_sentence
from minprompt.entities import RecognizerConfig, load_sidecar, recognize
from minprompt.errors import ParseError
from minprompt.evaluation import evaluate_files
from minprompt.fileio import (
    iter_jsonl,
    iter_lines,
    read_json,
    read_jsonl,
    write_json,
    write_jsonl,
    write_text,
)

PACKAGE_DIR = os.path.dirname(minprompt.__file__)


class TestJsonLines:
    @pytest.mark.parametrize(
        "records",
        [
            [],
            [{}],
            [{"a": 1}, {"b": [1, 2, {"c": None}]}],
            [{"text": "Zürich, 東京 and “quotes”", "emoji": "\U0001f600"}],
            [{"text": "line\nbreak\ttab"}, ["not", "an", "object"], "string", 3.5],
        ],
        ids=["empty", "empty_object", "nested", "non_ascii", "escapes_and_scalars"],
    )
    def test_round_trip(self, tmp_path, records):
        path = str(tmp_path / "records.jsonl")
        write_jsonl(records, path)
        with open(path, "rb") as handle:
            data = handle.read()
        expected = "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records)
        assert data == expected.encode("utf-8")  # one line each, non-ASCII kept
        assert list(iter_jsonl(path)) == list(enumerate(records, start=1))
        assert read_jsonl(path) == records

    def test_blank_lines_skipped_and_numbered(self, tmp_path):
        path = tmp_path / "records.jsonl"
        path.write_text('\n  \n{"a": 1}\n\t\n  {"b": "é"}  \n\n', encoding="utf-8")
        assert list(iter_jsonl(str(path))) == [(3, {"a": 1}), (5, {"b": "é"})]

    def test_empty_file_reads_as_no_records(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_bytes(b"")
        assert read_jsonl(str(path)) == []

    def test_malformed_line_names_path_and_line(self, tmp_path):
        path = tmp_path / "records.jsonl"
        path.write_text('{"a": 1}\n\n{"a": \n', encoding="utf-8")
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}:3: malformed JSON"):
            read_jsonl(str(path))

    def test_write_holds_one_record_not_the_file(self, tmp_path):
        records = [{"id": i, "text": "x" * 65536} for i in range(64)]
        path = tmp_path / "big.jsonl"
        tracemalloc.start()
        try:
            base, _ = tracemalloc.get_traced_memory()
            write_jsonl(records, str(path))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert path.stat().st_size > 4 * 2**20  # the file is 4 MiB and more
        assert peak - base < 2**20, f"write_jsonl held {peak - base} bytes at its peak"
        assert read_jsonl(str(path)) == records

    def test_comment_lines(self, tmp_path):
        path = tmp_path / "list.txt"
        path.write_text("# header\n alpha \n\n#beta\ngamma # not a comment\n", encoding="utf-8")
        assert list(iter_lines(str(path), comments=True)) == [
            (2, "alpha"), (5, "gamma # not a comment")
        ]
        assert [n for n, _ in iter_lines(str(path))] == [1, 2, 4, 5]


class TestByteOrderMark:
    """A UTF-8 byte-order mark at the start of a line file is not part of
    its first line."""

    LINES = "Lakers\tORG\n# teams\nLos Angeles\tGPE\n"

    @pytest.mark.parametrize("opener", [open, gzip.open], ids=["plain", "gzip"])
    def test_not_part_of_the_first_line(self, tmp_path, opener):
        path = tmp_path / "gaz.tsv"
        with opener(path, "wt", encoding="utf-8-sig") as handle:
            handle.write(self.LINES)
        assert list(iter_lines(str(path), comments=True, allow_gzip=True)) == [
            (1, "Lakers\tORG"), (3, "Los Angeles\tGPE")
        ]

    def test_first_gazetteer_term_matches(self, tmp_path):
        path = tmp_path / "gaz.tsv"
        path.write_text(self.LINES, encoding="utf-8-sig")
        sentences = [make_sentence(0, "The Lakers won.")]
        config = RecognizerConfig(gazetteer_paths=(str(path),))
        assert [(m.surface, m.entity_type) for m in recognize(sentences, config)[0]] == [
            ("Lakers", "ORG")
        ]


class TestJson:
    def test_round_trip_and_layout(self, tmp_path):
        path = str(tmp_path / "payload.json")
        write_json({"b": [1, 2], "a": "é"}, path, indent=2)
        with open(path, "r", encoding="utf-8") as handle:
            assert handle.read() == '{\n  "a": "\\u00e9",\n  "b": [\n    1,\n    2\n  ]\n}\n'
        assert read_json(path) == {"a": "é", "b": [1, 2]}

    def test_malformed_document_names_path_and_line(self, tmp_path):
        path = tmp_path / "payload.json"
        path.write_text('{\n  "a": 1,\n}\n', encoding="utf-8")
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}:3: malformed JSON"):
            read_json(str(path))


class TestAtomicWrites:
    def test_failed_write_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "samples.jsonl"
        path.write_bytes(b'{"old": true}\n')

        def records():
            yield {"new": 1}
            yield {"new": 2}
            raise RuntimeError("generator failed")

        with pytest.raises(RuntimeError, match="generator failed"):
            write_jsonl(records(), str(path))
        assert path.read_bytes() == b'{"old": true}\n'
        assert os.listdir(tmp_path) == ["samples.jsonl"]

    def test_failure_after_bytes_reached_the_temporary_keeps_the_old_file(self, tmp_path):
        # about 1 MiB is past the text buffer, so part of it is on disk when
        # the records fail
        path = tmp_path / "samples.jsonl"
        path.write_bytes(b'{"old": true}\n')

        def records():
            for i in range(16):
                yield {"id": i, "text": "x" * 65536}
            raise RuntimeError("generator failed")

        with pytest.raises(RuntimeError, match="generator failed"):
            write_jsonl(records(), str(path))
        assert path.read_bytes() == b'{"old": true}\n'
        assert not list(tmp_path.glob("*.tmp"))

    def test_unwritable_record_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "stats.json"
        write_json({"nodes": 1}, str(path))
        before = path.read_bytes()
        with pytest.raises(TypeError):
            write_json({"nodes": object()}, str(path))
        with pytest.raises(TypeError):
            write_jsonl([{"ok": 1}, {"bad": {1, 2}}], str(path))
        # serializes, then fails while the file is written: a lone surrogate
        # has no UTF-8 encoding
        with pytest.raises(UnicodeEncodeError):
            write_jsonl([{"ok": 1}, {"bad": "\ud800"}], str(path))
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["stats.json"]

    def test_failed_rename_removes_the_temporary(self, tmp_path):
        target = tmp_path / "selection.json"
        target.mkdir()  # a file cannot replace a directory
        with pytest.raises(OSError):
            write_json({"selected": []}, str(target))
        assert os.listdir(tmp_path) == ["selection.json"]

    def test_replaces_an_existing_file(self, tmp_path):
        path = str(tmp_path / "notes.txt")
        write_text("first, and longer\n", path)
        write_text("second\n", path)
        with open(path, "rb") as handle:
            assert handle.read() == b"second\n"
        assert os.listdir(tmp_path) == ["notes.txt"]


class TestReadersNameTheLine:
    """Every JSON Lines input reports `<path>:<line>` on a line that is not
    JSON or not UTF-8."""

    def broken(self, tmp_path, name, good):
        path = tmp_path / name
        path.write_text(json.dumps(good) + "\n\n" + '{"cut": \n', encoding="utf-8")
        return str(path)

    def test_sidecar(self, tmp_path):
        record = {"sentence_id": 0, "start": 4, "end": 10, "surface": "Lakers", "type": "ORG"}
        path = self.broken(tmp_path, "mentions.jsonl", record)
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}:3: malformed JSON"):
            load_sidecar(path, [make_sentence(0, "The Lakers won.")])

    def test_eval_predictions_and_golds(self, tmp_path):
        good_pred = tmp_path / "ok_pred.jsonl"
        good_pred.write_text('{"prediction": "a"}\n', encoding="utf-8")
        good_gold = tmp_path / "ok_gold.jsonl"
        good_gold.write_text('{"answers": ["a"]}\n', encoding="utf-8")
        pred = self.broken(tmp_path, "pred.jsonl", {"prediction": "a"})
        gold = self.broken(tmp_path, "gold.jsonl", {"answers": ["a"]})
        with pytest.raises(ParseError, match=f"^{re.escape(str(pred))}:3: malformed JSON"):
            evaluate_files(pred, str(good_gold))
        with pytest.raises(ParseError, match=f"^{re.escape(str(gold))}:3: malformed JSON"):
            evaluate_files(str(good_pred), gold)


    def test_file_not_utf8(self, tmp_path):
        # a text reader decodes ahead of the line it hands out; the error
        # still names the line of the first bad byte
        path = tmp_path / "latin1.jsonl"
        path.write_bytes(b'{"a": 1}\n\n{"a": "caf\xe9"}\n')
        for read in (read_json, read_jsonl):
            with pytest.raises(ParseError, match=f"^{re.escape(str(path))}:3: not valid UTF-8"):
                read(str(path))

    def test_gzip_read_only_where_allowed(self, tmp_path):
        path = tmp_path / "records.jsonl.gz"
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write('{"a": 1}\n')
        assert list(iter_lines(str(path), allow_gzip=True)) == [(1, '{"a": 1}')]
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}:1: not valid UTF-8"):
            read_jsonl(str(path))


def _writing_opens(source: str) -> list[int]:
    """Line numbers of calls that open a file for writing: open()/os.fdopen()/
    .open() with a w, a, x or + mode, and Path.write_text()/write_bytes()."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name in ("write_text", "write_bytes") and isinstance(func, ast.Attribute):
            lines.append(node.lineno)
        elif name in ("open", "fdopen"):
            mode = node.args[1] if len(node.args) > 1 else None
            for keyword in node.keywords:
                if keyword.arg == "mode":
                    mode = keyword.value
            if mode is None:
                continue
            if not isinstance(mode, ast.Constant) or set(str(mode.value)) & set("wax+"):
                lines.append(node.lineno)
    return lines


def test_only_fileio_opens_files_for_writing():
    found = {}
    for name in sorted(os.listdir(PACKAGE_DIR)):
        if not name.endswith(".py") or name == "fileio.py":
            continue
        with open(os.path.join(PACKAGE_DIR, name), "r", encoding="utf-8") as handle:
            lines = _writing_opens(handle.read())
        if lines:
            found[name] = lines
    assert found == {}, f"write through minprompt.fileio so the write is atomic: {found}"


def test_write_detector_sees_each_form():
    source = (
        'open(p, "w")\nopen(p, mode="a")\nos.fdopen(fd, "wb")\nopen(p, "r+")\n'
        "Path(p).write_text(s)\nopen(p, m)\n"
        'open(p)\nopen(p, "rb")\ngzip.open(p, "rt")\n'
    )
    assert _writing_opens(source) == [1, 2, 3, 4, 5, 6]
