from __future__ import annotations

import json
import os
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer
from types import SimpleNamespace

import pytest

from minprompt import entities
from minprompt.corpus import Sentence
from minprompt.entities import EntityMention, normalize_key

FIXTURE_DIR = os.path.join(os.path.dirname(__file__), "fixtures")


def make_sentence(sid: int, text: str, doc_id: str = "doc", origin: str = "corpus") -> Sentence:
    return Sentence(
        sentence_id=sid,
        doc_id=doc_id,
        char_span=(0, len(text.encode("utf-8"))),
        text=text,
        origin=origin,
    )


def mention_at(text: str, surface: str, entity_type: str, occurrence: int = 0) -> EntityMention:
    """Mention for the nth occurrence of `surface` in ASCII-safe test text."""
    data = text.encode("utf-8")
    needle = surface.encode("utf-8")
    pos = -1
    for _ in range(occurrence + 1):
        pos = data.find(needle, pos + 1)
        assert pos != -1, f"{surface!r} not found in {text!r}"
    return EntityMention(
        surface=surface,
        entity_type=entity_type,
        char_span=(pos, pos + len(needle)),
        normalized_key=normalize_key(surface),
    )


@pytest.fixture
def lakers_sentences():
    """Four sentences wired like the shared-entity illustration: the first
    three share 'Lakers', the last shares 'Crypto.com Arena' with the third."""
    texts = [
        "The Lakers were founded in 1947.",
        "The Lakers have won many titles.",
        "The Lakers play home games at Crypto.com Arena.",
        "Crypto.com Arena also hosts concerts.",
    ]
    sentences = [make_sentence(i, t, doc_id=f"d{i}") for i, t in enumerate(texts)]
    mentions = {
        0: [mention_at(texts[0], "Lakers", "ORG")],
        1: [mention_at(texts[1], "Lakers", "ORG")],
        2: [
            mention_at(texts[2], "Lakers", "ORG"),
            mention_at(texts[2], "Crypto.com Arena", "FAC"),
        ],
        3: [mention_at(texts[3], "Crypto.com Arena", "FAC")],
    }
    return sentences, mentions


class RecognizerHandler(BaseHTTPRequestHandler):
    """The HTTP recognizer of the `recognizer_service` fixture; `behavior`
    picks its replies ("records" replies with `records` as they are),
    `posted_texts` records every sentence sent to it."""

    behavior = "echo_empty"
    records: list[dict] = []
    failures_left = 0
    request_count = 0
    posted_texts: list[str] = []

    def log_message(self, *args):
        pass

    def do_POST(self):
        cls = type(self)
        cls.request_count += 1
        length = int(self.headers["Content-Length"])
        payload = json.loads(self.rfile.read(length))
        cls.posted_texts.extend(item["text"] for item in payload["sentences"])
        if cls.behavior == "fail" or cls.failures_left > 0:
            cls.failures_left = max(0, cls.failures_left - 1)
            self.send_response(500)
            self.end_headers()
            return
        if cls.behavior == "reject":
            self.send_response(400)
            self.end_headers()
            return
        if cls.behavior == "slow":
            # hangs up without a reply; requests queued behind this one wait too
            time.sleep(0.2)
            return
        if cls.behavior == "not_json":
            body = b"<html>busy</html>"
            self.send_response(200)
            self.send_header("Content-Type", "text/html")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
            return
        mentions = list(cls.records) if cls.behavior == "records" else []
        if cls.behavior == "always_sentence_0":
            # a valid record for sentence 0, whatever the batch holds
            mentions.append(
                {"sentence_id": 0, "start": 4, "end": 10, "surface": "Lakers", "type": "ORG"}
            )
        if cls.behavior == "lakers":
            for item in payload["sentences"]:
                pos = item["text"].find("Lakers")
                if pos != -1:
                    mentions.append(
                        {
                            "sentence_id": item["id"],
                            "start": pos,
                            "end": pos + 6,
                            "surface": "Lakers",
                            "type": "ORG",
                        }
                    )
        elif cls.behavior == "overlapping":
            for item in payload["sentences"]:
                mentions.append(
                    {"sentence_id": item["id"], "start": 4, "end": 15, "surface": "Los Angeles", "type": "GPE"}
                )
                mentions.append(
                    {"sentence_id": item["id"], "start": 4, "end": 22, "surface": "Los Angeles Lakers", "type": "ORG"}
                )
        body = json.dumps({"mentions": mentions}).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)


@pytest.fixture
def backoff_sleeps(monkeypatch):
    """The delays the service client sleeps between attempts, recorded
    instead of slept."""
    delays: list[float] = []
    monkeypatch.setattr(entities, "time", SimpleNamespace(sleep=delays.append))
    return delays


@pytest.fixture
def recognizer_service():
    server = HTTPServer(("127.0.0.1", 0), RecognizerHandler)
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    RecognizerHandler.behavior = "echo_empty"
    RecognizerHandler.failures_left = 0
    RecognizerHandler.request_count = 0
    RecognizerHandler.posted_texts = []
    RecognizerHandler.records = []
    yield f"http://127.0.0.1:{server.server_address[1]}/"
    server.shutdown()
    server.server_close()
