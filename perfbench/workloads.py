"""Seeded, stdlib-only input generator for the benchmark workloads.

`generate(name, seed, root)` writes every input file the workload needs
under `root` and returns a `Workload` describing how to run it. The same
(name, seed) gives the same bytes; the program only ever sees the files.

Text shape (corpus_plain and corpus_retrieval share it):
- each sentence has 8-20 tokens and starts with a capitalized letter word;
- content words come from a 3000-entry vocabulary of letter words, of which
  ALNUM_SHARE are alphanumeric codes (one ASCII letter, then 2-4 digits,
  e.g. `A1947`, `k27`) as product and model names are in real text;
- every sentence carries 1-2 gazetteer ORG terms drawn Zipf-style (weight
  1/rank), and with fixed probabilities a capitalized name (MISC), a year
  (DATE), a count (CARDINAL) and a money or percent amount. Entities are
  always separated by a lower-case word, so capitalized runs never merge.

Codes with four digits make the builtin recognizer's year rule fire inside
the token (`k1947` yields DATE `1947`; an upper-case `A1947` is taken as a
MISC run instead). That is a recognizer question, measured here through
`entities.mentions_per_sentence`, not corrected.
"""

from __future__ import annotations

import itertools
import json
import os
import random
from dataclasses import dataclass

WORKLOADS = ("corpus_plain", "corpus_retrieval", "select_hubs")

VOCAB_SIZE = 3000
ALNUM_SHARE = 0.01
GAZETTEER_TERMS = 2000
NAME_POOL = 3000
SENTENCES_PER_DOC = 10

PLAIN_DOCS = 1000
QUERY_DOCS = 100
SUPPORT_DOCS = 250

HUB_NODES = 100_000
HUB_ENTITIES = 10_000
HUB_COUNT = 3
HUB_SIZE = 3000

P_NAME = 0.4
P_YEAR = 0.3
P_COUNT = 0.2
P_AMOUNT = 0.05

_ONSETS = ("b", "br", "c", "d", "dr", "f", "g", "gr", "h", "j", "k", "l", "m",
           "n", "p", "pl", "r", "s", "st", "t", "tr", "v", "w", "z")
_VOWELS = ("a", "e", "i", "o", "u", "ai", "ea", "ou")
_CODAS = ("", "", "n", "r", "s", "l", "m", "th", "x")
_ORG_SUFFIXES = ("Systems", "Group", "Holdings", "Labs", "Partners", "Works",
                 "Foundation", "Institute", "Records", "Airlines", "Motors",
                 "Press", "Studios", "Council", "Bank", "Energy")
# Letter words the recognizer or segmenter treats specially are left out so
# that every generated sentence segments as written.
_RESERVED = frozenset(
    "zero one two three four five six seven eight nine ten eleven twelve "
    "twenty thirty forty fifty sixty seventy eighty ninety hundred thousand "
    "million billion trillion may march june july august".split()
)


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    root: str
    config: str  # config file passed to `minprompt <command> --config`
    command: str  # CLI subcommand
    out_dir: str  # the run's --out directory
    sentences: int  # input sentences (graph nodes for select_hubs)
    postings: dict | None = None  # select_hubs: key -> sorted member ids

    def argv(self) -> list[str]:
        return [self.command, "--config", self.config, "--out", self.out_dir]


def _syllable_word(rng: random.Random, syllables: int) -> str:
    return "".join(
        rng.choice(_ONSETS) + rng.choice(_VOWELS) + rng.choice(_CODAS)
        for _ in range(syllables)
    )


def _unique_words(rng: random.Random, count: int, taken: set[str]) -> list[str]:
    words: list[str] = []
    while len(words) < count:
        word = _syllable_word(rng, rng.randint(2, 3))
        if word in taken or word in _RESERVED:
            continue
        taken.add(word)
        words.append(word)
    return words


def _code_token(rng: random.Random) -> str:
    letter = rng.choice("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ")
    digits = rng.randint(2, 4)
    return letter + str(rng.randint(10 ** (digits - 1), 10**digits - 1))


def _zipf_cumulative(count: int, exponent: float) -> list[float]:
    """Cumulative weights 1/rank**exponent for random.choices."""
    return list(itertools.accumulate(1.0 / rank**exponent for rank in range(1, count + 1)))


class _TextModel:
    """Vocabulary and entity pools shared by a corpus and its support set."""

    def __init__(self, rng: random.Random):
        taken: set[str] = set()
        codes = round(VOCAB_SIZE * ALNUM_SHARE)
        self.letter_words = _unique_words(rng, VOCAB_SIZE - codes, taken)
        self.vocab = self.letter_words + [_code_token(rng) for _ in range(codes)]
        rng.shuffle(self.vocab)
        heads = [w.capitalize() for w in _unique_words(rng, GAZETTEER_TERMS, taken)]
        # suffixes go round-robin by Zipf rank, so the shared suffix tokens
        # weigh the same in BM25 whatever the seed
        self.orgs = [
            f"{head} {_ORG_SUFFIXES[rank % len(_ORG_SUFFIXES)]}" for rank, head in enumerate(heads)
        ]
        self.names = [w.capitalize() for w in _unique_words(rng, NAME_POOL, taken)]
        self.org_weights = _zipf_cumulative(GAZETTEER_TERMS, 1.0)
        self.name_weights = _zipf_cumulative(NAME_POOL, 1.0)

    def gazetteer_text(self) -> str:
        return "".join(f"{term}\tORG\n" for term in self.orgs)

    def sentence(self, rng: random.Random) -> str:
        entities = rng.choices(self.orgs, cum_weights=self.org_weights, k=rng.randint(1, 2))
        if rng.random() < P_NAME:
            entities += rng.choices(self.names, cum_weights=self.name_weights)
        if rng.random() < P_YEAR:
            entities.append(f"in {rng.randint(1900, 2020)}")
        if rng.random() < P_COUNT:
            entities.append(str(rng.randint(2, 999)))
        if rng.random() < P_AMOUNT:
            entities.append(
                f"${rng.randint(1, 500)}" if rng.random() < 0.5 else f"{rng.randint(1, 99)}%"
            )
        rng.shuffle(entities)
        length = rng.randint(8, 20)
        words = rng.choices(self.vocab, k=max(length - len(entities), len(entities) + 1))
        words[0] = rng.choice(self.letter_words).capitalize()
        slots = sorted(rng.sample(range(1, len(words)), len(entities)))
        tokens: list[str] = []
        for index, word in enumerate(words):
            if not slots or slots[0] != index:
                tokens.append(word)
                continue
            # a capitalized code right before an entity would join its run
            slots.pop(0)
            tokens += [word.lower(), entities.pop(), rng.choice(self.vocab).lower()]
        return " ".join(tokens) + "."

    def write_docs(self, rng: random.Random, directory: str, prefix: str, count: int) -> int:
        os.makedirs(directory)
        for doc in range(count):
            text = " ".join(self.sentence(rng) for _ in range(SENTENCES_PER_DOC))
            _write(os.path.join(directory, f"{prefix}{doc:05d}.txt"), text + "\n")
        return count * SENTENCES_PER_DOC


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)


def _write_config(path: str, lines: dict[str, object]) -> None:
    _write(path, "".join(f"{key} = {value}\n" for key, value in lines.items()))


def _corpus_workload(name: str, seed: int, root: str) -> Workload:
    rng = random.Random(f"{name}:{seed}")
    model = _TextModel(rng)
    _write(os.path.join(root, "gazetteer.tsv"), model.gazetteer_text())
    config = {
        "input_paths": "corpus",
        "dataset_id": "bench",
        "gazetteer_paths": "gazetteer.tsv",
        "seed": seed,
        "output_dir": "out",
        "workers": 1,
    }
    if name == "corpus_plain":
        sentences = model.write_docs(rng, os.path.join(root, "corpus"), "doc", PLAIN_DOCS)
        config.update(question_style="both", retrieval_enabled="false")
    else:
        sentences = model.write_docs(rng, os.path.join(root, "corpus"), "query", QUERY_DOCS)
        model.write_docs(rng, os.path.join(root, "support"), "support", SUPPORT_DOCS)
        config.update(question_style="wh", retrieval_enabled="true", support_paths="support")
    config_path = os.path.join(root, f"{name}.cfg")
    _write_config(config_path, config)
    return Workload(name, seed, root, config_path, "run", os.path.join(root, "out"), sentences)


def hub_postings(rng: random.Random) -> dict[str, list[int]]:
    """Criterion-03 shape: hubs of HUB_SIZE random members plus a Zipf tail
    (weight 1/sqrt(rank)) giving every node 1-3 tail entities."""
    postings: dict[str, set[int]] = {}
    for hub in range(HUB_COUNT):
        postings[f"hub{hub}"] = set(rng.sample(range(HUB_NODES), HUB_SIZE))
    tail = range(HUB_COUNT, HUB_ENTITIES)
    weights = _zipf_cumulative(len(tail), 0.5)
    for node in range(HUB_NODES):
        for key in rng.choices(tail, cum_weights=weights, k=rng.randint(1, 3)):
            postings.setdefault(f"e{key}", set()).add(node)
    return {key: sorted(members) for key, members in sorted(postings.items())}


def _select_workload(name: str, seed: int, root: str) -> Workload:
    rng = random.Random(f"{name}:{seed}")
    postings = hub_postings(rng)
    graph_dir = os.path.join(root, "graph")
    os.makedirs(graph_dir)
    # the layout write_postings_dump produces: sorted keys, sorted ids
    _write(
        os.path.join(graph_dir, "postings.jsonl"),
        "".join(
            json.dumps({"entity": key, "sentences": members}) + "\n"
            for key, members in postings.items()
        ),
    )
    _write(
        os.path.join(graph_dir, "graph_stats.json"),
        json.dumps({"entities": len(postings), "nodes": HUB_NODES}, indent=2, sort_keys=True) + "\n",
    )
    config_path = os.path.join(root, f"{name}.cfg")
    _write_config(
        config_path,
        {"input_paths": "graph", "seed": seed, "output_dir": "graph", "workers": 1},
    )
    return Workload(name, seed, root, config_path, "select", graph_dir, HUB_NODES, postings)


def generate(name: str, seed: int, root: str) -> Workload:
    """Write the inputs of workload `name` for `seed` into the empty dir `root`."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
    os.makedirs(root, exist_ok=True)
    if name == "select_hubs":
        return _select_workload(name, seed, root)
    return _corpus_workload(name, seed, root)
