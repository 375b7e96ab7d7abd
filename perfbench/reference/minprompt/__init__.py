"""minprompt: minimal QA training data from raw text.

Pipeline: ingest documents, segment sentences, recognize entities, build
the entity-coreference sentence graph, pick a greedy approximate minimum
dominating set, and turn the selected sentences into prompt-style QA
training samples.
"""

from .corpus import Document, Sentence, ingest, segment_corpus, segment_sentences
from .domset import (
    DominatingSetResult,
    approx_dominating_set,
    approximation_bound,
    brute_force_dominating_set,
    is_dominating_set,
)
from .entities import (
    ENTITY_TYPES,
    EntityMention,
    RecognizerConfig,
    load_sidecar,
    normalize_key,
    recognize,
    recognize_builtin,
    recognize_service,
    wh_family,
)
from .errors import (
    MinpromptError,
    ParseError,
    PipelineError,
    StageError,
    ValidationError,
)
from .evaluation import token_f1
from .pipeline import PipelineConfig, PipelineStats, load_config, run_pipeline
from .qgen import (
    AugmentedSample,
    QaPair,
    WhPriors,
    assemble_dataset,
    format_prompt,
    generate_cloze,
    generate_wh,
    sample_wh_bigram,
    split_fragments,
)
from .retrieval import (
    Bm25Index,
    RetrievalConstraints,
    bm25_score,
    build_index,
    retrieve_support_sentence,
    tokenize,
)
from .sentgraph import GraphStats, SentenceGraph, build_graph

__version__ = "0.1.0"
