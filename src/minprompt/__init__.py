"""minprompt: minimal QA training data from raw text.

Pipeline: ingest documents, segment sentences, recognize entities, build
the entity-coreference sentence graph, pick a greedy approximate minimum
dominating set, and turn the selected sentences into prompt-style QA
training samples. Import each name from its module (`minprompt.pipeline`,
`minprompt.entities`, ...).
"""

# perfbench/tests/test_perfbench.py reads minprompt.RecognizerConfig
from .entities import RecognizerConfig
