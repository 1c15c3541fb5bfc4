"""fusetb: parallel treebanks with aligned predicate-argument annotation.

Library surface: the data model (fusetb.model), file formats
(fusetb.formats), validation (fusetb.validate), corpus loading and stats
(fusetb.corpus), queries (fusetb.query), role suggestions
(fusetb.suggest) and the ``fuse`` CLI (fusetb.cli).
"""

from .corpus import CorpusStats, Manifest, compute_stats, load_corpus, parse_manifest
from .formats import (
    Diagnostic,
    ParseError,
    PredArg,
    parse_alignments,
    parse_predarg,
    parse_trees,
    serialize_alignments,
    serialize_predarg,
    serialize_trees,
)
from .model import (
    Alignment,
    Argument,
    Binding,
    ElemRef,
    EmptyYieldError,
    MonolingualAnnotation,
    NodeRef,
    PairSet,
    ParallelCorpus,
    Predicate,
    ResolutionError,
    SentencePairAlignment,
    SentenceTree,
    TagRegistry,
    node_yield,
    resolve_yield,
)
from .query import Query, QueryError, parse_query, run_query
from .suggest import RoleSuggestion, suggest_roles
from .validate import validate_corpus, validate_monolingual, validate_pair

__version__ = "0.1.0"
