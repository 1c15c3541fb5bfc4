"""fusetb: parallel treebanks with aligned predicate-argument annotation.

Library surface: the data model (fusetb.model), file formats
(fusetb.formats), validation (fusetb.validate), corpus loading and stats
(fusetb.corpus), queries (fusetb.query), role suggestions
(fusetb.suggest) and the ``fuse`` CLI (fusetb.cli).
"""

from importlib import import_module as _import_module

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
    FieldError,
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
from .validate import validate_corpus, validate_monolingual, validate_pair

__version__ = "0.1.0"

# The query and suggest modules and their names, imported on first use (PEP 562)
# so that `fuse validate` loads neither.
_LAZY = dict.fromkeys(("query", "Query", "QueryError", "parse_query", "run_query"), "query")
_LAZY.update(dict.fromkeys(("suggest", "RoleSuggestion", "suggest_roles"), "suggest"))
__all__ = [name for name in globals() if not name.startswith("_")] + list(_LAZY)


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = _import_module(f"{__name__}.{_LAZY[name]}")
    return module if name == _LAZY[name] else getattr(module, name)
