"""Frequency-ranked argument-role suggestions from prior annotation decisions."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .model import ParallelCorpus, ResolutionError, group_roles

__all__ = ["RoleSuggestion", "suggest_roles"]


@dataclass(frozen=True)
class RoleSuggestion:
    role: str
    frequency: int
    share: float  # frequency / total argument count of the group


def suggest_roles(
    corpus: ParallelCorpus,
    lang: str,
    group: str,
    already_used: Iterable[str] = (),
) -> list[RoleSuggestion]:
    """Rank role names seen in a predicate group of one language.

    Roles in already_used are dropped (a predicate takes each role at most
    once); shares keep the full group argument count as denominator.
    Unknown groups yield an empty list; unknown languages are an error.
    """
    if lang not in corpus.treebanks:
        raise ResolutionError(f"unknown language {lang!r}")
    used = set(already_used)
    counts: dict[str, int] = {}
    for pred_group, role in group_roles(corpus.treebanks[lang]):
        if pred_group == group:
            counts[role] = counts.get(role, 0) + 1
    total = sum(counts.values())
    suggestions = [
        RoleSuggestion(role, freq, freq / total)
        for role, freq in counts.items()
        if role not in used
    ]
    suggestions.sort(key=lambda s: (-s.frequency, s.role))
    return suggestions
