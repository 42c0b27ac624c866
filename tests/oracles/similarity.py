"""Per-frontier-word lexicon expansion: the reference for
:func:`repro.semantics.similarity.expand_lexicon`, which scores the
whole frontier in one matmul per round."""

from __future__ import annotations

from collections.abc import Iterable

from repro.semantics.word2vec import Word2Vec


def expand_lexicon_reference(
    model: Word2Vec,
    seeds: Iterable[str],
    k: int = 10,
    max_size: int = 200,
    min_similarity: float = 0.5,
    max_rounds: int = 20,
) -> list[str]:
    """``expand_lexicon`` with one ``most_similar`` query per frontier
    word."""
    known_seeds = [s for s in seeds if s in model]
    if not known_seeds:
        raise ValueError("no seed word is in the word2vec vocabulary")
    if max_size < len(known_seeds):
        raise ValueError(
            f"max_size {max_size} is below the seed count {len(known_seeds)}"
        )
    lexicon: list[str] = list(dict.fromkeys(known_seeds))
    member_set = set(lexicon)
    frontier = list(lexicon)
    for _ in range(max_rounds):
        if len(lexicon) >= max_size or not frontier:
            break
        neighbor_lists = [
            model.most_similar(word, k=k, exclude=member_set)
            for word in frontier
        ]
        additions: list[tuple[str, float]] = []
        for neighbors in neighbor_lists:
            for neighbor, score in neighbors:
                if score >= min_similarity and neighbor not in member_set:
                    additions.append((neighbor, score))
        if not additions:
            break
        # Highest-similarity words join first so the cap keeps the best.
        additions.sort(key=lambda pair: -pair[1])
        new_frontier: list[str] = []
        for neighbor, __ in additions:
            if len(lexicon) >= max_size:
                break
            if neighbor in member_set:
                continue
            lexicon.append(neighbor)
            member_set.add(neighbor)
            new_frontier.append(neighbor)
        frontier = new_frontier
    return lexicon
