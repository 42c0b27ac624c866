"""Cosine k-NN queries and seed-lexicon expansion.

Reproduces the paper's construction of the positive set ``P`` and
negative set ``N`` (Section II-A.2): starting from a few seed words
(e.g. "good reputation" for P, "bad reputation" for N), repeatedly take
the k-nearest neighbours of the current frontier in word2vec space until
the set reaches a size cap (the paper limits both sets to ~200 words
"for computation efficiency").

The expansion deliberately picks up *homograph/typo variants* of seed
words when they occur in the same contexts -- the paper highlights that
word2vec finds 好评/好坪/好平 ("good reputation" and two typo variants)
which "may even be difficult for human experts to figure out".  Our
synthetic language injects such variants so this behaviour is exercised
end to end (see :mod:`repro.ecommerce.language`).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from repro.semantics.word2vec import Word2Vec, _top_k_filtered


def most_similar(
    model: Word2Vec,
    words: Sequence[str],
    k: int = 10,
    exclude: set[str] | None = None,
) -> list[tuple[str, float]]:
    """k-NN of the *mean* embedding of *words* (all must be known).

    Returns ``(word, cosine)`` pairs sorted by decreasing similarity,
    excluding the query words and anything in *exclude*.
    """
    if not words:
        raise ValueError("words must be non-empty")
    normed = model.normalized_vectors()
    ids = [model.vocabulary.word_id(w) for w in words]
    query = normed[ids].mean(axis=0)
    norm = np.linalg.norm(query)
    if norm > 0:
        query = query / norm
    scores = normed @ query
    banned_ids = model._banned_ids(set(words) | (exclude or set()))
    return [
        (model.vocabulary.word(idx), score)
        for idx, score in _top_k_filtered(scores, k, banned_ids)
    ]


def expand_lexicon(
    model: Word2Vec,
    seeds: Iterable[str],
    k: int = 10,
    max_size: int = 200,
    min_similarity: float = 0.5,
    max_rounds: int = 20,
) -> list[str]:
    """Iteratively expand *seeds* into a lexicon via k-NN search.

    Each round queries the *k* nearest neighbours of every word on the
    current frontier; neighbours above *min_similarity* join the lexicon
    and form the next frontier.  Expansion stops at *max_size* words, at
    *max_rounds* rounds, or when a round adds nothing.

    Seed words missing from the model vocabulary are skipped (a warning
    case the caller can detect by checking the result); at least one seed
    must be known.

    Each round scores the whole frontier against the vocabulary in one
    matmul (:meth:`Word2Vec.most_similar_batch`).  The lexicon equals
    the one per-frontier-word queries build (property-tested in
    ``tests/semantics/test_batched_expansion.py``).
    """
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
        neighbor_lists = model.most_similar_batch(
            frontier, k=k, exclude=member_set
        )
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
