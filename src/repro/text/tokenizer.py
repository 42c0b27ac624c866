"""Character-level utilities shared by the segmenters and feature code.

The synthetic comment language used by the platform simulator (see
:mod:`repro.ecommerce.language`) renders comments the way Chinese is
rendered: words are concatenated with *no* whitespace, and sentences are
punctuated with a mix of full-width and ASCII punctuation marks.  The
functions here classify characters and split raw comment strings into
maximal punctuation-free runs, which the dictionary segmenters then cut
into words.
"""

from __future__ import annotations

from typing import Iterable

#: Punctuation marks that occur in platform comments.  The set mixes ASCII
#: marks with the full-width marks common in Chinese e-commerce comments
#: (the paper's Listing 1 example uses both).
PUNCTUATION: frozenset[str] = frozenset(
    ".,!?;:~-()[]\"'" + "，。！？；：、…（）【】「」《》"
)

#: Characters that terminate a sentence; used by the comment generator and
#: by the punctuation statistics.
SENTENCE_FINAL: frozenset[str] = frozenset(".!?。！？…")


def is_punctuation(char: str) -> bool:
    """Return True when *char* is a punctuation mark.

    >>> is_punctuation("!")
    True
    >>> is_punctuation("a")
    False
    """
    return char in PUNCTUATION


def strip_punctuation(text: str) -> str:
    """Remove every punctuation mark from *text*, keeping word characters.

    >>> strip_punctuation("hao,ping!")
    'haoping'
    """
    return "".join(char for char in text if char not in PUNCTUATION)


def split_punctuation(text: str) -> list[str]:
    """Split *text* into maximal punctuation-free runs.

    Punctuation characters are dropped; the remaining runs are what the
    dictionary segmenters operate on.

    >>> split_punctuation("haoping!zhide,mai")
    ['haoping', 'zhide', 'mai']
    """
    runs: list[str] = []
    current: list[str] = []
    for char in text:
        if char in PUNCTUATION or char.isspace():
            if current:
                runs.append("".join(current))
                current = []
        else:
            current.append(char)
    if current:
        runs.append("".join(current))
    return runs


def join_words(words: Iterable[str], separator: str = "") -> str:
    """Render *words* back into unsegmented text (inverse of segmentation)."""
    return separator.join(words)
