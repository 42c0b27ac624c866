"""Tests for repro.text.trie and the trie-backed Viterbi fast path."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.text.segmentation import ViterbiSegmenter
from repro.text.tokenizer import split_punctuation
from repro.text.trie import Trie
from tests.oracles.segmentation import segment_run_reference

LEXICON = {
    "haoping": 100,
    "hao": 60,
    "ping": 10,
    "zhide": 40,
    "mai": 80,
    "zhi": 5,
    "de": 25,
    "demai": 2,
}


class TestTrieBasics:
    def test_empty_trie(self):
        trie = Trie()
        assert len(trie) == 0
        assert trie.max_depth == 0
        assert "hao" not in trie
        assert trie.get("hao") is None
        assert trie.get("hao", -1.0) == -1.0

    def test_insert_and_get(self):
        trie = Trie()
        trie.insert("hao", 1.5)
        assert "hao" in trie
        assert trie.get("hao") == 1.5
        assert len(trie) == 1
        assert trie.max_depth == 3

    def test_prefix_is_not_a_word(self):
        trie = Trie({"haoping": 1})
        assert "hao" not in trie
        assert trie.get("hao") is None

    def test_falsy_payload_is_stored(self):
        # 0.0 is a legitimate log-probability and must not read as
        # "missing".
        trie = Trie({"a": 0.0})
        assert "a" in trie
        assert trie.get("a", -99.0) == 0.0

    def test_overwrite_keeps_word_count(self):
        trie = Trie()
        trie.insert("hao", 1)
        trie.insert("hao", 2)
        assert len(trie) == 1
        assert trie.get("hao") == 2

    def test_empty_word_rejected(self):
        with pytest.raises(ValueError):
            Trie().insert("", 1)

    def test_from_mapping(self):
        trie = Trie(LEXICON)
        assert len(trie) == len(LEXICON)
        assert trie.max_depth == max(len(w) for w in LEXICON)
        for word, count in LEXICON.items():
            assert trie.get(word) == count


class TestMatchesFrom:
    def test_shortest_first_order(self):
        trie = Trie(LEXICON)
        matches = list(trie.matches_from("haoping", 0))
        assert matches == [(3, LEXICON["hao"]), (7, LEXICON["haoping"])]

    def test_respects_start_offset(self):
        trie = Trie(LEXICON)
        assert list(trie.matches_from("haoping", 3)) == [
            (7, LEXICON["ping"])
        ]

    def test_no_matches(self):
        trie = Trie(LEXICON)
        assert list(trie.matches_from("qqq", 0)) == []

    def test_stops_at_dead_prefix(self):
        # "haoq...": walk reaches 'hao', then 'q' kills the branch --
        # "haoping" is never reported even though "hao" was.
        trie = Trie(LEXICON)
        assert list(trie.matches_from("haoqping", 0)) == [
            (3, LEXICON["hao"])
        ]

    @given(
        lexicon=st.dictionaries(
            st.text(alphabet="abcd", min_size=1, max_size=4),
            st.integers(1, 100),
            min_size=1,
            max_size=12,
        ),
        text=st.text(alphabet="abcde", max_size=12),
        start=st.integers(0, 12),
    )
    @settings(max_examples=80)
    def test_matches_equal_brute_force(self, lexicon, text, start):
        trie = Trie(lexicon)
        expected = [
            (end, lexicon[text[start:end]])
            for end in range(start + 1, len(text) + 1)
            if text[start:end] in lexicon
        ]
        assert list(trie.matches_from(text, start)) == expected


class TestTrieViterbiEquivalence:
    """The trie-driven DP must reproduce the substring-hashing
    reference segmentation exactly (same words, not merely same
    likelihood)."""

    def _segment_reference(self, seg: ViterbiSegmenter, text: str):
        words = []
        for run in split_punctuation(text):
            words.extend(segment_run_reference(seg, run))
        return words

    def test_known_ambiguity(self):
        seg = ViterbiSegmenter(LEXICON)
        text = "zhidemai"
        assert seg.segment(text) == self._segment_reference(seg, text)
        assert seg.segment(text) == ["zhide", "mai"]

    @given(
        st.lists(st.sampled_from(sorted(LEXICON)), min_size=0, max_size=8)
    )
    @settings(max_examples=60)
    def test_rendered_words_match_reference(self, word_seq):
        seg = ViterbiSegmenter(LEXICON)
        text = "".join(word_seq)
        assert seg.segment(text) == self._segment_reference(seg, text)

    @given(st.text(alphabet="adehgimnopqz,.! ", max_size=40))
    @settings(max_examples=80)
    def test_arbitrary_text_matches_reference(self, text):
        seg = ViterbiSegmenter(LEXICON)
        assert seg.segment(text) == self._segment_reference(seg, text)

    @given(
        lexicon=st.dictionaries(
            st.text(alphabet="abcd", min_size=1, max_size=4),
            st.integers(1, 100),
            min_size=1,
            max_size=16,
        ),
        text=st.text(alphabet="abcde", max_size=30),
    )
    @settings(max_examples=100)
    def test_random_dictionaries_match_reference(self, lexicon, text):
        # Random dictionaries exercise tie-breaking: equal-score
        # segmentations must resolve identically in both
        # implementations.
        seg = ViterbiSegmenter(lexicon)
        assert seg.segment(text) == self._segment_reference(seg, text)

    def test_language_scale_dictionary(self, language, rng):
        from repro.ecommerce.language import PROMO_STYLE

        seg = ViterbiSegmenter(language.dictionary_weights())
        for __ in range(10):
            text, __words = language.generate_comment(PROMO_STYLE, rng)
            assert seg.segment(text) == self._segment_reference(seg, text)
