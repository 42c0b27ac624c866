"""Tests for repro.text.segmentation."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.text.segmentation import (
    BidirectionalMatcher,
    MaxMatchSegmenter,
    ViterbiSegmenter,
)
from repro.text.tokenizer import strip_punctuation
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

ALL_SEGMENTERS = [MaxMatchSegmenter, BidirectionalMatcher, ViterbiSegmenter]


@pytest.fixture(params=ALL_SEGMENTERS)
def any_segmenter(request):
    return request.param(LEXICON)


class TestConstruction:
    def test_empty_lexicon_rejected(self):
        with pytest.raises(ValueError):
            ViterbiSegmenter({})

    def test_lexicon_size(self):
        assert ViterbiSegmenter(LEXICON).lexicon_size == len(LEXICON)

    def test_max_word_length(self):
        assert ViterbiSegmenter(LEXICON).max_word_length == 7

    def test_accepts_vocabulary(self):
        from repro.text.vocabulary import Vocabulary

        seg = ViterbiSegmenter(Vocabulary(LEXICON))
        assert seg.knows("haoping")


class TestCommonBehaviour:
    def test_empty_text(self, any_segmenter):
        assert any_segmenter.segment("") == []

    def test_punctuation_only(self, any_segmenter):
        assert any_segmenter.segment(",.!") == []

    def test_single_known_word(self, any_segmenter):
        assert any_segmenter.segment("haoping") == ["haoping"]

    def test_cover_property(self, any_segmenter):
        text = "haopingzhidemai"
        assert "".join(any_segmenter.segment(text)) == text

    def test_punctuation_removed(self, any_segmenter):
        words = any_segmenter.segment("haoping,zhide!")
        assert words == ["haoping", "zhide"]

    def test_segment_many(self, any_segmenter):
        results = any_segmenter.segment_many(["haoping", "mai"])
        assert results == [["haoping"], ["mai"]]

    def test_oov_characters_survive(self, any_segmenter):
        # q is not in any lexicon word longer than 1; the char must
        # still appear in the output as a single-char word.
        words = any_segmenter.segment("qqhaoping")
        assert "".join(words) == "qqhaoping"


class TestMaxMatch:
    def test_forward_greedy(self):
        seg = MaxMatchSegmenter(LEXICON)
        # Greedy forward takes "haoping" not "hao"+"ping".
        assert seg.segment("haoping") == ["haoping"]

    def test_backward_direction(self):
        # Backward greedy grabs "demai" from the right edge, unlike
        # Viterbi which prefers the likelier "zhide"+"mai".
        seg = MaxMatchSegmenter(LEXICON, reverse=True)
        assert seg.segment("zhidemai") == ["zhi", "demai"]

    def test_forward_backward_can_differ(self):
        lex = {"ab": 5, "bc": 5, "a": 1, "c": 1}
        fwd = MaxMatchSegmenter(lex, reverse=False).segment("abc")
        bwd = MaxMatchSegmenter(lex, reverse=True).segment("abc")
        assert fwd == ["ab", "c"]
        assert bwd == ["a", "bc"]


class TestBidirectional:
    def test_prefers_fewer_words(self):
        lex = {"abc": 1, "a": 1, "bc": 1}
        seg = BidirectionalMatcher(lex)
        assert seg.segment("abc") == ["abc"]

    def test_tie_prefers_fewer_singles(self):
        lex = {"ab": 5, "cd": 5, "a": 1, "bcd": 1}
        seg = BidirectionalMatcher(lex)
        result = seg.segment("abcd")
        singles = sum(1 for w in result if len(w) == 1)
        assert singles == min(
            sum(1 for w in ["ab", "cd"] if len(w) == 1),
            sum(1 for w in ["a", "bcd"] if len(w) == 1),
        )


class TestViterbi:
    def test_prefers_likely_words(self):
        # "zhidemai": "zhide"+"mai" (40*80) beats "zhi"+"demai" (5*2).
        seg = ViterbiSegmenter(LEXICON)
        assert seg.segment("zhidemai") == ["zhide", "mai"]

    def test_word_log_prob_ordering(self):
        seg = ViterbiSegmenter(LEXICON)
        assert seg.word_log_prob("haoping") > seg.word_log_prob("ping")

    def test_oov_log_prob_is_penalized(self):
        seg = ViterbiSegmenter(LEXICON)
        assert seg.word_log_prob("zzzz") < seg.word_log_prob("ping")

    def test_recovers_language_rendering(self, language, rng):
        """Viterbi recovers most true words of generated comments."""
        from repro.ecommerce.language import PROMO_STYLE

        seg = ViterbiSegmenter(language.dictionary_weights())
        total = 0
        correct = 0
        for __ in range(20):
            text, true_words = language.generate_comment(PROMO_STYLE, rng)
            recovered = seg.segment(text)
            total += len(true_words)
            # Multiset overlap.
            from collections import Counter

            overlap = Counter(true_words) & Counter(recovered)
            correct += sum(overlap.values())
        assert correct / total > 0.9


class TestDPBufferReuse:
    """One segmenter instance reuses its DP buffers across runs; stale
    values from a longer earlier run must never leak into a later
    segmentation (bit-identity against the fresh-buffer reference)."""

    def _reference(self, seg, text):
        from repro.text.tokenizer import split_punctuation

        words = []
        for run in split_punctuation(text):
            words.extend(segment_run_reference(seg, run))
        return words

    @given(
        st.lists(
            st.text(alphabet="adehgimnopqz,.!", max_size=30),
            min_size=1,
            max_size=12,
        )
    )
    @settings(max_examples=60)
    def test_sequential_segmentations_match_reference(self, texts):
        seg = ViterbiSegmenter(LEXICON)
        for text in texts:
            assert seg.segment(text) == self._reference(seg, text)

    def test_long_then_short_runs(self):
        # A long run grows the buffers; the short run after it reads
        # only freshly-reset cells.
        seg = ViterbiSegmenter(LEXICON)
        long_text = "haopingzhidemai" * 20
        short_text = "zhidemai"
        assert seg.segment(long_text) == self._reference(seg, long_text)
        assert seg.segment(short_text) == self._reference(seg, short_text)
        assert seg.segment(short_text) == ["zhide", "mai"]

    def test_buffers_survive_pickling(self):
        import pickle

        seg = pickle.loads(pickle.dumps(ViterbiSegmenter(LEXICON)))
        assert seg.segment("zhidemai") == ["zhide", "mai"]

    def test_unpickled_pre_buffer_archive(self):
        # Archives pickled before the DP buffers existed rebuild them
        # lazily on first use.
        seg = ViterbiSegmenter(LEXICON)
        del seg._best
        del seg._back
        assert seg.segment("zhidemai") == ["zhide", "mai"]


class TestCoverProperty:
    @given(
        st.lists(
            st.sampled_from(sorted(LEXICON)), min_size=1, max_size=12
        )
    )
    @settings(max_examples=60)
    def test_viterbi_cover_of_rendered_words(self, word_seq):
        seg = ViterbiSegmenter(LEXICON)
        text = "".join(word_seq)
        assert "".join(seg.segment(text)) == text

    @given(st.text(alphabet="adehgimnopz,.!", max_size=40))
    @settings(max_examples=60)
    def test_all_segmenters_cover_arbitrary_text(self, text):
        expected = strip_punctuation(text).replace(" ", "")
        for cls in ALL_SEGMENTERS:
            seg = cls(LEXICON)
            assert "".join(seg.segment(text)) == expected
