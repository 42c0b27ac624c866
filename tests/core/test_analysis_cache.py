"""Tests for the shared analysis cache and its extractor integration."""

import pytest

from repro.core.analysis_cache import AnalysisCache, CacheInfo
from repro.core.features import FeatureExtractor
from repro.core.lexicon import SentimentLexicon
from tests.oracles.features import assert_columns_identical, stats_of


class TestAnalysisCache:
    def test_maxsize_validation(self):
        with pytest.raises(ValueError):
            AnalysisCache(0)
        with pytest.raises(ValueError):
            AnalysisCache(-3)

    def test_miss_then_hit(self):
        cache = AnalysisCache(4)
        assert cache.get("a") is None
        cache.put("a", 1)
        assert cache.get("a") == 1
        info = cache.info()
        assert (info.hits, info.misses, info.evictions) == (1, 1, 0)
        assert info.size == 1
        assert info.maxsize == 4

    def test_contains_and_len(self):
        cache = AnalysisCache(4)
        cache.put("a", 1)
        assert "a" in cache
        assert "b" not in cache
        assert len(cache) == 1

    def test_lru_eviction_order(self):
        cache = AnalysisCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)  # evicts "a"
        assert "a" not in cache
        assert "b" in cache and "c" in cache
        assert cache.info().evictions == 1

    def test_hit_refreshes_recency(self):
        cache = AnalysisCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # "b" is now least recent
        cache.put("c", 3)
        assert "a" in cache
        assert "b" not in cache

    def test_put_existing_updates_value(self):
        cache = AnalysisCache(2)
        cache.put("a", 1)
        cache.put("a", 2)
        assert cache.get("a") == 2
        assert len(cache) == 1
        assert cache.info().evictions == 0

    def test_clear_keeps_counters(self):
        cache = AnalysisCache(2)
        cache.put("a", 1)
        cache.get("a")
        cache.get("zz")
        cache.clear()
        assert len(cache) == 0
        info = cache.info()
        assert (info.hits, info.misses) == (1, 1)

    def test_hit_rate(self):
        assert CacheInfo(0, 0, 0, 0, 8).hit_rate == 0.0
        assert CacheInfo(3, 1, 0, 2, 8).hit_rate == 0.75


class TestExtractorCacheIntegration:
    def test_cache_disabled(self, analyzer):
        extractor = FeatureExtractor(analyzer, cache_size=0)
        assert extractor.cache_info() is None
        extractor.clear_cache()  # no-op, must not raise
        text = sorted(analyzer.lexicon.positive)[0]
        assert_columns_identical(
            extractor.comment_stats(text), extractor.comment_stats(text)
        )

    def test_repeat_analysis_hits_cache(self, analyzer):
        extractor = FeatureExtractor(analyzer)
        text = "".join(sorted(analyzer.lexicon.positive)[:3])
        first = extractor.comment_stats(text)
        second = extractor.comment_stats(text)
        assert_columns_identical(second, first)
        info = extractor.cache_info()
        assert info.hits == 1
        assert info.misses >= 1

    def test_cached_text_is_not_resegmented(self, analyzer):
        extractor = FeatureExtractor(analyzer)
        text = "".join(sorted(analyzer.lexicon.positive)[:3])
        calls = 0
        original = analyzer.segment

        def counting(t):
            nonlocal calls
            calls += 1
            return original(t)

        analyzer.segment = counting
        try:
            extractor.comment_stats(text)
            extractor.comment_stats(text)
            extractor.comment_stats_many([text, text, text])
        finally:
            # Remove the instance attribute rather than assigning the
            # bound method back: an assigned bound method would shadow
            # the class method forever (and smuggle a stale analyzer
            # copy into any later clone_spec pickle).
            del analyzer.segment
        assert calls == 1

    def test_eviction_and_refill_bit_identical(self, analyzer, language):
        """Re-analyzing an evicted text reproduces the same stats."""
        from repro.ecommerce.language import PROMO_STYLE

        import numpy as np

        rng = np.random.default_rng(3)
        texts = [
            language.generate_comment(PROMO_STYLE, rng)[0]
            for __ in range(20)
        ]
        extractor = FeatureExtractor(analyzer, cache_size=4)
        first = extractor.comment_stats_many(texts)
        # Every early text has been evicted by now (cache holds 4).
        assert extractor.cache_info().evictions > 0
        second = extractor.comment_stats_many(texts)
        assert_columns_identical(second, first)
        assert np.array_equal(
            extractor.extract(texts), extractor.extract(texts)
        )

    def test_lexicon_replacement_invalidates_cache(self, analyzer):
        extractor = FeatureExtractor(analyzer)
        text = "".join(sorted(analyzer.lexicon.positive)[:3])
        interner = analyzer.interner
        before = extractor.comment_stats(text)
        assert extractor.cache_info().size == 1
        misses = extractor.cache_info().misses
        original = analyzer.lexicon
        try:
            # Content-identical but a *different object*: the analyzer
            # must hand out a fresh interner and the extractor must
            # drop every cached entry.
            analyzer.lexicon = SentimentLexicon(
                positive=original.positive, negative=original.negative
            )
            after = extractor.comment_stats(text)
            # Re-analyzed, not served from the dropped entry ...
            assert extractor.cache_info().misses == misses + 1
            # ... with the same content -> the same stats.
            assert stats_of(after, analyzer.interner) == stats_of(
                before, interner
            )
            assert extractor.cache_info().size == 1
        finally:
            analyzer.lexicon = original

    def test_interner_identity_changes_on_replacement(self, analyzer):
        first = analyzer.interner
        assert analyzer.interner is first  # stable while resources are
        original = analyzer.lexicon
        try:
            analyzer.lexicon = SentimentLexicon(
                positive=original.positive, negative=original.negative
            )
            assert analyzer.interner is not first
        finally:
            analyzer.lexicon = original
