"""Tests for repro.core.features (the 11 Table II features)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.analyzer import SemanticAnalyzer
from repro.core.features import FEATURE_NAMES, N_FEATURES, FeatureExtractor
from repro.core.parallel_analysis import DEFAULT_CHUNK_SIZE
from repro import parallel
from tests.pools import (
    PARITY_CPUS,
    count_real_pools,
    executor,
    on_cpus,
    simulated_pool,
)


@pytest.fixture(scope="module")
def extractor(analyzer):
    return FeatureExtractor(analyzer)


def idx(name):
    return FEATURE_NAMES.index(name)


class TestFeatureNames:
    def test_eleven_features(self):
        assert N_FEATURES == 11
        assert len(FEATURE_NAMES) == 11

    def test_paper_names_present(self):
        for name in (
            "averagePositiveNumber",
            "averagePositive/NegativeNumber",
            "uniqueWordRatio",
            "averageSentiment",
            "averageCommentEntropy",
            "averageCommentLength",
            "sumCommentLength",
            "sumPunctuationNumber",
            "averagePunctuationRatio",
            "averageNgramNumber",
            "averageNgramRatio",
        ):
            assert name in FEATURE_NAMES


class TestExtract:
    def test_vector_shape(self, extractor):
        vec = extractor.extract(["haoping!"])
        assert vec.shape == (N_FEATURES,)

    def test_empty_item_is_zero_vector(self, extractor):
        np.testing.assert_array_equal(
            extractor.extract([]), np.zeros(N_FEATURES)
        )

    def test_all_finite(self, extractor, language, rng):
        from repro.ecommerce.language import PROMO_STYLE

        comments = [
            language.generate_comment(PROMO_STYLE, rng)[0] for __ in range(5)
        ]
        vec = extractor.extract(comments)
        assert np.all(np.isfinite(vec))

    def test_sum_comment_length_counts_words(self, extractor, analyzer):
        text = "haoping"
        words = analyzer.segment(text)
        vec = extractor.extract([text, text])
        assert vec[idx("sumCommentLength")] == 2 * len(words)

    def test_average_comment_length(self, extractor):
        vec = extractor.extract(["haoping", "haoping"])
        assert vec[idx("averageCommentLength")] == pytest.approx(
            vec[idx("sumCommentLength")] / 2
        )

    def test_punctuation_counted(self, extractor):
        clean = extractor.extract(["haoping"])
        noisy = extractor.extract(["haoping,,!"])
        assert (
            noisy[idx("sumPunctuationNumber")]
            > clean[idx("sumPunctuationNumber")]
        )
        assert noisy[idx("sumPunctuationNumber")] == 3.0

    def test_positive_number_uses_lexicon(self, extractor, analyzer):
        positive_word = next(iter(analyzer.lexicon.positive))
        vec = extractor.extract([positive_word])
        assert vec[idx("averagePositiveNumber")] >= 1.0

    def test_positive_number_counts_distinct(self, extractor, analyzer):
        positive_word = next(iter(analyzer.lexicon.positive))
        once = extractor.extract([positive_word])
        thrice = extractor.extract([positive_word * 3])
        # Set semantics: repeating the same positive word does not
        # increase the distinct count.
        assert thrice[idx("averagePositiveNumber")] == pytest.approx(
            once[idx("averagePositiveNumber")], abs=1.0
        )

    def test_pos_neg_difference_absolute(self, extractor, analyzer):
        pos = next(iter(analyzer.lexicon.positive))
        neg = next(iter(analyzer.lexicon.negative))
        vec = extractor.extract([neg])
        assert vec[idx("averagePositive/NegativeNumber")] >= 0.0
        both = extractor.extract([pos + neg])
        assert both[idx("averagePositive/NegativeNumber")] >= 0.0

    def test_unique_word_ratio_bounds(self, extractor, language, rng):
        from repro.ecommerce.language import PROMO_STYLE

        comments = [
            language.generate_comment(PROMO_STYLE, rng)[0] for __ in range(3)
        ]
        vec = extractor.extract(comments)
        assert 0.0 < vec[idx("uniqueWordRatio")] <= 1.0

    def test_sentiment_in_unit_interval(self, extractor, language, rng):
        from repro.ecommerce.language import ORGANIC_NEGATIVE_STYLE

        comments = [
            language.generate_comment(ORGANIC_NEGATIVE_STYLE, rng)[0]
            for __ in range(3)
        ]
        vec = extractor.extract(comments)
        assert 0.0 <= vec[idx("averageSentiment")] <= 1.0

    def test_ngram_ratio_bounded_by_one(self, extractor, language, rng):
        from repro.ecommerce.language import PROMO_STYLE

        comments = [
            language.generate_comment(PROMO_STYLE, rng)[0] for __ in range(4)
        ]
        vec = extractor.extract(comments)
        assert 0.0 <= vec[idx("averageNgramRatio")] <= 1.0


class TestDegenerateComments:
    """Comments that stress the per-comment denominators."""

    def test_punctuation_only_comment_segments_to_zero_words(
        self, extractor, analyzer
    ):
        text = "!!,,.."
        assert analyzer.segment(text) == []
        vec = extractor.extract([text])
        assert np.all(np.isfinite(vec))
        # No words: word-derived features are zero ...
        assert vec[idx("sumCommentLength")] == 0.0
        assert vec[idx("uniqueWordRatio")] == 0.0
        assert vec[idx("averageCommentEntropy")] == 0.0
        assert vec[idx("averageNgramNumber")] == 0.0
        assert vec[idx("averageNgramRatio")] == 0.0
        # ... but the structural punctuation features still count.
        assert vec[idx("sumPunctuationNumber")] == 6.0
        assert vec[idx("averagePunctuationRatio")] == 1.0

    def test_single_word_comment_skips_bigram_ratio(
        self, extractor, analyzer
    ):
        # One word -> no bigrams; the len(words) > 1 guard must keep
        # the ratio term out of the sum instead of dividing by zero.
        text = "haoping"
        assert len(analyzer.segment(text)) == 1
        vec = extractor.extract([text])
        assert np.all(np.isfinite(vec))
        assert vec[idx("averageNgramNumber")] == 0.0
        assert vec[idx("averageNgramRatio")] == 0.0
        assert vec[idx("averageCommentLength")] == 1.0

    def test_mixed_degenerate_batch_denominators(self, extractor, analyzer):
        # [zero-word, one-word, two-word]: averages divide by the
        # *comment* count (3), word ratios by the *word* count (3).
        comments = ["!!", "haoping", "haoping haoping"]
        total_words = sum(len(analyzer.segment(t)) for t in comments)
        assert total_words == 3
        vec = extractor.extract(comments)
        assert np.all(np.isfinite(vec))
        assert vec[idx("sumCommentLength")] == float(total_words)
        assert vec[idx("averageCommentLength")] == pytest.approx(
            total_words / 3
        )
        # "haoping" is the only distinct word over the whole item.
        assert vec[idx("uniqueWordRatio")] == pytest.approx(1 / 3)


class TestBatch:
    def test_extract_many_shape(self, extractor):
        X = extractor.extract_many([["haoping"], ["zan", "mai"], []])
        assert X.shape == (3, N_FEATURES)

    def test_extract_many_empty(self, extractor):
        assert extractor.extract_many([]).shape == (0, N_FEATURES)

    def test_extract_many_rows_match_single(self, extractor):
        comments = ["haoping!", "zan"]
        X = extractor.extract_many([comments])
        np.testing.assert_array_equal(X[0], extractor.extract(comments))

    def test_extract_items_ducktyped(self, extractor, taobao_platform):
        items = taobao_platform.items[:5]
        X = extractor.extract_items(items)
        assert X.shape == (5, N_FEATURES)


class TestParallelBatch:
    def test_parallel_matrix_equals_serial(self, extractor, taobao_platform):
        lists = [i.comment_texts for i in taobao_platform.items[:24]]
        with on_cpus(1):
            serial = extractor.extract_many(lists)
        for n_cpus in PARITY_CPUS[1:]:
            with executor(n_cpus):
                np.testing.assert_array_equal(
                    extractor.extract_many(lists), serial
                )

    def test_single_worker_stays_serial(self, extractor, monkeypatch):
        lists = [["haoping"], ["zan"]] * (DEFAULT_CHUNK_SIZE // 2 + 1)
        expected = extractor.extract_many(lists)

        def boom(*args, **kwargs):
            raise AssertionError("one usable CPU built a pool")

        monkeypatch.setattr(parallel, "ProcessPoolExecutor", boom)
        with on_cpus(1):
            np.testing.assert_array_equal(
                extractor.extract_many(lists), expected
            )

    def test_parallel_leaves_interner_as_serial(self, analyzer, monkeypatch):
        """The workers' vocabulary and segmentation counts merge back:
        a parallel batch leaves its analyzer exactly as a serial batch
        leaves an identical clone -- and by default a two-chunk batch
        on two CPUs does build a pool."""
        rng = np.random.default_rng(21)
        words = sorted(analyzer.lexicon.positive) + ["hao", "zan", "!"]
        # More comments than one analysis chunk, so two workers run,
        # with numbers the shared analyzer's interner has not seen yet.
        lists = [
            [
                "".join(rng.choice(words, size=3)) + str(rng.integers(10**6))
                for __ in range(20)
            ]
            for __ in range(DEFAULT_CHUNK_SIZE // 20 + 10)
        ]
        built = count_real_pools(monkeypatch)
        spec = analyzer.clone_spec()
        runs = []
        for n_cpus in (1, 2):
            clone = SemanticAnalyzer.from_spec(spec)
            base = len(clone.interner)
            with on_cpus(n_cpus):
                matrix = FeatureExtractor(clone).extract_many(lists)
            grown = clone.interner.words_from(base)
            runs.append((matrix, grown, clone.n_segmentations))
        assert built == [2]
        (serial, serial_grown, serial_segs), (parallel_x, grown, segs) = runs
        assert np.array_equal(serial, parallel_x)
        assert serial_grown and grown == serial_grown
        assert serial_segs > 0 and segs == serial_segs

    def test_items_split_across_stores(self, extractor, monkeypatch):
        """Rows do not depend on how items are grouped into stores."""
        import repro.core.features as features

        lists = [["haoping!", "zan"], [], ["mai", "haoping"] * 3, ["zan"]]
        whole = extractor.extract_many(lists)
        monkeypatch.setattr(features, "BATCH_STORE_COMMENTS", 2)
        ranges = [
            (first, stop)
            for __, first, stop in extractor._analyzed_stores(lists)
        ]
        # An item larger than the bound gets a store of its own.
        assert ranges == [(0, 2), (2, 3), (3, 4)]
        np.testing.assert_array_equal(extractor.extract_many(lists), whole)

    def test_more_workers_than_items(self, extractor):
        lists = [["haoping"], ["zan"]]
        with simulated_pool(8):
            X = extractor.extract_many(lists)
        assert X.shape == (2, N_FEATURES)
        with on_cpus(1):
            np.testing.assert_array_equal(X, extractor.extract_many(lists))


class TestBincountOrder:
    """``ColumnarCommentStore.feature_matrix`` sums the float stat
    columns with ``np.bincount(seg, weights=w)``; batch rows equal the
    streaming fold only because it adds each bin's weights left to
    right, in row order, starting from 0.0."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_equals_left_to_right_fold(self, data):
        n_bins = data.draw(st.integers(1, 8))
        values = st.one_of(
            # Mixed magnitudes, subnormals and signed zeros; bounded so
            # a few hundred terms cannot overflow.
            st.floats(min_value=-1e300, max_value=1e300),
            st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 0.1, 1e16, 1.0]),
        )
        # One bin holds more than 128 rows (past numpy's pairwise
        # blocking), the rest are random; bins past n_bins stay empty.
        seg = [0] * data.draw(st.integers(129, 200)) + data.draw(
            st.lists(st.integers(0, n_bins - 1), max_size=64)
        )
        seg = data.draw(st.permutations(seg))
        weights = data.draw(
            st.lists(values, min_size=len(seg), max_size=len(seg))
        )
        expected = [0.0] * (n_bins + 2)
        for bin_, weight in zip(seg, weights):
            expected[bin_] += weight
        got = np.bincount(
            np.asarray(seg, dtype=np.int64),
            weights=np.asarray(weights, dtype=np.float64),
            minlength=n_bins + 2,
        )
        assert [v.hex() for v in got.tolist()] == [
            v.hex() for v in expected
        ]


class TestDiscrimination:
    """The features must separate promo-heavy from organic items."""

    def test_fraud_features_shift(
        self, extractor, taobao_platform
    ):
        fraud = taobao_platform.fraud_items[:10]
        normal = [
            i for i in taobao_platform.normal_items if len(i.comments) >= 3
        ][:30]
        Xf = extractor.extract_items(fraud)
        Xn = extractor.extract_items(normal)
        # Paper claims: fraud items have more positive words, higher
        # sentiment, longer comments, lower unique-word ratio.
        assert Xf[:, idx("averagePositiveNumber")].mean() > (
            Xn[:, idx("averagePositiveNumber")].mean()
        )
        assert Xf[:, idx("averageSentiment")].mean() > (
            Xn[:, idx("averageSentiment")].mean()
        )
        assert Xf[:, idx("averageCommentLength")].mean() > (
            Xn[:, idx("averageCommentLength")].mean()
        )
        assert Xf[:, idx("uniqueWordRatio")].mean() < (
            Xn[:, idx("uniqueWordRatio")].mean()
        )
