"""Tests for repro.core.extended_features."""

from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.extended_features import (
    EXTENDED_FEATURE_NAMES,
    ExtendedFeatureExtractor,
    N_EXTENDED_FEATURES,
    date_burstiness,
)
from repro.core.features import FEATURE_NAMES, N_FEATURES
from tests.oracles.extended_features import extended_vector_scalar


@dataclass
class _Comment:
    content: str
    date: str


@dataclass
class _Item:
    comments: list

    @property
    def comment_texts(self) -> list[str]:
        return [comment.content for comment in self.comments]


class TestDateBurstiness:
    def test_empty_is_zero(self):
        assert date_burstiness([]) == 0.0

    def test_single_date_is_zero(self):
        assert date_burstiness(["2017-09-01 10:00:00"]) == 0.0

    def test_all_in_one_burst(self):
        dates = [f"2017-09-0{d} 10:00:00" for d in range(1, 6)]
        assert date_burstiness(dates) == 1.0

    def test_spread_out_low(self):
        dates = [f"2017-{m:02d}-01 10:00:00" for m in range(1, 13)]
        assert date_burstiness(dates) <= 2 / 12

    def test_half_bursty(self):
        burst = [f"2017-09-01 0{h}:00:00" for h in range(5)]
        spread = [f"2017-{m:02d}-15 10:00:00" for m in (1, 3, 5, 7, 11)]
        value = date_burstiness(burst + spread)
        assert 0.4 <= value <= 0.7

    def test_unparseable_dates_ignored(self):
        assert date_burstiness(["garbage", "also-bad"]) == 0.0

    def test_in_unit_interval(self):
        dates = ["2017-09-01", "2017-09-02", "2017-12-01"]
        assert 0.0 <= date_burstiness(dates) <= 1.0


class TestExtendedExtractor:
    @pytest.fixture(scope="class")
    def extractor(self, analyzer):
        return ExtendedFeatureExtractor(analyzer)

    def test_fifteen_features(self):
        assert N_EXTENDED_FEATURES == 15
        assert EXTENDED_FEATURE_NAMES[:N_FEATURES] == FEATURE_NAMES

    def test_superset_of_base(self, extractor):
        comments = ["haoping!", "zanmai"]
        base = super(ExtendedFeatureExtractor, extractor).extract(comments)
        extended = extractor.extract_extended(comments)
        np.testing.assert_array_equal(extended[:N_FEATURES], base)

    def test_empty_item(self, extractor):
        vec = extractor.extract_extended([])
        assert vec.shape == (N_EXTENDED_FEATURES,)
        np.testing.assert_array_equal(vec, 0.0)

    def test_max_length_feature(self, extractor, analyzer):
        comments = ["haoping", "haopingzanhaoping"]
        vec = extractor.extract_extended(comments)
        idx = EXTENDED_FEATURE_NAMES.index("maxCommentLength")
        longest = max(len(analyzer.segment(c)) for c in comments)
        assert vec[idx] == longest

    def test_burstiness_without_dates_is_zero(self, extractor):
        vec = extractor.extract_extended(["haoping"], dates=None)
        idx = EXTENDED_FEATURE_NAMES.index("dateBurstiness")
        assert vec[idx] == 0.0

    def test_extract_items_uses_comment_dates(
        self, extractor, taobao_platform
    ):
        items = taobao_platform.fraud_items[:3]
        X = extractor.extract_items(items)
        assert X.shape == (3, N_EXTENDED_FEATURES)
        idx = EXTENDED_FEATURE_NAMES.index("dateBurstiness")
        assert np.all(X[:, idx] >= 0.0)

    def test_fraud_items_burstier(self, extractor, taobao_platform):
        """Campaign injections are temporally bursty by construction."""
        fraud = taobao_platform.fraud_items[:15]
        normal = [
            i for i in taobao_platform.normal_items if len(i.comments) >= 5
        ][:30]
        idx = EXTENDED_FEATURE_NAMES.index("dateBurstiness")
        Xf = extractor.extract_items(fraud)
        Xn = extractor.extract_items(normal)
        assert Xf[:, idx].mean() > Xn[:, idx].mean()

    def test_positive_fraction_bounds(self, extractor, taobao_platform):
        items = taobao_platform.items[:10]
        X = extractor.extract_items(items)
        idx = EXTENDED_FEATURE_NAMES.index("positiveCommentFraction")
        assert np.all((X[:, idx] >= 0.0) & (X[:, idx] <= 1.0))

    def test_duplicate_ratio_bounds(self, extractor, taobao_platform):
        items = taobao_platform.items[:10]
        X = extractor.extract_items(items)
        idx = EXTENDED_FEATURE_NAMES.index("duplicateWordRatio")
        assert np.all((X[:, idx] >= 0.0) & (X[:, idx] < 1.0))

    def test_empty_batch(self, extractor):
        assert extractor.extract_items([]).shape == (0, N_EXTENDED_FEATURES)


class TestMatchesPerCommentOracle:
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_matrix_equals_oracle_one_analysis_per_text(
        self, data, analyzer, language
    ):
        """The store-read matrix equals the per-comment loop bit for
        bit, and each distinct text is segmented exactly once."""
        extractor = ExtendedFeatureExtractor(analyzer)
        words = sorted(language.dictionary_weights())[:40]
        text = st.lists(
            st.sampled_from(words + [",", "!", "q", "qqq"]), max_size=12
        ).map("".join)
        date = st.sampled_from(
            ["2017-09-01 10:00:00", "2017-09-03", "2017-12-24", "bad", ""]
        )
        items = data.draw(
            st.lists(
                st.lists(st.builds(_Comment, text, date), max_size=6).map(
                    _Item
                ),
                max_size=8,
            )
        )
        before = analyzer.n_segmentations
        matrix = extractor.extract_items(items)
        distinct = {c.content for item in items for c in item.comments}
        assert analyzer.n_segmentations - before == len(distinct)
        expected = [
            extended_vector_scalar(
                extractor,
                item.comment_texts,
                [c.date for c in item.comments],
            )
            for item in items
        ]
        assert matrix.shape == (len(items), N_EXTENDED_FEATURES)
        for row, reference in zip(matrix, expected):
            assert np.array_equal(row, reference)
