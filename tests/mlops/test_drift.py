"""Tests for repro.mlops.drift (PSI / KS and the live monitor)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.features import FEATURE_NAMES
from repro.ml.gbdt import _BinMapper
from repro.mlops.drift import (
    DriftError,
    DriftMonitor,
    ReferenceHistogram,
    ks_from_counts,
    psi_from_counts,
)


def _matrix(rng, n_rows=400, shift=0.0, scale=1.0):
    X = rng.normal(loc=shift, scale=scale, size=(n_rows, len(FEATURE_NAMES)))
    return np.abs(X)


class TestPsi:
    def test_identical_histograms_exactly_zero(self):
        counts = np.array([5.0, 10.0, 3.0, 0.0, 7.0])
        assert psi_from_counts(counts, counts) == 0.0

    def test_proportional_histograms_exactly_zero(self):
        counts = np.array([5.0, 10.0, 3.0, 2.0])
        assert psi_from_counts(counts, counts * 3) == 0.0

    def test_shifted_distribution_large(self):
        reference = np.array([100.0, 50.0, 10.0, 1.0])
        shifted = np.array([1.0, 10.0, 50.0, 100.0])
        assert psi_from_counts(reference, shifted) > 0.25

    def test_mild_shift_small(self):
        reference = np.array([100.0, 100.0, 100.0, 100.0])
        mild = np.array([105.0, 95.0, 102.0, 98.0])
        assert 0.0 < psi_from_counts(reference, mild) < 0.1

    def test_empty_live_is_zero(self):
        reference = np.array([10.0, 20.0])
        assert psi_from_counts(reference, np.zeros(2)) == 0.0

    def test_empty_reference_raises(self):
        with pytest.raises(DriftError):
            psi_from_counts(np.zeros(3), np.ones(3))

    def test_shape_mismatch_raises(self):
        with pytest.raises(DriftError):
            psi_from_counts(np.ones(3), np.ones(4))

    def test_empty_live_bin_is_finite(self):
        reference = np.array([10.0, 10.0, 10.0])
        live = np.array([15.0, 15.0, 0.0])
        value = psi_from_counts(reference, live)
        assert np.isfinite(value) and value > 0.0

    @given(
        st.lists(
            st.integers(min_value=0, max_value=1000), min_size=2, max_size=16
        ).filter(lambda c: sum(c) > 0)
    )
    @settings(max_examples=50, deadline=None)
    def test_property_self_psi_zero(self, counts):
        histogram = np.array(counts, dtype=float)
        assert psi_from_counts(histogram, histogram) == 0.0

    @given(
        st.lists(
            st.integers(min_value=0, max_value=1000), min_size=2, max_size=16
        ).filter(lambda c: sum(c) > 0),
        st.lists(
            st.integers(min_value=0, max_value=1000), min_size=2, max_size=16
        ).filter(lambda c: sum(c) > 0),
    )
    @settings(max_examples=50, deadline=None)
    def test_property_psi_nonnegative(self, a, b):
        size = min(len(a), len(b))
        p = np.array(a[:size], dtype=float)
        q = np.array(b[:size], dtype=float)
        if p.sum() == 0 or q.sum() == 0:
            return
        assert psi_from_counts(p, q) >= 0.0


class TestKs:
    def test_identical_is_zero(self):
        counts = np.array([4.0, 4.0, 4.0])
        assert ks_from_counts(counts, counts) == 0.0

    def test_disjoint_is_one(self):
        reference = np.array([10.0, 0.0])
        live = np.array([0.0, 10.0])
        assert ks_from_counts(reference, live) == pytest.approx(1.0)

    def test_empty_either_side_is_zero(self):
        counts = np.array([1.0, 2.0])
        assert ks_from_counts(counts, np.zeros(2)) == 0.0
        assert ks_from_counts(np.zeros(2), counts) == 0.0

    @given(
        st.lists(
            st.integers(min_value=0, max_value=500), min_size=2, max_size=12
        ).filter(lambda c: sum(c) > 0),
        st.lists(
            st.integers(min_value=0, max_value=500), min_size=2, max_size=12
        ).filter(lambda c: sum(c) > 0),
    )
    @settings(max_examples=50, deadline=None)
    def test_property_symmetric_and_bounded(self, a, b):
        size = min(len(a), len(b))
        p = np.array(a[:size], dtype=float)
        q = np.array(b[:size], dtype=float)
        if p.sum() == 0 or q.sum() == 0:
            return
        forward = ks_from_counts(p, q)
        backward = ks_from_counts(q, p)
        assert forward == pytest.approx(backward)
        assert 0.0 <= forward <= 1.0


class TestReferenceHistogram:
    def test_from_matrix_shapes(self, rng):
        X = _matrix(rng)
        reference = ReferenceHistogram.from_matrix(X)
        assert reference.n_features == len(FEATURE_NAMES)
        assert reference.n_rows == X.shape[0]
        for edge, count in zip(reference.edges, reference.counts):
            assert len(count) == len(edge) + 1
            assert count.sum() == X.shape[0]

    def test_constant_feature_single_bin(self, rng):
        X = _matrix(rng)
        X[:, 0] = 3.5
        reference = ReferenceHistogram.from_matrix(X)
        assert len(reference.edges[0]) == 0
        assert reference.counts[0].tolist() == [X.shape[0]]

    @given(
        seed=st.integers(0, 2**16),
        n_rows=st.integers(1, 120),
        levels=st.lists(st.integers(1, 60), min_size=11, max_size=11),
    )
    @settings(max_examples=40, deadline=None)
    def test_edges_are_the_gbdt_split_points(self, seed, n_rows, levels):
        """One cut computation: the reference's edges equal the hist
        GBDT's split points bit for bit, on constant, low-cardinality
        and continuous columns alike."""
        rng = np.random.default_rng(seed)
        X = np.column_stack(
            [
                rng.normal(size=n_rows)
                if k == 60
                else rng.integers(0, k, size=n_rows) * 0.37
                for k in levels
            ]
        )
        reference = ReferenceHistogram.from_matrix(X, n_bins=32)
        mapper = _BinMapper(n_bins=32)
        mapper.fit_transform(X)
        for edge, splits in zip(reference.edges, mapper.split_points_):
            assert edge.dtype == splits.dtype
            assert edge.tobytes() == splits.tobytes()

    def test_empty_matrix_rejected(self):
        with pytest.raises(DriftError):
            ReferenceHistogram.from_matrix(
                np.empty((0, len(FEATURE_NAMES)))
            )

    def test_column_count_mismatch_rejected(self, rng):
        with pytest.raises(DriftError):
            ReferenceHistogram.from_matrix(rng.normal(size=(10, 3)))

    def test_save_load_roundtrip(self, rng, tmp_path):
        X = _matrix(rng)
        reference = ReferenceHistogram.from_matrix(X)
        reference.save(tmp_path)
        assert ReferenceHistogram.exists(tmp_path)
        loaded = ReferenceHistogram.load(tmp_path)
        assert loaded.feature_names == reference.feature_names
        for a, b in zip(loaded.edges, reference.edges):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(loaded.counts, reference.counts):
            np.testing.assert_array_equal(a, b)

    def test_load_missing_raises(self, tmp_path):
        assert not ReferenceHistogram.exists(tmp_path)
        with pytest.raises(DriftError):
            ReferenceHistogram.load(tmp_path)


class TestDriftMonitor:
    def test_unshifted_traffic_low_psi(self, rng):
        X = _matrix(rng, n_rows=2000)
        monitor = DriftMonitor(ReferenceHistogram.from_matrix(X))
        monitor.observe_matrix(_matrix(rng, n_rows=2000))
        summary = monitor.summary()
        assert summary["n_live_rows"] == 2000
        assert summary["max_psi"] < 0.1

    def test_identical_traffic_zero_psi(self, rng):
        X = _matrix(rng)
        monitor = DriftMonitor(ReferenceHistogram.from_matrix(X))
        monitor.observe_matrix(X)
        assert monitor.summary()["max_psi"] == 0.0

    def test_shifted_traffic_high_psi(self, rng):
        X = _matrix(rng, n_rows=2000)
        monitor = DriftMonitor(ReferenceHistogram.from_matrix(X))
        monitor.observe_matrix(_matrix(rng, n_rows=2000, shift=4.0))
        summary = monitor.summary()
        assert summary["max_psi"] > 0.2
        assert summary["max_ks"] > 0.2

    def test_single_row_observation(self, rng):
        X = _matrix(rng)
        monitor = DriftMonitor(ReferenceHistogram.from_matrix(X))
        monitor.observe_matrix(X[0])  # 1-D vector path
        assert monitor.n_live_rows == 1

    def test_no_traffic_summary_is_clean(self, rng):
        monitor = DriftMonitor(ReferenceHistogram.from_matrix(_matrix(rng)))
        summary = monitor.summary()
        assert summary["n_live_rows"] == 0
        assert summary["max_psi"] == 0.0
        assert summary["max_ks"] == 0.0

    def test_reset_clears_live_state(self, rng):
        X = _matrix(rng)
        monitor = DriftMonitor(ReferenceHistogram.from_matrix(X))
        monitor.observe_matrix(_matrix(rng, shift=4.0))
        monitor.reset()
        assert monitor.n_live_rows == 0
        assert monitor.summary()["max_psi"] == 0.0

    def test_wrong_width_rejected(self, rng):
        monitor = DriftMonitor(ReferenceHistogram.from_matrix(_matrix(rng)))
        with pytest.raises(DriftError):
            monitor.observe_matrix(np.ones((2, 3)))

    def test_summary_names_every_feature(self, rng):
        monitor = DriftMonitor(ReferenceHistogram.from_matrix(_matrix(rng)))
        summary = monitor.summary()
        assert set(summary["psi"]) == set(FEATURE_NAMES)
        assert set(summary["ks"]) == set(FEATURE_NAMES)
