"""Tests for repro.text.tokenizer."""

import pytest

from repro.text.stats import punctuation_count
from repro.text.tokenizer import (
    PUNCTUATION,
    SENTENCE_FINAL,
    is_punctuation,
    join_words,
    split_punctuation,
    strip_punctuation,
)


class TestIsPunctuation:
    def test_ascii_marks(self):
        assert is_punctuation(",")
        assert is_punctuation("!")
        assert is_punctuation("?")

    def test_fullwidth_marks(self):
        assert is_punctuation("，")
        assert is_punctuation("。")
        assert is_punctuation("！")

    def test_letters_are_not(self):
        assert not is_punctuation("a")
        assert not is_punctuation("z")

    def test_digits_are_not(self):
        assert not is_punctuation("3")

    def test_sentence_final_subset_of_punctuation(self):
        assert SENTENCE_FINAL <= PUNCTUATION


class TestStripPunctuation:
    def test_removes_all_marks(self):
        assert strip_punctuation("a,b!c。d") == "abcd"

    def test_empty_string(self):
        assert strip_punctuation("") == ""

    def test_no_punctuation_unchanged(self):
        assert strip_punctuation("haoping") == "haoping"

    def test_only_punctuation(self):
        assert strip_punctuation(",.!") == ""


class TestSplitPunctuation:
    def test_splits_on_marks(self):
        assert split_punctuation("ab,cd!ef") == ["ab", "cd", "ef"]

    def test_drops_empty_runs(self):
        assert split_punctuation(",,ab,,") == ["ab"]

    def test_whitespace_also_splits(self):
        assert split_punctuation("ab cd") == ["ab", "cd"]

    def test_empty_input(self):
        assert split_punctuation("") == []

    def test_fullwidth_marks_split(self):
        assert split_punctuation("ab，cd。") == ["ab", "cd"]

    def test_single_run(self):
        assert split_punctuation("abcdef") == ["abcdef"]


class TestCountPunctuation:
    def test_counts_each_mark(self):
        assert punctuation_count("a,b!!") == 3

    def test_zero_for_clean_text(self):
        assert punctuation_count("abc") == 0

    def test_mixed_width(self):
        assert punctuation_count("a，b.") == 2


class TestJoinWords:
    def test_default_no_separator(self):
        assert join_words(["ab", "cd"]) == "abcd"

    def test_custom_separator(self):
        assert join_words(["ab", "cd"], separator=" ") == "ab cd"

    def test_empty(self):
        assert join_words([]) == ""
