"""The semantic analyzer component.

Bundles the three language resources every other CATS component needs
(paper Section II-B):

* a **word segmenter** -- the paper leans on an off-the-shelf Chinese
  segmenter; we ship a :class:`~repro.text.segmentation.ViterbiSegmenter`
  loaded with a stock dictionary of the simulator's language, the exact
  analogue of using jieba with its stock dictionary;
* a **word2vec model** trained on a raw comment corpus (the paper used
  ~70M Taobao comments from August 2017);
* a **sentiment model** -- the paper uses SnowNLP's pre-trained
  shopping-review model; ours is trained once on a labeled synthetic
  review corpus and reused everywhere (see
  :mod:`repro.semantics.sentiment`).

From these it derives the positive/negative lexicons by seed expansion.
"""

from __future__ import annotations

import pickle
from collections.abc import Mapping, Sequence

from repro.core.config import CATSConfig
from repro.core.interning import TokenInterner
from repro.core.lexicon import SentimentLexicon, build_lexicon_pair
from repro.semantics.sentiment import SentimentModel
from repro.semantics.word2vec import Word2Vec
from repro.text.segmentation import DictionarySegmenter, ViterbiSegmenter


class SemanticAnalyzer:
    """Trained language resources shared across the CATS pipeline."""

    def __init__(
        self,
        segmenter: DictionarySegmenter,
        word2vec: Word2Vec,
        sentiment: SentimentModel,
        lexicon: SentimentLexicon,
    ) -> None:
        self.segmenter = segmenter
        self.word2vec = word2vec
        self.sentiment = sentiment
        self.lexicon = lexicon
        self._interner: TokenInterner | None = None
        self._interner_key: tuple | None = None
        #: Lifetime count of :meth:`segment` calls.  Every analysis
        #: path (scalar, batched, cached-miss) segments through here,
        #: so a rehydration path that claims to skip re-analysis can be
        #: held to it: the counter must not move.
        self.n_segmentations = 0

    @classmethod
    def train(
        cls,
        comment_corpus: Sequence[str],
        dictionary: Mapping[str, int],
        sentiment_documents: Sequence[Sequence[str]],
        sentiment_labels: Sequence[int],
        positive_seeds: Sequence[str],
        negative_seeds: Sequence[str],
        config: CATSConfig | None = None,
    ) -> "SemanticAnalyzer":
        """Train every resource from raw data.

        Parameters
        ----------
        comment_corpus:
            Raw (unsegmented) comment strings for word2vec training.
        dictionary:
            Stock segmentation dictionary ``{word: weight}`` (the jieba
            analogue; see module docstring).
        sentiment_documents / sentiment_labels:
            Labeled segmented reviews for the sentiment model (the
            SnowNLP-corpus analogue).
        positive_seeds / negative_seeds:
            Seed words for lexicon expansion.
        """
        cfg = config or CATSConfig()
        # The segmenter is built exactly once, on the caller's mapping
        # (no throwaway dict copy), and reused both for corpus
        # segmentation here and as the analyzer's segmenter.
        segmenter = ViterbiSegmenter(dictionary)
        segmented = segmenter.segment_many(comment_corpus)
        w2v = Word2Vec(
            dim=cfg.word2vec.dim,
            window=cfg.word2vec.window,
            negative=cfg.word2vec.negative,
            min_count=cfg.word2vec.min_count,
            epochs=cfg.word2vec.epochs,
            learning_rate=cfg.word2vec.learning_rate,
            seed=cfg.word2vec.seed,
        ).fit(segmented)
        sentiment = SentimentModel().fit(
            list(sentiment_documents), list(sentiment_labels)
        )
        lexicon = build_lexicon_pair(
            w2v,
            [s for s in positive_seeds],
            [s for s in negative_seeds],
            cfg.lexicon,
        )
        return cls(
            segmenter=segmenter,
            word2vec=w2v,
            sentiment=sentiment,
            lexicon=lexicon,
        )

    # -- interned fast path -------------------------------------------------

    @property
    def interner(self) -> TokenInterner:
        """The shared token interner for the current resources.

        Lazily built, then reused for the analyzer's lifetime: the
        feature extractor, streaming detector and serving layer all
        intern against the same id space, so their id arrays and masks
        are mutually consistent.  Replacing ``segmenter``, ``lexicon``
        or ``sentiment`` with a *different object* makes a fresh
        interner on next access -- interner identity is therefore the
        analysis-version token downstream caches key on (see
        :mod:`repro.core.analysis_cache`).
        """
        key = (self.segmenter, self.lexicon, self.sentiment)
        if self._interner is None or any(
            new is not old for new, old in zip(key, self._interner_key)
        ):
            try:
                sentiment_vocab = self.sentiment.vocabulary
            except RuntimeError:  # unfitted sentiment model
                sentiment_vocab = None
            self._interner = TokenInterner(
                positive=self.lexicon.positive,
                negative=self.lexicon.negative,
                sentiment_vocabulary=sentiment_vocab,
            )
            self._interner_key = key
        return self._interner

    # -- worker cloning -----------------------------------------------------

    def clone_spec(self) -> bytes:
        """Pickled worker clone of this analyzer.

        The parallel analysis engine ships one spec per run; every
        worker process rebuilds its private analyzer from it with
        :meth:`from_spec`.  The clone carries the same trained
        resources *and* the current interner state -- its first
        ``len(self.interner)`` ids are identical to the parent's, which
        is the invariant the deterministic shard merge
        (:func:`repro.core.interning.merge_interners`) is built on.
        The segmentation counter starts at zero so each worker reports
        its own work, to be merged back via :meth:`merge_counters`.
        """
        self.interner  # materialize, so the clone carries the base vocab
        clone = object.__new__(SemanticAnalyzer)
        # Instance attributes that are methods bound to *this* analyzer
        # (instrumentation shims left by profiling/test wrappers) are
        # dropped: pickling one would smuggle a stale second analyzer
        # into the spec as its __self__, and the clone's calls would
        # mutate that hidden copy instead of the clone.
        clone.__dict__ = {
            name: value
            for name, value in self.__dict__.items()
            if getattr(value, "__self__", None) is not self
        }
        clone.n_segmentations = 0
        return pickle.dumps(clone)

    @staticmethod
    def from_spec(spec: bytes) -> "SemanticAnalyzer":
        """Rebuild a worker analyzer from a :meth:`clone_spec` payload."""
        analyzer = pickle.loads(spec)
        if not isinstance(analyzer, SemanticAnalyzer):
            raise TypeError(
                f"spec does not contain a SemanticAnalyzer "
                f"(got {type(analyzer).__name__})"
            )
        return analyzer

    def merge_counters(self, n_segmentations: int) -> None:
        """Fold a worker clone's segmentation count back into this one.

        Keeps :attr:`n_segmentations` truthful under parallel analysis:
        the parent's counter ends up equal to the total segmentation
        work actually performed anywhere on its behalf, so gauges and
        the zero-resegmentation assertions stay meaningful on any
        number of CPUs.
        """
        if n_segmentations < 0:
            raise ValueError(
                f"worker segmentation count must be >= 0, got "
                f"{n_segmentations}"
            )
        self.n_segmentations += n_segmentations

    # -- convenience -------------------------------------------------------

    def segment(self, text: str) -> list[str]:
        """Word-segment one raw comment."""
        self.n_segmentations += 1
        return self.segmenter.segment(text)

    def comment_sentiment(self, text: str) -> float:
        """Segment and score one raw comment's sentiment."""
        return self.sentiment.score(self.segment(text))
