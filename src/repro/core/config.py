"""CATS configuration.

One dataclass gathers every knob of the four components so a whole
system run is reproducible from a single value.  Defaults follow the
paper where it states them (lexicon sizes ~200, sales-volume filter at
5, XGBoost detector) and otherwise use the calibrated values of
DESIGN.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class LexiconConfig:
    """Seed-expansion parameters (paper Section II-A.2)."""

    #: k of the iterative k-NN search.
    k_neighbors: int = 12
    #: Size cap of each lexicon ("we limit the sizes of both the
    #: positive and the negative sets"; the paper lands at ~200).
    max_size: int = 200
    #: Cosine threshold below which a neighbour is not adopted.
    min_similarity: float = 0.45
    #: Maximum expansion rounds.
    max_rounds: int = 12


@dataclass(frozen=True)
class Word2VecConfig:
    """Semantic-analyzer embedding training parameters."""

    dim: int = 48
    window: int = 4
    negative: int = 5
    min_count: int = 3
    epochs: int = 6
    learning_rate: float = 0.1
    seed: int = 0


@dataclass(frozen=True)
class RuleConfig:
    """Detector stage-1 filter rules (paper Section II-B).

    Items failing a rule are never sent to the classifier and are
    reported as normal.
    """

    #: "filtering the e-commerce items, of which the sales volumes are
    #: less than 5".
    min_sales_volume: int = 5
    #: "filtering the e-commerce items which contain no positive
    #: n-grams or words".
    require_positive_evidence: bool = True
    #: Items with fewer comments than this cannot be featurized reliably.
    min_comments: int = 1


@dataclass(frozen=True)
class DetectorConfig:
    """Detector stage-2 classifier parameters."""

    #: One of: xgboost, svm, adaboost, neural_network, decision_tree,
    #: naive_bayes (the paper's six candidates).
    classifier: str = "xgboost"
    #: P(fraud) threshold for reporting an item.  The default is
    #: calibrated on held-out D0 data for the deployment regime the
    #: paper evaluates: heavy class imbalance (~1.3% fraud on D1), where
    #: a balanced-trained classifier needs a conservative threshold to
    #: keep precision high.
    threshold: float = 0.98
    #: Seed for stochastic classifiers.
    seed: int = 0


@dataclass(frozen=True)
class CATSConfig:
    """Full system configuration."""

    lexicon: LexiconConfig = field(default_factory=LexiconConfig)
    word2vec: Word2VecConfig = field(default_factory=Word2VecConfig)
    rules: RuleConfig = field(default_factory=RuleConfig)
    detector: DetectorConfig = field(default_factory=DetectorConfig)
