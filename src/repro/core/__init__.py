"""CATS -- the Cross-platform AnTi-fraud System (the paper's contribution).

Four components, wired exactly as the paper's Fig. 6:

* **data collector** (:mod:`repro.collector`) gathers public shop/item/
  comment data;
* **semantic analyzer** (:class:`~repro.core.analyzer.SemanticAnalyzer`)
  trains a word2vec model over a comment corpus, expands positive and
  negative seed-word lexicons (:mod:`repro.core.lexicon`), and provides
  a sentiment model;
* **feature extractor** (:class:`~repro.core.features.FeatureExtractor`)
  computes the 11 word-level / semantic / structural features of the
  paper's Table II for each item;
* **detector** (:class:`~repro.core.detector.Detector`) first filters
  items by rules (:mod:`repro.core.rules`), then classifies the rest
  with a binary classifier (XGBoost-style GBDT by default).

:class:`~repro.core.system.CATS` bundles them behind one train/detect
API; :mod:`repro.core.pipeline` provides the end-to-end experiment
drivers used by the benchmark harness.
"""

from repro.core.analysis_cache import AnalysisCache, CacheInfo
from repro.core.analyzer import SemanticAnalyzer
from repro.core.interning import TokenInterner
from repro.core.extended_features import (
    EXTENDED_FEATURE_NAMES,
    ExtendedFeatureExtractor,
)
from repro.core.persistence import load_cats, save_cats
from repro.core.config import CATSConfig
from repro.core.detector import Detector, DetectionReport
from repro.core.features import (
    FEATURE_NAMES,
    CommentColumns,
    FeatureExtractor,
)
from repro.core.lexicon import SentimentLexicon, build_lexicon_pair
from repro.core.rules import RuleFilter
from repro.core.streaming import Alert, StreamingDetector
from repro.core.system import CATS

__all__ = [
    "AnalysisCache",
    "CacheInfo",
    "CATS",
    "TokenInterner",
    "EXTENDED_FEATURE_NAMES",
    "ExtendedFeatureExtractor",
    "load_cats",
    "save_cats",
    "CATSConfig",
    "DetectionReport",
    "Detector",
    "FEATURE_NAMES",
    "CommentColumns",
    "FeatureExtractor",
    "RuleFilter",
    "SemanticAnalyzer",
    "SentimentLexicon",
    "Alert",
    "StreamingDetector",
    "build_lexicon_pair",
]
