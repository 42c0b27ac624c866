"""Classifier selection for the detector (the paper's Table III study).

Compares the six candidate classifiers -- XGBoost-style GBDT, linear
SVM, AdaBoost, a neural network, a decision tree and Gaussian naive
Bayes -- under five-fold cross validation on a balanced labeled sample,
then shows how to ship CATS with a non-default classifier.

Run:  python examples/classifier_comparison.py
"""

from functools import partial

from repro import CATS, CATSConfig, build_analyzer, build_d0
from repro.core.config import DetectorConfig
from repro.core.detector import CLASSIFIER_FACTORIES, SCALED_CLASSIFIERS
from repro.datasets.splits import balanced_sample, features_and_labels
from repro.ml import StandardScaler, cross_validate


def main() -> None:
    print("preparing features...")
    analyzer = build_analyzer(n_corpus_comments=8000)
    cats = CATS(analyzer)
    d0 = build_d0(scale=0.05)
    sample = balanced_sample(d0, n_per_class=min(500, d0.n_fraud), seed=0)
    X, y = features_and_labels(sample, cats.feature_extractor)
    X_scaled = StandardScaler().fit_transform(X)

    print(f"\n{'classifier':<16} {'precision':>9} {'recall':>7} {'f1':>6}")
    best_name, best_f1 = "", -1.0
    for name, factory in CLASSIFIER_FACTORIES.items():
        data = X_scaled if name in SCALED_CLASSIFIERS else X
        # A partial of a module-level factory pickles, so the folds
        # run on every usable CPU.
        scores = cross_validate(
            partial(factory, 0), data, y, n_splits=5, seed=0
        )
        print(
            f"{name:<16} {scores['precision']:>9.3f} "
            f"{scores['recall']:>7.3f} {scores['f1']:>6.3f}"
        )
        if scores["f1"] > best_f1:
            best_name, best_f1 = name, scores["f1"]

    print(f"\nbest by F1: {best_name} (the paper selects Xgboost)")

    print(f"\nshipping CATS with classifier={best_name!r}...")
    config = CATSConfig(detector=DetectorConfig(classifier=best_name))
    chosen = CATS(analyzer, config=config)
    chosen.fit(d0.items, d0.labels)
    importances = chosen.feature_importances()
    if importances is not None:
        from repro.core.features import FEATURE_NAMES

        ranked = sorted(
            zip(FEATURE_NAMES, importances), key=lambda p: -p[1]
        )
        print("top-5 features by split count (cf. paper Fig. 7):")
        for feature, score in ranked[:5]:
            print(f"  {feature:<32} {score:.0f}")


if __name__ == "__main__":
    main()
