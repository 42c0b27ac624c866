"""Table III -- classifier comparison under five-fold cross validation.

Paper (on a 5,000+5,000 ground-truth set from D0):

    Xgboost        P=0.93 R=0.90
    SVM            P=0.99 R=0.62
    AdaBoost       P=0.90 R=0.90
    Neural Network P=0.83 R=0.65
    Decision Tree  P=0.86 R=0.90
    Naive Bayes    P=0.91 R=0.65

Shape: XGBoost has the best precision/recall balance and is chosen for
the detector.  Measured here: the same six candidates, same protocol, on
a balanced sample of our D0.  The benchmark times one XGBoost CV fold.
"""

from functools import partial

from conftest import write_result

from repro.analysis.reporting import render_table
from repro.core.detector import CLASSIFIER_FACTORIES, SCALED_CLASSIFIERS
from repro.datasets.splits import balanced_sample, features_and_labels
from repro.ml import StandardScaler, cross_validate

DISPLAY_NAMES = {
    "xgboost": "Xgboost",
    "svm": "SVM",
    "adaboost": "AdaBoost",
    "neural_network": "Neural Network",
    "decision_tree": "Decision Tree",
    "naive_bayes": "Naive Bayes",
}


def test_table3_classifier_comparison(benchmark, cats, d0):
    n_per_class = min(500, d0.n_fraud, d0.n_normal)
    sample = balanced_sample(d0, n_per_class=n_per_class, seed=3)
    X, y = features_and_labels(sample, cats.feature_extractor)
    X_scaled = StandardScaler().fit_transform(X)

    def one_xgboost_fit():
        model = CLASSIFIER_FACTORIES["xgboost"](0)
        model.fit(X[: int(0.8 * len(y))], y[: int(0.8 * len(y))])
        return model

    benchmark(one_xgboost_fit)

    rows = []
    results = {}
    for name in (
        "xgboost",
        "svm",
        "adaboost",
        "neural_network",
        "decision_tree",
        "naive_bayes",
    ):
        data = X_scaled if name in SCALED_CLASSIFIERS else X
        # A partial of a module-level factory pickles: the folds take
        # the process pool.
        factory = partial(CLASSIFIER_FACTORIES[name], 0)
        scores = cross_validate(factory, data, y, n_splits=5, seed=0)
        results[name] = scores
        rows.append(
            [DISPLAY_NAMES[name], scores["precision"], scores["recall"]]
        )
    text = render_table(
        ["Classifier", "Precision", "Recall"],
        rows,
        title="Table III -- five-fold CV on a balanced D0 sample",
    )
    write_result("table3_classifiers", text)

    xgb = results["xgboost"]
    # Shape claims: XGBoost is a strong, balanced performer.
    assert xgb["precision"] > 0.8
    assert xgb["recall"] > 0.8
    xgb_f1 = xgb["f1"]
    # XGBoost's F1 is at or near the top of the table.
    assert all(
        xgb_f1 >= results[name]["f1"] - 0.05 for name in results
    ), "xgboost should be among the best by F1"
