"""Reference implementations the parity tests and benches compare with.

Each production module in ``src/`` has one implementation per
computation.  The slower algorithms each fast path replaced are kept
here, one module per production module, so the bit-identity tests can
compare the two and the benches can time the speedup:

* :mod:`tests.oracles.gbdt` -- per-node histogram and exact greedy tree
  builders, a boosting loop that drives any builder, the per-tree
  scoring loop, and the exact-vs-hist tie check;
* :mod:`tests.oracles.adaboost`, :mod:`tests.oracles.tree` -- per-tree
  scoring loops for the packed inference arena;
* :mod:`tests.oracles.segmentation` -- substring-hashing Viterbi;
* :mod:`tests.oracles.word2vec` -- per-position skip-gram pairs;
* :mod:`tests.oracles.similarity` -- per-word lexicon expansion;
* :mod:`tests.oracles.features` -- string-based comment statistics as
  one record per comment, their per-item fold, and the Table II
  formulas in Python arithmetic;
* :mod:`tests.oracles.extended_features` -- the per-comment loop behind
  the four extended features;
* :mod:`tests.oracles.columnar` -- ``CommentStats`` rebuilt from a
  columnar store.

Production code never imports this package.
"""
