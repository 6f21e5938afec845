"""Premise selection over first-order proof corpora.

Parses FOF-style formula files, learns premise rankers (naive Bayes and
a kernel ridge multi-output ranker) from recorded proof dependencies,
evaluates them with the chronological train-on-the-past protocol, emits
ATP problem files, and minimizes dependency sets against a sufficiency
oracle.
"""

__version__ = "0.1.0"

from .corpus import Corpus, TrainingRow, TrainingView, load_corpus
from .errors import ConfigError, CorpusError, FofSyntaxError, PremselError, TrainingError
from .evaluate import (
    KernelRidgeRanker,
    NaiveBayesRanker,
    RankedAdvice,
    RecallReport,
    emit_problems,
    rank_advice,
    recall_at,
    report_csv,
    run_incremental,
)
from .features import FeatureVector, extract_features, vectorize
from .fol import NamedItem, parse_file, parse_item, parse_items, print_item
from .kernel import GridSearchConfig, GridSearchResult, KernelSpec, grid_search
from .minimize import (
    MinimizationResult,
    SubprocessOracle,
    batch_minimize,
    greedy_minimize,
)

__all__ = [
    "__version__",
    "Corpus", "TrainingRow", "TrainingView", "load_corpus",
    "ConfigError", "CorpusError", "FofSyntaxError", "PremselError", "TrainingError",
    "KernelRidgeRanker", "NaiveBayesRanker", "RankedAdvice", "RecallReport",
    "emit_problems", "rank_advice", "recall_at", "report_csv", "run_incremental",
    "FeatureVector", "extract_features", "vectorize",
    "NamedItem", "parse_file", "parse_item", "parse_items", "print_item",
    "GridSearchConfig", "GridSearchResult", "KernelSpec", "grid_search",
    "MinimizationResult", "SubprocessOracle", "batch_minimize",
    "greedy_minimize",
]
