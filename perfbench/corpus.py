"""Seeded benchmark corpora, built with the test suite's own generator.

``planted`` is ``tests/helpers.planted_corpus_text`` with the parameters
in ``PLANTED_PARAMS``.  ``rich`` is the same corpus with every item's
formula joined by ``And`` to a seeded ``helpers.rand_formula``, which
widens the feature dictionary and the per-item feature counts while
keeping the planted dependencies.  Both are written as
``formulas.p`` and ``deps.txt``; the caller records their sha256 with
the results so two commits can be shown to have run identical inputs.
"""

from __future__ import annotations

import hashlib
import random
import sys
from pathlib import Path

PLANTED_PARAMS = {"n_topics": 20, "feats_per_topic": 12, "feats_per_item": 4, "max_deps": 6}
# rand_formula's defaults, written out so they are recorded with the results.
RICH_PARAMS = {"depth": 0, "fuel": 5}


def _import_generators(root: Path):
    """Import premsel.fol and tests/helpers from the checkout at ``root``."""
    for path in (root / "tests", root / "src"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    import helpers
    from premsel import fol

    return helpers, fol


def _rich_seed(seed: int) -> int:
    # A stream of its own, so the rich formulas do not replay the planted draws.
    return seed * 1_000_003 + 7


def write_corpus(root: Path, out_dir: Path, variant: str, n_items: int, seed: int) -> dict:
    """Write formulas.p and deps.txt into ``out_dir``; return the generator
    record with both paths and their sha256."""
    helpers, fol = _import_generators(root)
    formulas, deps = helpers.planted_corpus_text(n_items=n_items, seed=seed, **PLANTED_PARAMS)
    record = {
        "generator": "tests/helpers.planted_corpus_text",
        "params": {"n_items": n_items, "seed": seed, **PLANTED_PARAMS},
        "variant": variant,
    }
    if variant == "rich":
        rng = random.Random(_rich_seed(seed))
        joined = [
            fol.NamedItem(item.name, item.role,
                          fol.And(item.formula, helpers.rand_formula(rng, **RICH_PARAMS)))
            for item in fol.parse_items(formulas)
        ]
        formulas = "\n".join(fol.print_item(item) for item in joined) + "\n"
        record["rich"] = {"generator": "tests/helpers.rand_formula", "joined_with": "And",
                          "rng_seed": _rich_seed(seed), **RICH_PARAMS}
    elif variant != "planted":
        raise ValueError(f"unknown corpus variant {variant!r}")
    out_dir.mkdir(parents=True, exist_ok=True)
    record["files"] = {}
    for name, text in (("formulas.p", formulas), ("deps.txt", deps)):
        path = out_dir / name
        path.write_text(text, encoding="utf-8")
        record["files"][name] = {"path": str(path),
                                 "sha256": hashlib.sha256(path.read_bytes()).hexdigest()}
    return record
