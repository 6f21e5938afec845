"""Shared test utilities: random AST generation, independent oracles,
and synthetic corpus builders.

The oracles here deliberately recompute results through different code
paths than the package (count-table probability products, explicit
subterm walks, finite differences) so agreement is meaningful.
"""

from __future__ import annotations

import dataclasses
import math
import random

import numpy as np

from premsel import fol
from premsel.corpus import TrainingRow, TrainingView
from premsel.features import FeatureVector

PREDS = ["p", "q", "r", "rel"]
FUNCS = ["f", "g", "h"]
CONSTS = ["a", "b", "c", "d", "e0"]


# ---------------------------------------------------------------------------
# Random well-formed ASTs
# ---------------------------------------------------------------------------


def rand_term(rng: random.Random, depth: int, fuel: int) -> fol.Term:
    if depth > 0 and rng.random() < 0.3:
        return fol.Var(rng.randrange(depth))
    if fuel <= 0 or rng.random() < 0.45:
        return fol.App(rng.choice(CONSTS))
    arity = rng.randint(1, 3)
    return fol.App(
        rng.choice(FUNCS), tuple(rand_term(rng, depth, fuel - 1) for _ in range(arity))
    )


def _rand_atomic(rng: random.Random, depth: int) -> fol.Formula:
    if rng.random() < 0.25:
        return fol.Equals(rand_term(rng, depth, 2), rand_term(rng, depth, 2))
    arity = rng.randint(0, 3)
    return fol.Atom(
        rng.choice(PREDS), tuple(rand_term(rng, depth, 2) for _ in range(arity))
    )


def rand_formula(rng: random.Random, depth: int = 0, fuel: int = 5) -> fol.Formula:
    if fuel <= 0:
        return _rand_atomic(rng, depth)
    kind = rng.randrange(10)
    if kind <= 2:
        return _rand_atomic(rng, depth)
    if kind == 3:
        return fol.Not(rand_formula(rng, depth, fuel - 1))
    if kind == 4:
        return fol.Forall(rand_formula(rng, depth + 1, fuel - 1))
    if kind == 5:
        return fol.Exists(rand_formula(rng, depth + 1, fuel - 1))
    cls = (fol.And, fol.Or, fol.Implies, fol.Iff)[kind - 6]
    return cls(rand_formula(rng, depth, fuel - 1), rand_formula(rng, depth, fuel - 1))


def rand_item(rng: random.Random, index: int = 0) -> fol.NamedItem:
    return fol.NamedItem(
        f"item_{index}", rng.choice(fol.ROLES), rand_formula(rng, 0, rng.randint(1, 6))
    )


# ---------------------------------------------------------------------------
# Independent feature oracle: explicit worklist subterm walk
# ---------------------------------------------------------------------------


def _oracle_term_str(term: fol.Term) -> str:
    if isinstance(term, fol.Var):
        return "*" + str(term.index)
    if len(term.args) == 0:
        return term.name
    parts = [_oracle_term_str(a) for a in term.args]
    return term.name + "(" + ",".join(parts) + ")"


def oracle_feature_keys(formula: fol.Formula) -> set[str]:
    keys: set[str] = set()
    stack: list = [formula]
    while stack:
        node = stack.pop()
        if isinstance(node, (fol.Var, fol.App)):
            keys.add("t:" + _oracle_term_str(node))
            if isinstance(node, fol.App):
                keys.add(f"s:{node.name}/{len(node.args)}")
                stack.extend(node.args)
        elif isinstance(node, fol.Atom):
            keys.add(f"s:{node.pred}/{len(node.args)}")
            stack.extend(node.args)
        elif isinstance(node, fol.Equals):
            keys.add("s:=/2")
            stack.extend([node.left, node.right])
        elif isinstance(node, (fol.Not, fol.Forall, fol.Exists)):
            stack.append(node.body)
        else:
            stack.extend([node.left, node.right])
    return keys


# ---------------------------------------------------------------------------
# Independent naive Bayes oracle: smoothed count tables, probability
# products, one final log of the posterior odds ratio.
# ---------------------------------------------------------------------------


def nb_oracle_score(rows, conjecture_features, smoothing: float = 1.0) -> float:
    """rows: list of (feature index container, used: bool) for ONE premise."""
    a = smoothing
    n = len(rows)
    uses = sum(1 for _, used in rows if used)
    prior_pos = (uses + a) / (n + 2 * a)
    prior_neg = (n - uses + a) / (n + 2 * a)
    num = prior_pos
    den = prior_neg
    for feature in conjecture_features:
        cp = sum(1 for feats, used in rows if used and feature in feats)
        cn = sum(1 for feats, used in rows if not used and feature in feats)
        num *= (cp + a) / (uses + 2 * a)
        den *= (cn + a) / (n - uses + 2 * a)
    return math.log(num / den)


# ---------------------------------------------------------------------------
# Independent ridge oracle: objective value and finite-difference gradient
# ---------------------------------------------------------------------------


def ridge_objective(K, Y, lam, A) -> float:
    R = Y - K @ A
    return float(np.trace(R.T @ R) + lam * np.trace(A.T @ K @ A))


def ridge_fd_gradient(K, Y, lam, A, h: float = 1e-6) -> np.ndarray:
    grad = np.zeros_like(A)
    for i in range(A.shape[0]):
        for j in range(A.shape[1]):
            step = np.zeros_like(A)
            step[i, j] = h
            grad[i, j] = (
                ridge_objective(K, Y, lam, A + step) - ridge_objective(K, Y, lam, A - step)
            ) / (2 * h)
    return grad


def reference_gram(rows, cols) -> np.ndarray:
    """Pairwise dot products as one ``scipy.sparse`` CSR product, the way
    ``kernel._gram`` computed them before it counted posting lists."""
    import scipy.sparse

    width = 1 + max((max(v.indices) for v in (*rows, *cols) if v.indices), default=0)

    def csr(vectors):
        indptr = np.cumsum([0] + [len(v.indices) for v in vectors])
        indices = np.array([i for v in vectors for i in v.indices], dtype=np.int64)
        return scipy.sparse.csr_matrix((np.ones(len(indices)), indices, indptr),
                                       shape=(len(vectors), width))

    return (csr(rows) @ csr(cols).T).toarray()


def random_vectors(rng: np.random.Generator, count: int, width: int = 12,
                   max_size: int = 6) -> list[FeatureVector]:
    out = []
    for _ in range(count):
        size = int(rng.integers(0, max_size + 1))
        out.append(FeatureVector(rng.choice(width, size=size, replace=False)))
    return out


# ---------------------------------------------------------------------------
# Synthetic training views and corpora
# ---------------------------------------------------------------------------


def view_from_indices(rows, premise_ids, conjecture_indices=()) -> TrainingView:
    """rows: sequence of (feature index iterable, used premise positions)."""
    return TrainingView(
        premise_ids=tuple(premise_ids),
        rows=tuple(
            TrainingRow(i, FeatureVector(feats), frozenset(used))
            for i, (feats, used) in enumerate(rows)
        ),
        conjecture_id="conjecture",
        conjecture_features=FeatureVector(conjecture_indices),
    )


def planted_corpus_text(n_items: int = 200, n_topics: int = 6, feats_per_topic: int = 5,
                        feats_per_item: int = 3, share: int = 2, max_deps: int = 4,
                        bases_per_topic: int = 3, noise: float = 0.0, seed: int = 0):
    """Corpus whose dependencies are determined by shared planted features.

    Items carry ``feats_per_item`` planted constants drawn from their
    topic's pool; an item depends on the earliest ``max_deps`` previous
    items sharing at least ``share`` constants with it.  Each topic
    starts with ``bases_per_topic`` dependency-free axiom items (set it
    to 0 for an all-theorem corpus), so later items mostly cite those
    well-used bases.  ``noise`` replaces each dependency by a uniformly
    random earlier item with the given probability.
    """
    rng = random.Random(seed)
    topic_feats = [
        list(range(t * feats_per_topic, (t + 1) * feats_per_topic)) for t in range(n_topics)
    ]
    specs: list[tuple[str, list[int]]] = []
    for t in range(n_topics):
        for _ in range(bases_per_topic):
            specs.append(("axiom", sorted(rng.sample(topic_feats[t], feats_per_item))))
    rng.shuffle(specs)
    while len(specs) < n_items:
        t = rng.randrange(n_topics)
        specs.append(("theorem", sorted(rng.sample(topic_feats[t], feats_per_item))))
    lines = []
    dep_lines = []
    planted: list[set[int]] = []
    for i, (role, chosen) in enumerate(specs):
        planted.append(set(chosen))
        args = ", ".join(f"c{f}" for f in chosen)
        lines.append(f"fof(th{i:03d}, {role}, topic({args})).")
        if role == "axiom":
            continue
        sharers = [j for j in range(i) if len(planted[i] & planted[j]) >= share]
        deps = sharers[:max_deps]
        if noise > 0 and deps:
            deps = sorted({rng.randrange(i) if rng.random() < noise else j for j in deps})
        if deps:
            dep_lines.append(f"th{i:03d}: " + " ".join(f"th{j:03d}" for j in deps))
    return "\n".join(lines) + "\n", "\n".join(dep_lines) + "\n"


def rich_corpus_text(n_items: int = 200, seed: int = 0, **planted):
    """``planted_corpus_text`` with every formula ``And``-joined to a
    seeded ``rand_formula``: wider formulas, the same dependencies."""
    formulas, deps = planted_corpus_text(n_items=n_items, seed=seed, **planted)
    rng = random.Random(seed)
    items = [fol.NamedItem(item.name, item.role, fol.And(item.formula, rand_formula(rng)))
             for item in fol.parse_items(formulas)]
    return "".join(fol.print_item(item) + "\n" for item in items), deps


def reference_problem_text(corpus, position: int, axiom_ids) -> str:
    """A problem file printed item by item: every axiom afresh for every
    file, the loop that emission ran before it cached printed text."""
    lines = [fol.print_item(dataclasses.replace(
        corpus.entries[corpus.position_of(axiom_id)].item, role="axiom"))
        for axiom_id in axiom_ids]
    conjecture = corpus.entries[position].item
    lines.append(fol.print_item(dataclasses.replace(conjecture, role="conjecture")))
    return "\n".join(lines) + "\n"


def walk_advice(corpus, ranker, positions, row_roles=("theorem",)):
    """``ranker``'s advice at each of ``positions``, in order, each from
    the training view of everything before it: the walk that ``eval``,
    ``rank`` and advised ``emit`` take."""
    return [ranker.advise(corpus.training_view(position, row_roles)) for position in positions]


def reference_view_rows(corpus, position: int, row_roles) -> tuple[TrainingRow, ...]:
    """A view's training rows by filtering every earlier entry by role,
    the selection that ``Corpus.training_view`` made before it sliced."""
    roles = set(row_roles)
    return tuple(corpus.rows[e.position] for e in corpus.entries[:position] if e.role in roles)


def write_corpus(tmp_path, formulas_text: str, deps_text: str):
    formulas = tmp_path / "formulas.p"
    deps = tmp_path / "deps.txt"
    formulas.write_text(formulas_text, encoding="utf-8")
    deps.write_text(deps_text, encoding="utf-8")
    return formulas, deps
