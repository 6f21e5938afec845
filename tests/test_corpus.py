"""Corpus loading, proof relation, and training view contracts."""

import dataclasses
from pathlib import Path

import pytest

from premsel.corpus import load_corpus, parse_dependency_lines
from premsel.errors import ConfigError, CorpusError
from premsel.evaluate import select_conjectures
from premsel.features import extract_features, vectorize
from premsel.fol import ROLES, parse_items

from helpers import (
    dependencies_by_name,
    planted_corpus_text,
    reference_view_rows,
    rich_corpus_text,
    write_corpus,
)

TOY = Path(__file__).resolve().parent.parent / "data" / "toy"

THREE = """\
fof(t1, axiom, p(a)).
fof(t2, axiom, q(b)).
fof(t3, theorem, p(a) & q(b)).
"""


def _load(tmp_path, formulas=THREE, deps="t3: t1\n", row_roles=("theorem",)):
    f, d = write_corpus(tmp_path, formulas, deps)
    return load_corpus([f], d, row_roles)


class TestLoad:
    def test_single_dependency_populates_matrix(self, tmp_path):
        corpus = _load(tmp_path)
        assert len(corpus) == 3
        for c in range(3):
            for p in range(3):
                assert (p in corpus.rows[c].used) == (c == 2 and p == 0)

    def test_dependencies_match_matrix_rows_exactly(self, tmp_path):
        corpus = _load(tmp_path, deps="t3: t1 t2\n")
        recorded = dependencies_by_name(THREE, "t3: t1 t2\n")
        assert list(recorded) == list(corpus.names)
        for c, name in enumerate(corpus.names):
            assert {corpus.names[p] for p in corpus.rows[c].used} == recorded[name]

    def test_empty_dependency_file(self, tmp_path):
        corpus = _load(tmp_path, deps="")
        assert all(not corpus.rows[i].used for i in range(3))

    def test_forward_dependency_rejected(self, tmp_path):
        with pytest.raises(CorpusError, match="precede"):
            _load(tmp_path, deps="t1: t3\n")

    def test_self_dependency_rejected(self, tmp_path):
        with pytest.raises(CorpusError, match="precede"):
            _load(tmp_path, deps="t3: t3\n")

    def test_unknown_identifier_rejected(self, tmp_path):
        with pytest.raises(CorpusError, match="unknown"):
            _load(tmp_path, deps="t3: nope\n")
        with pytest.raises(CorpusError, match="unknown"):
            _load(tmp_path, deps="nope: t1\n")

    def test_duplicate_dependency_line_rejected(self, tmp_path):
        with pytest.raises(CorpusError, match="duplicate"):
            _load(tmp_path, deps="t3: t1\nt3: t2\n")

    def test_duplicate_item_across_files_rejected(self, tmp_path):
        f1, d = write_corpus(tmp_path, THREE, "")
        f2 = tmp_path / "second.p"
        f2.write_text("fof(t1, axiom, r(c)).\n", encoding="utf-8")
        with pytest.raises(CorpusError, match="duplicate"):
            load_corpus([f1, f2], d)

    def test_chronology_spans_files(self, tmp_path):
        f1 = tmp_path / "a.p"
        f2 = tmp_path / "b.p"
        f1.write_text("fof(t1, axiom, p(a)).\n", encoding="utf-8")
        f2.write_text("fof(t2, theorem, p(a)).\n", encoding="utf-8")
        d = tmp_path / "deps.txt"
        d.write_text("t2: t1\n", encoding="utf-8")
        corpus = load_corpus([f1, f2], d)
        assert 0 in corpus.rows[1].used
        # reversed file order makes the dependency forward
        with pytest.raises(CorpusError, match="precede"):
            load_corpus([f2, f1], d)

    @pytest.mark.parametrize("row_roles", [(), ("theorm",), ("theorem", "lemma")],
                             ids=["empty", "misspelled", "one-unknown"])
    def test_unknown_or_empty_training_roles_are_a_config_error(self, tmp_path, row_roles):
        with pytest.raises(ConfigError, match="training roles must be one or more of "
                                              "axiom, definition, theorem, conjecture"):
            _load(tmp_path, row_roles=row_roles)

    def test_a_bare_string_is_not_a_role_set(self, tmp_path):
        # a string is a collection of letters: it must not pass as roles t, h, e, ...
        message = "roles must be a collection of role names, got the string 'theorem'"
        with pytest.raises(ConfigError, match=f"training {message}"):
            _load(tmp_path, row_roles="theorem")
        with pytest.raises(ConfigError, match=f"conjecture {message}"):
            select_conjectures(_load(tmp_path), None, "theorem")

    def test_comment_and_blank_lines_ignored(self):
        deps = parse_dependency_lines("# c\n\nt3: t1\n", {"t1": 0, "t3": 2})
        assert deps == {"t3": frozenset({"t1"})}


class TestTrainingView:
    def test_position_zero_has_empty_pool(self, tmp_path):
        view = _load(tmp_path).training_view(0)
        assert view.pool == 0
        assert view.rows == ()

    def test_pool_is_exactly_the_prefix(self, tmp_path):
        corpus = _load(tmp_path)
        view = corpus.training_view(2)
        assert view.pool == 2 and corpus.names[: view.pool] == ("t1", "t2")

    def test_pool_sizes_grow_linearly(self, tmp_path):
        corpus = _load(tmp_path)
        assert [corpus.training_view(i).pool for i in range(3)] == [0, 1, 2]

    def test_out_of_range(self, tmp_path):
        corpus = _load(tmp_path)
        with pytest.raises(IndexError):
            corpus.training_view(3)
        with pytest.raises(IndexError):
            corpus.training_view(-1)

    def test_rows_default_to_theorems_only(self, tmp_path):
        text = THREE + "fof(t4, theorem, q(b)).\n"
        corpus = _load(tmp_path, formulas=text, deps="t3: t1\nt4: t2\n")
        view = corpus.training_view(3)
        assert [r.position for r in view.rows] == [2]
        corpus_all = _load(tmp_path, formulas=text, deps="t3: t1\nt4: t2\n",
                           row_roles=("axiom", "definition", "theorem"))
        view_all = corpus_all.training_view(3)
        assert [r.position for r in view_all.rows] == [0, 1, 2]

    def test_row_labels_never_reference_the_future(self, tmp_path):
        text = THREE + "fof(t4, theorem, q(b)).\n"
        corpus = _load(tmp_path, formulas=text, deps="t3: t1\nt4: t2\n")
        for i in range(4):
            view = corpus.training_view(i)
            for row in view.rows:
                assert all(p < row.position for p in row.used)
                assert all(p < i for p in row.used)

    def test_conjecture_features_exclude_later_indices(self, tmp_path):
        # "b" first occurs in the conjecture at position 1 and again
        # later; the view at 1 must not expose it even though the full
        # dictionary eventually contains it.
        text = "fof(t1, axiom, p(a)).\nfof(t2, theorem, p(b)).\nfof(t3, theorem, q(b)).\n"
        corpus = _load(tmp_path, formulas=text, deps="")
        view = corpus.training_view(1)
        key_of = {index: key for key, index in corpus.dictionary.items()}
        visible_keys = {key_of[i] for i in view.conjecture_features}
        assert visible_keys == {"s:p/1"}
        assert "s:b/0" in corpus.dictionary  # known globally, hidden at step 1

    @pytest.mark.parametrize("row_roles", [("theorem",),
                                           ("axiom", "definition", "theorem", "conjecture")],
                             ids=["theorems", "all"])
    def test_views_equal_an_independent_reference(self, tmp_path, row_roles):
        formulas, deps = planted_corpus_text(n_items=40, n_topics=3, seed=5)
        corpus = _load(tmp_path, formulas=formulas, deps=deps, row_roles=row_roles)
        items = parse_items(formulas)
        assert {item.role for item in items} == {"axiom", "theorem"}
        position = {item.name: i for i, item in enumerate(items)}
        used = {}
        for line in deps.splitlines():
            target, _, rest = line.partition(":")
            used[target] = {position[name] for name in rest.split()}
        # Visible features are the conjecture's keys already in the
        # dictionary before it; rows carry every key of their item.
        dictionary = {}
        rows = []
        for i, item in enumerate(items):
            visible = tuple(sorted(dictionary[k] for k in extract_features(item.formula)
                                   if k in dictionary))
            features = vectorize(item.formula, dictionary).indices
            view = corpus.training_view(i)
            assert view.pool == i
            assert corpus.names[: view.pool] == tuple(it.name for it in items[:i])
            assert [(r.position, r.features.indices, set(r.used)) for r in view.rows] == rows
            assert view.conjecture_id == item.name
            assert view.conjecture_features.indices == visible
            if item.role in row_roles:
                rows.append((i, features, used.get(item.name, set())))
        assert len(rows) > 1

    def test_views_share_the_corpus_rows(self, tmp_path):
        formulas, deps = planted_corpus_text(n_items=30, n_topics=3, seed=5)
        corpus = _load(tmp_path, formulas=formulas, deps=deps)
        views = [corpus.training_view(i) for i in range(len(corpus))]
        for earlier, later in zip(views, views[1:]):
            for k, row in enumerate(earlier.rows):
                assert later.rows[k] is row
                assert corpus.rows[row.position] is row
        assert views[-1].rows

    @pytest.mark.parametrize("row_roles", [("theorem",), ROLES], ids=["theorems", "all"])
    @pytest.mark.parametrize("source", ["toy", "planted", "rich"])
    def test_sliced_rows_are_the_role_filter(self, tmp_path, source, row_roles):
        # the benchmark corpora's generator settings, at a smaller size
        bench = {"n_topics": 20, "feats_per_topic": 12, "feats_per_item": 4, "max_deps": 6}
        if source == "toy":
            corpus = load_corpus([TOY / "formulas.p"], TOY / "deps.txt", row_roles)
        else:
            make = planted_corpus_text if source == "planted" else rich_corpus_text
            corpus = _load(tmp_path, *make(n_items=120, seed=3, **bench), row_roles=row_roles)
        assert len({item.role for item in corpus.items}) > 1
        for i in range(len(corpus)):
            rows = corpus.training_view(i).rows
            reference = reference_view_rows(corpus, i, row_roles)
            assert len(rows) == len(reference)
            assert all(row is ref for row, ref in zip(rows, reference))

    def test_entries_are_frozen(self, tmp_path):
        corpus = _load(tmp_path)
        assert isinstance(corpus.items, tuple) and isinstance(corpus.names, tuple)
        with pytest.raises(dataclasses.FrozenInstanceError):
            corpus.items[0].name = "t9"
        with pytest.raises(dataclasses.FrozenInstanceError):
            corpus.rows[0].position = 5

    def test_unknown_identifier_lookup(self, tmp_path):
        corpus = _load(tmp_path)
        with pytest.raises(CorpusError, match="unknown"):
            corpus.position_of("missing")
