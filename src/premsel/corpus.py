"""Chronologically ordered corpora: items, proof dependencies, and
leak-free training views.

A corpus is a sequence of named items in library order.  It is built
once: construction featurizes every item in one chronological pass and
keeps one :class:`TrainingRow` per item, holding the item's features
and the positions of the strictly earlier items its recorded proof
used.  A training view at position ``i`` selects from those shared
rows: it exposes exactly the first ``i`` items as candidate premises,
the rows of those whose role trains, and the conjecture at ``i`` with
its features restricted to what was known before it.  :class:`RowState`
is the base of the rankers' running state over a growing row sequence.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

from .errors import ConfigError, CorpusError, FofSyntaxError, TrainingError
from .features import FeatureVector, vectorize
from .fol import ROLES, NamedItem, parse_items


def check_roles(roles, what: str) -> tuple[str, ...]:
    """``roles`` as a tuple; a :class:`ConfigError` unless it is a
    collection, not a string, of one or more of :data:`~premsel.fol.ROLES`."""
    if isinstance(roles, str):
        raise ConfigError(f"{what} roles must be a collection of role names, "
                          f"got the string {roles!r}")
    if not roles or not set(roles) <= set(ROLES):
        raise ConfigError(f"{what} roles must be one or more of {', '.join(ROLES)}, "
                          f"got {', '.join(roles) or 'none'}")
    return tuple(roles)


@dataclass(frozen=True)
class TrainingRow:
    """One labeled training example: an item's features plus the pool
    positions of the premises its proof used."""

    position: int
    features: FeatureVector
    used: frozenset[int]


@dataclass(frozen=True)
class TrainingView:
    """Everything a ranker may see when ranking one conjecture: the
    candidate premises are the items at positions ``0 … pool-1``."""

    pool: int
    rows: tuple[TrainingRow, ...]
    conjecture_id: str
    conjecture_features: FeatureVector


class RowState:
    """State counted from a row sequence that grows between uses.

    :meth:`sync` brings the state to ``rows`` under ``key``: while
    ``key`` stays the same and ``rows`` extend the rows already counted,
    it counts only the rows past them; any other input restarts from
    empty.  Subclasses extend ``_reset(key)``, which empties the state,
    and define ``_append(i, row)``, which counts ``row`` as row ``i``.
    """

    def __init__(self):
        self._reset(None)

    def _reset(self, key) -> None:
        self.key = key
        self.rows: tuple[TrainingRow, ...] = ()

    def sync(self, rows: tuple[TrainingRow, ...], key=None) -> None:
        """Make this the state of ``rows`` under ``key``."""
        n = len(self.rows)
        # a view's rows are the corpus's shared objects: mostly identity checks
        if key != self.key or rows[:n] != self.rows:
            n = 0
        if any(row.features is None for row in rows[n:]):
            raise TrainingError("training row without a feature vector")
        if not n:
            self._reset(key)
        # an exception part-way, an interrupt too, leaves rows counted that
        # self.rows does not hold, so the state goes back to empty
        try:
            for i in range(n, len(rows)):
                self._append(i, rows[i])
        except BaseException:
            self._reset(None)
            raise
        self.rows = rows


class Corpus:
    """Immutable after load; views select from the rows built at load.

    ``items[c]`` is the item at position ``c``, ``names[c]`` its name and
    ``rows[c]`` its training row; ``rows[c].used`` holds its proof
    dependencies as positions, the only place they are kept.  The rows
    of the items whose role is in ``row_roles`` train the rankers; every
    item is a premise.
    """

    def __init__(self, items, position: dict[str, int], dependencies, row_roles=("theorem",)):
        self.row_roles = check_roles(row_roles, "training")
        self.items: tuple[NamedItem, ...] = tuple(items)
        self.names = tuple(item.name for item in self.items)
        self._position = position  # name -> index in items, built by load_corpus
        self.ensure_featurized(dependencies)

    def __len__(self) -> int:
        return len(self.items)

    def position_of(self, identifier: str) -> int:
        try:
            return self._position[identifier]
        except KeyError:
            raise CorpusError(f"unknown item identifier {identifier!r}") from None

    def ensure_featurized(self, dependencies) -> None:
        """Featurize every item in one chronological pass; run once, by
        the constructor, with ``dependencies`` mapping an item's name to
        the names its proof used.

        Builds ``dictionary``, a ``dict`` from feature key to index in
        first-seen order, one training row per item in ``rows``, the
        rows of the items whose role is in ``row_roles``, and per item
        the dictionary size before its own features were appended, i.e.
        the number of feature indices that existed strictly before it.
        """
        dictionary: dict[str, int] = {}
        rows, trained, known = [], [], []
        for position, item in enumerate(self.items):
            known.append(len(dictionary))
            features = vectorize(item.formula, dictionary)
            used = frozenset(self._position[d] for d in dependencies.get(item.name, ()))
            rows.append(TrainingRow(position, features, used))
            if item.role in self.row_roles:
                trained.append(rows[-1])
        self.dictionary = dictionary
        self.rows: tuple[TrainingRow, ...] = tuple(rows)
        self._trained: tuple[TrainingRow, ...] = tuple(trained)
        self._known = tuple(known)

    def training_view(self, position: int) -> TrainingView:
        """View for ranking the item at ``position``.

        Candidate premises are exactly the first ``position`` items.
        Training rows are the shared rows of those of them whose role is
        in ``row_roles``; the remaining items act as premises only.
        The conjecture's features are restricted to indices known before
        it, so nothing from position ``>= position`` can influence a
        ranking.
        """
        if not 0 <= position < len(self.items):
            raise IndexError(f"position {position} out of range")
        known = self._known[position]
        trained = bisect_left(self._trained, position, key=lambda row: row.position)
        return TrainingView(
            pool=position,
            rows=self._trained[:trained],
            conjecture_id=self.names[position],
            conjecture_features=FeatureVector(
                i for i in self.rows[position].features.indices if i < known
            ),
        )


def parse_dependency_lines(text: str, position: dict[str, int]) -> dict[str, frozenset[str]]:
    """Parse ``<id>: <id> <id> ...`` lines against known identifiers.

    Blank lines and lines starting with ``#`` are ignored.  Items
    without a line have no dependencies.  Every referenced identifier
    must be declared, every dependency must be strictly earlier than its
    item, and no item may have two lines.
    """
    deps: dict[str, frozenset[str]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        target, sep, rest = line.partition(":")
        if not sep:
            raise CorpusError(f"dependency line {lineno}: missing ':'")
        target = target.strip()
        if target not in position:
            raise CorpusError(f"dependency line {lineno}: unknown item {target!r}")
        if target in deps:
            raise CorpusError(f"dependency line {lineno}: duplicate line for {target!r}")
        names = rest.split()
        for name in names:
            if name not in position:
                raise CorpusError(f"dependency line {lineno}: unknown dependency {name!r}")
            if position[name] >= position[target]:
                raise CorpusError(
                    f"dependency line {lineno}: {name!r} does not precede {target!r}"
                )
        deps[target] = frozenset(names)
    return deps


def load_corpus(formula_paths, dependency_path, row_roles=("theorem",)) -> Corpus:
    """Load formula files (chronological order = file order) plus a
    dependency file, see GRAMMAR.md for both formats, into a corpus whose
    items with a role in ``row_roles`` contribute training rows."""
    items: list[NamedItem] = []
    position: dict[str, int] = {}  # also the duplicate check across files
    for path in formula_paths:
        try:
            with open(path, encoding="utf-8") as handle:
                parsed = parse_items(handle.read())
        except (OSError, UnicodeDecodeError, FofSyntaxError) as exc:
            raise CorpusError(f"{path}: {exc}") from exc
        for item in parsed:
            if item.name in position:
                raise CorpusError(f"{path}: duplicate item name {item.name!r}")
            position[item.name] = len(items)
            items.append(item)
    try:
        with open(dependency_path, encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise CorpusError(f"{dependency_path}: {exc}") from exc
    return Corpus(items, position, parse_dependency_lines(text, position), row_roles)
