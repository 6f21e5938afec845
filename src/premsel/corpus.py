"""Chronologically ordered corpora: items, proof dependencies, and
leak-free training views.

A corpus is a sequence of named items in library order together with a
sparse boolean proof matrix recording, for each item, which strictly
earlier items its recorded proof used.  A training view at position
``i`` exposes exactly the first ``i`` items as candidate premises, the
label rows of those items, and the conjecture at ``i`` with its
features restricted to what was known before it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CorpusError, FofSyntaxError
from .features import FeatureDictionary, FeatureVector, vectorize
from .fol import NamedItem, parse_items


@dataclass
class CorpusEntry:
    item: NamedItem
    position: int
    dependencies: frozenset[str]
    # Filled once by Corpus.ensure_featurized(); immutable afterwards.
    features: FeatureVector | None = None
    known_feature_count: int = -1

    @property
    def name(self) -> str:
        return self.item.name

    @property
    def role(self) -> str:
        return self.item.role


class ProofMatrix:
    """Sparse boolean relation over positions: row c holds the positions
    of the premises used to prove item c."""

    __slots__ = ("_rows",)

    def __init__(self, rows):
        self._rows: tuple[frozenset[int], ...] = tuple(frozenset(r) for r in rows)

    def __len__(self) -> int:
        return len(self._rows)

    def mu(self, conjecture: int, premise: int) -> bool:
        return premise in self._rows[conjecture]

    def row(self, conjecture: int) -> frozenset[int]:
        return self._rows[conjecture]


@dataclass(frozen=True)
class TrainingRow:
    """One labeled training example: an item's features plus the pool
    positions of the premises its proof used."""

    position: int
    features: FeatureVector
    used: frozenset[int]


@dataclass(frozen=True)
class TrainingView:
    """Everything a ranker may see when ranking one conjecture."""

    premise_ids: tuple[str, ...]
    rows: tuple[TrainingRow, ...]
    conjecture_id: str
    conjecture_position: int
    conjecture_features: FeatureVector

    @property
    def pool_size(self) -> int:
        return len(self.premise_ids)


class Corpus:
    """Immutable after load; views are read-only projections."""

    def __init__(self, entries: list[CorpusEntry]):
        self.entries: tuple[CorpusEntry, ...] = tuple(entries)
        self._position: dict[str, int] = {e.name: e.position for e in self.entries}
        self.matrix = ProofMatrix(
            frozenset(self._position[d] for d in e.dependencies) for e in self.entries
        )
        self.dictionary: FeatureDictionary | None = None

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, identifier: str) -> bool:
        return identifier in self._position

    def position_of(self, identifier: str) -> int:
        try:
            return self._position[identifier]
        except KeyError:
            raise CorpusError(f"unknown item identifier {identifier!r}") from None

    def entry(self, identifier: str) -> CorpusEntry:
        return self.entries[self.position_of(identifier)]

    def ensure_featurized(self) -> None:
        """Fill per-entry feature vectors with one chronological pass.

        ``known_feature_count`` records the dictionary size before the
        entry's own features were appended, i.e. the number of feature
        indices that existed strictly before the entry.  Idempotent;
        call once before sharing the corpus across threads.
        """
        if self.dictionary is not None:
            return
        dictionary = FeatureDictionary()
        for entry in self.entries:
            entry.known_feature_count = len(dictionary)
            entry.features = vectorize(entry.item.formula, dictionary, extend=True)
        self.dictionary = dictionary

    def training_view(self, position: int, row_roles=("theorem",)) -> TrainingView:
        """View for ranking the item at ``position``.

        Candidate premises are exactly the first ``position`` entries.
        Training rows are those of them whose role is in ``row_roles``;
        the remaining entries act as premises only.  The conjecture's
        features are restricted to indices known before it, so nothing
        from position ``>= position`` can influence a ranking.
        """
        if not 0 <= position < len(self.entries):
            raise IndexError(f"position {position} out of range")
        self.ensure_featurized()
        conjecture = self.entries[position]
        roles = set(row_roles)
        rows = tuple(
            TrainingRow(e.position, e.features, self.matrix.row(e.position))
            for e in self.entries[:position]
            if e.role in roles
        )
        visible = FeatureVector(
            i for i in conjecture.features.indices if i < conjecture.known_feature_count
        )
        return TrainingView(
            premise_ids=tuple(e.name for e in self.entries[:position]),
            rows=rows,
            conjecture_id=conjecture.name,
            conjecture_position=position,
            conjecture_features=visible,
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


def load_corpus(formula_paths, dependency_path) -> Corpus:
    """Load formula files (chronological order = file order) plus a
    dependency file; see GRAMMAR.md for both formats."""
    items: list[NamedItem] = []
    seen: set[str] = set()
    for path in formula_paths:
        try:
            with open(path, encoding="utf-8") as handle:
                parsed = parse_items(handle.read())
        except OSError as exc:
            raise CorpusError(f"{path}: {exc}") from exc
        except FofSyntaxError as exc:
            raise CorpusError(f"{path}: {exc}") from exc
        for item in parsed:
            if item.name in seen:
                raise CorpusError(f"{path}: duplicate item name {item.name!r}")
            seen.add(item.name)
            items.append(item)
    position = {item.name: i for i, item in enumerate(items)}
    try:
        with open(dependency_path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise CorpusError(f"{dependency_path}: {exc}") from exc
    deps = parse_dependency_lines(text, position)
    entries = [
        CorpusEntry(item, i, deps.get(item.name, frozenset())) for i, item in enumerate(items)
    ]
    return Corpus(entries)
