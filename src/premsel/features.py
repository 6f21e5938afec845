"""Formula features: symbol and subterm keys, the shared append-only
feature dictionary, and sparse binary feature vectors.

A formula is characterized by two kinds of keys: ``s:<name>/<arity>``
for every function, predicate, or constant symbol occurring in it
(equality counts as ``s:=/2``), and ``t:<term>`` for every distinct
subterm, printed with de Bruijn variables as ``*<index>``.  Atoms and
whole formulas are not features.
"""

from __future__ import annotations

from .fol import And, Atom, Equals, Exists, Forall, Formula, Iff, Implies, Not, Or, Term, Var


def extract_features(formula: Formula) -> frozenset[str]:
    """Set of symbol and subterm keys of a de Bruijn-normalized formula."""
    keys: set[str] = set()

    def walk_term(term: Term) -> str:
        if isinstance(term, Var):
            text = f"*{term.index}"
        else:
            keys.add(f"s:{term.name}/{len(term.args)}")
            if term.args:
                text = f"{term.name}({','.join(walk_term(a) for a in term.args)})"
            else:
                text = term.name
        keys.add(f"t:{text}")
        return text

    # an explicit stack: chains and binder lists nest deeper than Python's stack
    stack = [formula]
    while stack:
        match stack.pop():
            case Atom(pred=pred, args=args):
                keys.add(f"s:{pred}/{len(args)}")
                for arg in args:
                    walk_term(arg)
            case Equals(left=left, right=right):
                keys.add("s:=/2")
                walk_term(left)
                walk_term(right)
            case Not(body=body) | Forall(body=body) | Exists(body=body):
                stack.append(body)
            case And(left=l, right=r) | Or(left=l, right=r) | Implies(left=l, right=r) | Iff(left=l, right=r):
                stack += (l, r)
            case f:
                raise ValueError(f"not a formula node: {f!r}")
    return frozenset(keys)


class FeatureDictionary:
    """Append-only enumeration of feature keys; index = insertion order.

    Extending the dictionary never changes existing indices, so feature
    vectors built against an earlier state stay valid.  Extension is the
    only mutation.
    """

    __slots__ = ("_keys", "_index")

    def __init__(self, keys=()):
        self._keys: list[str] = []
        self._index: dict[str, int] = {}
        for key in keys:
            self.add(key)

    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, key: str) -> bool:
        return key in self._index

    def add(self, key: str) -> int:
        """Return the index of ``key``, appending it if unknown."""
        existing = self._index.get(key)
        if existing is not None:
            return existing
        if "\n" in key or not key:
            raise ValueError(f"bad feature key {key!r}")
        index = len(self._keys)
        self._keys.append(key)
        self._index[key] = index
        return index

    def lookup(self, key: str) -> int | None:
        return self._index.get(key)

    def key_at(self, index: int) -> str:
        return self._keys[index]

    def keys(self) -> tuple[str, ...]:
        return tuple(self._keys)

    def save(self, path) -> None:
        """One key per line; line number (from 0) is the index."""
        with open(path, "w", encoding="utf-8") as handle:
            for key in self._keys:
                handle.write(key + "\n")

    @classmethod
    def load(cls, path) -> "FeatureDictionary":
        with open(path, encoding="utf-8") as handle:
            return cls(line.rstrip("\n") for line in handle)


class FeatureVector:
    """Sorted distinct feature indices: the sparse form of a 0/1 vector."""

    __slots__ = ("indices",)

    def __init__(self, indices=()):
        unique = sorted({int(i) for i in indices})
        if unique and unique[0] < 0:
            raise ValueError("feature indices must be nonnegative")
        self.indices: tuple[int, ...] = tuple(unique)

    def __len__(self) -> int:
        return len(self.indices)

    def __iter__(self):
        return iter(self.indices)

    def __eq__(self, other) -> bool:
        return isinstance(other, FeatureVector) and self.indices == other.indices

    def __hash__(self) -> int:
        return hash(self.indices)

    def __repr__(self) -> str:
        return f"FeatureVector({list(self.indices)!r})"

    def dot(self, other: "FeatureVector") -> int:
        """Inner product of the underlying binary vectors."""
        return len(set(self.indices).intersection(other.indices))


def vectorize(formula: Formula, dictionary: FeatureDictionary, extend: bool = False) -> FeatureVector:
    """Feature vector of ``formula`` against ``dictionary``.

    Unknown keys are appended when ``extend`` is set and silently dropped
    otherwise (the test-time behavior for features never seen in
    training).  Keys are processed in sorted order so index assignment
    is deterministic.
    """
    indices = []
    for key in sorted(extract_features(formula)):
        index = dictionary.lookup(key)
        if index is None:
            if not extend:
                continue
            index = dictionary.add(key)
        indices.append(index)
    return FeatureVector(indices)
