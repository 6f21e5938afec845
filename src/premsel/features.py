"""Formula features: symbol and subterm keys, and sparse binary feature
vectors over a plain ``dict`` that maps each key to its first-seen index.

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


def vectorize(formula: Formula, dictionary: dict[str, int]) -> FeatureVector:
    """Feature vector of ``formula``, appending its unknown keys to
    ``dictionary`` (key -> index) at the next free index.

    Keys are appended in sorted order, so index assignment is
    deterministic; existing indices never change.
    """
    return FeatureVector([dictionary.setdefault(key, len(dictionary))
                          for key in sorted(extract_features(formula))])
