"""Parser and printer behavior, pinned examples first, then properties."""

import random

import pytest

from premsel.errors import FofSyntaxError
from premsel.fol import (
    And,
    App,
    Atom,
    Equals,
    Exists,
    Forall,
    Implies,
    NamedItem,
    Not,
    Or,
    Var,
    parse_item,
    parse_items,
    print_item,
)

from helpers import rand_item


class TestParseExamples:
    def test_smallest_item(self):
        item = parse_item("fof(t1, axiom, p(a)).")
        assert item == NamedItem("t1", "axiom", Atom("p", (App("a"),)))

    def test_single_binder_gets_index_zero(self):
        item = parse_item("fof(t2, theorem, ![X]: p(X)).")
        assert item.formula == Forall(Atom("p", (Var(0),)))

    def test_two_binders_de_bruijn(self):
        # Hand conversion: X sits under two binders with Y innermost,
        # so X -> 1 and Y -> 0.
        item = parse_item("fof(t3, theorem, ![X]: ?[Y]: r(X,Y)).")
        assert item.formula == Forall(Exists(Atom("r", (Var(1), Var(0)))))

    def test_binder_list_nests_like_separate_quantifiers(self):
        merged = parse_item("fof(t, axiom, ![X, Y]: r(X, Y)).")
        nested = parse_item("fof(t, axiom, ![X]: ![Y]: r(X, Y)).")
        assert merged == nested

    def test_shadowing_resolves_to_innermost_binder(self):
        item = parse_item("fof(t, axiom, ![X, X]: r(X, X)).")
        assert item.formula == Forall(Forall(Atom("r", (Var(0), Var(0)))))

    def test_quantifier_scope_is_one_unit(self):
        item = parse_item("fof(t, axiom, ![X]: p(X) & q(a)).")
        assert item.formula == And(Forall(Atom("p", (Var(0),))), Atom("q", (App("a"),)))

    def test_connective_precedence(self):
        item = parse_item("fof(t, axiom, p | q & r => p).")
        assert item.formula == Implies(Or(Atom("p"), And(Atom("q"), Atom("r"))), Atom("p"))

    def test_equality_and_inequality(self):
        assert parse_item("fof(t, axiom, a = b).").formula == Equals(App("a"), App("b"))
        assert parse_item("fof(t, axiom, a != b).").formula == Not(Equals(App("a"), App("b")))

    def test_quoted_names(self):
        item = parse_item("fof('Strange Name', axiom, 'Weird-Pred'(a)).")
        assert item.name == "Strange Name"
        assert item.formula == Atom("Weird-Pred", (App("a"),))

    def test_comments_and_whitespace(self):
        text = "% leading comment\nfof(t, % inline\n  axiom, p).  % trailing\n"
        assert parse_items(text) == [NamedItem("t", "axiom", Atom("p"))]


class TestParseErrors:
    @pytest.mark.parametrize(
        "text",
        [
            "fof(t, axiom, p(a))",          # missing final dot
            "fof(t, axiom, p(a).",          # missing close paren
            "fof(t, lemma, p(a)).",         # unknown role
            "fof(t, axiom, p(a) &).",       # dangling connective
            "fof(t, axiom, (p(a)).",        # unbalanced parens
            "fof(t, axiom, p() ).",         # empty argument list
            "fof(t, axiom, X).",            # bare variable as formula
            "fof(t, axiom, p(a)) extra.",   # trailing junk
            "fof(t, axiom, p <= q).",       # unsupported connective
            "fof(t, axiom, p => q => r).",  # chained non-associative
            "fof(t, axiom, 'unterminated).",
        ],
    )
    def test_rejected_inputs(self, text):
        with pytest.raises(FofSyntaxError):
            parse_item(text)

    def test_unbound_variable_reports_position(self):
        with pytest.raises(FofSyntaxError) as err:
            parse_item("fof(t, axiom,\n  p(X)).")
        assert err.value.line == 2
        assert "unbound" in err.value.message

    def test_duplicate_item_names_rejected(self):
        with pytest.raises(FofSyntaxError, match="duplicate"):
            parse_items("fof(t, axiom, p). fof(t, axiom, q).")

    @pytest.mark.parametrize(
        "text, message, line, column",
        [
            ("fof(t, axiom, p <= q).", "expected '<=>'", 1, 17),
            ("fof(t, axiom, 'abc).", "unterminated quoted name", 1, 15),
            ("fof(t, axiom, 'a\nb').", "unterminated quoted name", 1, 15),
            ("fof(t, axiom, 'a\\b').", "unterminated quoted name", 1, 15),
            ("fof(t, axiom, '').", "empty quoted name", 1, 15),
            ("fof(t, axiom, p $ q).", "unexpected character '$'", 1, 17),
            ("fof(_t, axiom, p).", "unexpected character '_'", 1, 5),
            ("fof(t, axiom,\fp).", "unexpected character '\\x0c'", 1, 14),
            # end of input is reported after the last token or whitespace
            ("fof(t, axiom, p) % no dot", "expected '.', found end of input", 1, 18),
            ("fof(t, axiom, p)\n% c\n", "expected '.', found end of input", 3, 1),
            # a tab is one column, and only a newline starts a line
            ("fof(t,\taxiom,\r\n\tX).", "unbound variable X, found 'X'", 2, 2),
            ("fof(t, axiom, p). fof(t, axiom, q).", "duplicate item name 't'", 1, 19),
            # a lexical error anywhere wins over an earlier parse error
            ("fof(t, axiom, p q). $", "unexpected character '$'", 1, 21),
            ("fof(t, axiom, p). fof(t, axiom, q). ''", "empty quoted name", 1, 37),
            ("fof(t, axiom, " + "~" * 130 + "p). <", "expected '<=>'", 1, 149),
        ],
    )
    def test_exact_error_positions(self, text, message, line, column):
        with pytest.raises(FofSyntaxError) as err:
            parse_items(text)
        assert (err.value.message, err.value.line, err.value.column) == (message, line, column)

    def test_deep_nesting_is_a_positioned_error(self):
        bomb = "fof(t, axiom, " + "(" * 2000 + "p" + ")" * 2000 + ")."
        with pytest.raises(FofSyntaxError, match="nested"):
            parse_item(bomb)


class TestPrinter:
    def test_smallest_item_exact_text(self):
        item = NamedItem("t1", "axiom", Atom("p", (App("a"),)))
        assert print_item(item) == "fof(t1, axiom, p(a))."

    def test_printed_binders_count_from_outermost(self):
        item = parse_item("fof(t3, theorem, ![X]: ?[Y]: r(X,Y)).")
        assert print_item(item) == "fof(t3, theorem, ![V0]: ?[V1]: r(V0, V1))."

    def test_roundtrip_of_two_binder_item(self):
        item = parse_item("fof(t3, theorem, ![X]: ?[Y]: r(X,Y)).")
        assert parse_item(print_item(item)) == item

    def test_shadowed_source_names_print_distinct(self):
        item = parse_item("fof(t, axiom, ![X, X]: r(X, X)).")
        text = print_item(item)
        assert "V0" in text and "V1" in text
        assert parse_item(text) == item

    def test_inequality_sugar(self):
        item = NamedItem("t", "axiom", Not(Equals(App("a"), App("b"))))
        assert print_item(item) == "fof(t, axiom, a != b)."
        assert parse_item(print_item(item)) == item

    @pytest.mark.parametrize("op", ["&", "|"])
    def test_long_connective_chain_prints_flat(self, op):
        # 5000 operands nest far deeper than the interpreter stack; text
        # is compared because AST equality itself recurses
        text = "fof(t, axiom, " + f" {op} ".join(f"p{i}" for i in range(5000)) + ")."
        assert print_item(parse_item(text)) == text
        assert print_item(parse_item(print_item(parse_item(text)))) == text

    def test_long_binder_list_prints(self):
        names = ", ".join(f"V{i}" for i in range(5000))
        text = f"fof(t, axiom, ![{names}]: p(V0, V4999))."
        assert print_item(parse_item(text)) == text

    def test_mixed_chains_keep_their_parentheses(self):
        text = "fof(t, axiom, (a & b | c) & d & (e & f) & ~(g | h) | i & j | (k | l) => m)."
        assert print_item(parse_item(text)) == text

    def test_right_nested_connectives_keep_shape(self):
        item = NamedItem("t", "axiom", And(Atom("p"), And(Atom("q"), Atom("r"))))
        assert parse_item(print_item(item)) == item
        item2 = NamedItem("t", "axiom", And(And(Atom("p"), Atom("q")), Atom("r")))
        assert parse_item(print_item(item2)) == item2
        assert print_item(item) != print_item(item2)


class TestProperties:
    def test_roundtrip_on_random_asts(self):
        rng = random.Random(20260808)
        for i in range(300):
            item = rand_item(rng, i)
            assert parse_item(print_item(item)) == item

    def test_alpha_invariance(self):
        variants = [
            "fof(t, theorem, ![X]: ?[Y]: (r(X, Y) & p(f(X)))).",
            "fof(t, theorem, ![Alpha]: ?[Beta]: (r(Alpha, Beta) & p(f(Alpha)))).",
            "fof(t, theorem, ![Y]: ?[X]: (r(Y, X) & p(f(Y)))).",
        ]
        parsed = [parse_item(v) for v in variants]
        assert parsed[0] == parsed[1] == parsed[2]

    def test_parser_totality_on_fuzzed_input(self):
        # Every input parses or raises a positioned error; nothing else.
        rng = random.Random(99)
        alphabet = "fo(),.![]:?=<>&|~%'aXbY \n_12\t\r\\$\"\f"
        for _ in range(500):
            text = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 60)))
            try:
                parse_items(text)
            except FofSyntaxError as err:
                assert err.line >= 1 and err.column >= 1

    def test_parsed_values_are_immutable(self):
        item = parse_item("fof(t1, axiom, p(a)).")
        with pytest.raises(Exception):
            item.formula.args = ()
