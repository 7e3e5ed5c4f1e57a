"""Source format: tokenizing, grammar, validation, pretty round-trips."""

import dataclasses
import re
import string

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tierlang import Assign, If, OpCall, Seq, Skip, Span, Tier, Var, While, parse, pretty
from tierlang.fixtures import MACHINE_FIXTURES, REJECTED_FIXTURES, SAFE_FIXTURES, fixture_text
from tierlang.lang import walk
from tierlang.parser import (
    RESERVED,
    ParseError,
    _Parser,
    _tokenize,
    _validate,
    pretty_command,
    pretty_expr,
)

HEADER = """
op gt0 arity 1 class neutral;
op pred arity 1 class neutral;
op eq arity 2 class neutral;
op add1 arity 1 class positive;
op concat arity 2 class positive;
"""


def parse_main(body: str):
    src = parse(HEADER + "thread main {\n" + body + "\n}")
    return src.program().command("main")


# --- golden parses ------------------------------------------------------------


def test_parse_small_file_shape():
    src = parse(
        """
        alphabet 0 1;
        op gt0 arity 1 class neutral sig 1->1, 0->0;
        op add1 arity 1 class positive;
        vars { x : 1; y : 0; }

        thread adder {
          while (gt0(x)) {
            x := pred(x);
            y := add1(y)
          }
        }
        op pred arity 1 class neutral;
        """
    )
    assert src.alphabet_letters == ("0", "1")
    assert "T" in src.alphabet().letters and "0" in src.alphabet().letters
    assert src.annotations() == {"x": Tier.ONE, "y": Tier.ZERO}
    decls = {d.name: d for d in src.op_decls}
    assert decls["gt0"].sigs == (((Tier.ONE,), Tier.ONE), ((Tier.ZERO,), Tier.ZERO))
    assert decls["add1"].sigs is None
    cmd = src.program().command("adder")
    assert cmd == While(
        OpCall("gt0", (Var("x"),)),
        Seq(Assign("x", OpCall("pred", (Var("x"),))), Assign("y", OpCall("add1", (Var("y"),)))),
    )


def test_statement_forms():
    assert parse_main("skip") == Skip()
    assert parse_main('x := "01"') == Assign("x", OpCall('"01"', ()))
    assert parse_main("x := tt") == Assign("x", OpCall("tt", ()))
    got = parse_main("if (eq(x, y)) { skip } else { x := y }")
    assert got == If(OpCall("eq", (Var("x"), Var("y"))), Skip(), Assign("x", Var("y")))


def test_sequence_associativity_and_grouping():
    a, b, c = Skip(), Assign("x", Var("y")), Skip()
    assert parse_main("skip; x := y; skip") == Seq(a, Seq(b, c))
    assert parse_main("{ skip; x := y }; skip") == Seq(Seq(a, b), c)
    assert parse_main("skip; x := y; skip;") == Seq(a, Seq(b, c))  # trailing ;


def test_comments_are_ignored():
    assert parse_main("skip // the rest of this line vanishes\n; skip") == Seq(Skip(), Skip())


# --- rejected inputs ----------------------------------------------------------


def bad(text):
    with pytest.raises(ParseError) as err:
        parse(text)
    return err.value


def test_error_positions_are_reported():
    err = bad("thread t {\n  x := !\n}")
    assert (err.line, err.col) == (2, 8)
    assert "2:8" in str(err)
    err = bad("thread t {")
    assert (err.line, err.col) == (1, 11)
    err = bad("thread t { // open")
    assert (err.line, err.col) == (1, 19)
    # A numeric sign is neither a digit nor the start of a name.
    err = bad("thread t { x := \u00b2 }")
    assert (err.message, err.line, err.col) == ("unexpected character '\u00b2'", 1, 17)


def test_reserved_words_cannot_name_things():
    assert "reserved" in bad("thread while { skip }").message
    assert "reserved" in bad(HEADER + "thread t { op := pred(x) }").message


def test_header_validation():
    assert "duplicate" in bad("alphabet 0 0;\nthread t { skip }").message
    assert "at least one thread" in bad("alphabet 0 1;").message
    assert "duplicate" in bad(HEADER + "thread t { skip }\nthread t { skip }").message
    assert "arity" in bad("op f arity 2 class neutral sig 1->1;\nthread t { skip }").message


@pytest.mark.parametrize("text, message", [
    ("alphabet 0;\nalphabet 1;\nthread t { skip }", "2:1: duplicate alphabet header"),
    ("op pred arity 1 class neutral;\nop pred arity 1 class neutral;\nthread t { skip }",
     "3:1: duplicate declaration of operator 'pred'"),
    ("alphabet ;\nthread t { skip }", "2:1: alphabet header needs at least one letter"),
    ('op "01" arity 0 class positive;\nthread t { skip }',
     "1:4: word literals need no declaration"),
    ("vars { x : 1; x : 0; }\nthread t { skip }", "1:15: duplicate tier annotation for 'x'"),
    ("thread t { x := while }", "1:17: 'while' is a reserved word"),
    ("op gt0 arity 1 class neutral;\nthread t { x := gt0() }",
     "2:17: operator 'gt0' declared with arity 1, applied to 0 arguments"),
    # The first offender in reading order, where calls repeat or nest,
    # and across threads "b" then "a", which the program lists sorted.
    ("thread t { x := f(f(x)) }", "1:17: operator 'f' is not declared in an op header"),
    ("thread t { x := f(g(x)) }", "1:17: operator 'f' is not declared in an op header"),
    ("thread t { x := g(x); y := f(g(x)) }", "1:17: operator 'g' is not declared in an op header"),
    ("op f arity 1 class neutral;\nthread t { x := f(x); y := f(f(x), x) }",
     "2:28: operator 'f' declared with arity 1, applied to 2 arguments"),
    ("op f arity 1 class neutral;\nthread t { x := f(f(x, x)) }",
     "2:19: operator 'f' declared with arity 1, applied to 2 arguments"),
    ('alphabet 0 1;\nthread b { x := "2" }\nthread a { y := mystery(x) }',
     "2:17: word literal uses letters outside the alphabet: ['2']"),
    ('alphabet 0 1;\nthread b { y := mystery(x) }\nthread a { x := "2" }',
     "2:17: operator 'mystery' is not declared in an op header"),
], ids=["alphabet twice", "operator twice", "empty alphabet", "declared literal",
        "annotation twice", "reserved expression", "zero-argument call", "repeated call",
        "nested calls", "repeated inner call", "arity of a repeated call",
        "arity of a nested call", "literal then call", "call then literal"])
def test_each_header_and_expression_error_is_reported(text, message):
    assert str(bad(text)) == message


def test_many_headers_parse_and_a_late_duplicate_is_found():
    # Each duplicate check is one lookup: scanning the earlier names made
    # these quadratic, seconds for a file this size.
    n = 20_000
    ops = "".join(f"op o{i} arity 1 class neutral;\n" for i in range(n))
    annotations = "vars {\n" + "".join(f"  v{i} : 1;\n" for i in range(n))
    threads = "".join(f"thread t{i} {{ skip }}\n" for i in range(n))
    source = parse(ops + annotations + "}\n" + threads)
    assert (len(source.op_decls), len(source.var_tiers), len(source.threads)) == (n, n, n)
    assert (source.op_decls[-1].name, source.var_tiers[-1], source.threads[-1][0]) == (
        f"o{n - 1}", (f"v{n - 1}", Tier.ONE), f"t{n - 1}")
    one = "thread t { skip }\n"
    assert str(bad(ops + "op o7 arity 1 class neutral;\n" + one)) == (
        f"{n + 2}:1: duplicate declaration of operator 'o7'")
    assert str(bad(annotations + "  v7 : 0;\n}\n" + one)) == (
        f"{n + 2}:3: duplicate tier annotation for 'v7'")
    assert str(bad(threads + "thread t7 { skip }")) == (
        f"{n + 1}:19: duplicate thread name 't7'")


def test_a_zero_argument_call_parses():
    source = parse("op f arity 0 class neutral;\nthread t { x := f() }")
    assert source.program().command("t") == Assign("x", OpCall("f", ()))


def test_usage_validation():
    assert "not declared" in bad("thread t { x := mystery(x) }").message
    assert "arity" in bad(HEADER + "thread t { x := gt0(x, x) }").message
    assert "alphabet" in bad('alphabet 0 1;\nthread t { x := "2" }').message
    assert "unterminated" in bad('thread t { x := "01 }').message


@pytest.mark.parametrize(
    "body, first",
    [
        ("x := eq(left(x), right(x))", "left"),
        ("while (guard(x)) { x := body(x) }", "guard"),
        ("if (guard(x)) { x := then(x) } else { x := other(x) }", "guard"),
        ("x := first(x); x := second(x)", "first"),
    ],
    ids=["arguments", "while", "if", "sequence"],
)
def test_the_first_undeclared_operator_in_reading_order_is_reported(body, first):
    assert bad(HEADER + "thread t { " + body + " }").message == (
        f"operator {first!r} is not declared in an op header"
    )


def test_a_valid_source_parses_without_walking_its_tree(monkeypatch):
    def no_walk(node):
        raise AssertionError("the parse walked a tree")

    monkeypatch.setattr("tierlang.parser.walk", no_walk)
    for name in SAFE_FIXTURES + REJECTED_FIXTURES:
        parse(fixture_text(name))
    parse(HEADER + 'thread t { x := eq(pred(x), pred(pred(x))); y := concat(y, "01") }')


def test_validation_walks_deep_trees_built_in_code():
    source = parse(HEADER + "thread t { skip }")

    def with_deep_expression(leaf):
        expr = leaf
        for _ in range(3000):
            expr = OpCall("pred", (expr,))
        return dataclasses.replace(source, threads=(("t", Assign("x", expr)),))

    _validate(with_deep_expression(Var("x")))
    with pytest.raises(ParseError, match="'mystery' is not declared"):
        _validate(with_deep_expression(OpCall("mystery", ())))


# Names and numbers in the grammar, mixed with runs of other characters.
SOURCE_WORDS = st.sampled_from(
    ["thread", "t", "op", "f", "arity", "class", "neutral", "sig", "vars", "alphabet",
     "skip", "while", "if", "else", "x", "tt", "0", "1", "2", ":=", "->", "{", "}", "(", ")",
     ";", ":", ","]
)
SOURCE_CHARS = string.punctuation + '" \n\té中ß١²½'
SOURCE_TEXTS = st.lists(SOURCE_WORDS | st.text(SOURCE_CHARS, max_size=3), max_size=40).map(" ".join)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(SOURCE_TEXTS)
@example("op f arity ² class neutral;\nthread t { skip }")
def test_any_text_parses_or_raises_a_parse_error(text):
    try:
        parse(text)
    except ParseError:
        pass


# --- pretty round-trips ---------------------------------------------------------


@pytest.mark.parametrize("name", SAFE_FIXTURES + REJECTED_FIXTURES)
def test_fixtures_roundtrip(name):
    src = parse(fixture_text(name))
    assert parse(pretty(src)) == src


def test_pretty_command_prints_a_deep_if_nest():
    depth = 1500
    cmd = Skip()
    for _ in range(depth):
        cmd = If(OpCall("gt0", (Var("x"),)), cmd, Skip())
    closing = []
    for level in reversed(range(depth)):
        closing += ["  " * level + "} else {", "  " * (level + 1) + "skip", "  " * level + "}"]
    opening = ["  " * level + "if (gt0(x)) {" for level in range(depth)]
    assert pretty_command(cmd).split("\n") == opening + ["  " * depth + "skip"] + closing


def test_pretty_rejects_what_is_no_node():
    with pytest.raises(TypeError, match="not an expression"):
        pretty_expr(Skip())
    with pytest.raises(TypeError, match="not a command"):
        pretty_command(Var("x"))


def test_machine_fixture_names_exist():
    for name in MACHINE_FIXTURES:
        assert fixture_text(name)


# Random syntax trees over a small pool of variables and operators.
variables = st.sampled_from(["a", "b", "c"])
literals = st.text(alphabet="01TF", max_size=3).map(lambda w: OpCall(f'"{w}"', ()))


def calls(inner):
    unary_ops = st.sampled_from(["gt0", "pred", "add1"])
    binary_ops = st.sampled_from(["eq", "concat"])
    return st.one_of(
        st.builds(lambda op, a: OpCall(op, (a,)), unary_ops, inner),
        st.builds(lambda op, a, b: OpCall(op, (a, b)), binary_ops, inner, inner),
    )


expressions = st.recursive(
    st.one_of(variables.map(Var), literals, st.sampled_from([OpCall("tt", ()), OpCall("ff", ())])),
    calls,
    max_leaves=6,
)

commands = st.recursive(
    st.one_of(st.just(Skip()), st.builds(Assign, variables, expressions)),
    lambda inner: st.one_of(
        st.builds(Seq, inner, inner),
        st.builds(If, expressions, inner, inner),
        st.builds(While, expressions, inner),
    ),
    max_leaves=10,
)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(commands)
def test_random_commands_roundtrip(cmd):
    assert parse_main(pretty_command(cmd)) == cmd


# --- deep and long sources --------------------------------------------------------


def preorder(cmd):
    """A tree as its pre-order list of (class, name) pairs.  Equal lists
    mean equal trees, and unlike ``==`` on a deep tree the comparison
    needs no recursion."""
    out = []
    for node in walk(cmd):
        if isinstance(node, OpCall):
            out.append((OpCall, node.op, len(node.args)))
        else:
            out.append((node.__class__, getattr(node, "name", None) or getattr(node, "var", None)))
    return out


def nest(depth, text, tree, wrap_text, wrap_tree):
    """Source text and the tree built in code, each wrapped ``depth`` times."""
    for _ in range(depth):
        text, tree = wrap_text.format(text), wrap_tree(tree)
    return text, tree


GT0_X = OpCall("gt0", (Var("x"),))
PRED_X = Assign("x", OpCall("pred", (Var("x"),)))
DEEP_EXPRESSION = nest(1500, "x", Var("x"), "pred({})", lambda e: OpCall("pred", (e,)))
DEEP_SOURCES = {
    "expression": ("x := " + DEEP_EXPRESSION[0], Assign("x", DEEP_EXPRESSION[1])),
    "if": nest(1500, "skip", Skip(), "if (gt0(x)) {{ {} }} else {{ skip }}",
               lambda c: If(GT0_X, c, Skip())),
    "while": nest(1500, "skip", Skip(), "while (gt0(x)) {{ {} }}", lambda c: While(GT0_X, c)),
    "block": nest(1500, "skip", Skip(), "{{ {} }}; skip", lambda c: Seq(c, Skip())),
    "sequence": nest(2999, "skip", Skip(), "x := pred(x); {}", lambda c: Seq(PRED_X, c)),
}


@pytest.mark.parametrize("body, tree", DEEP_SOURCES.values(), ids=DEEP_SOURCES)
def test_deep_and_long_sources_parse_and_roundtrip(body, tree):
    src = parse(HEADER + "vars { x : 1; }\nthread main {\n" + body + "\n}")
    assert preorder(src.program().command("main")) == preorder(tree)
    again = parse(pretty(src))
    assert (again.op_decls, again.var_tiers) == (src.op_decls, src.var_tiers)
    assert preorder(again.program().command("main")) == preorder(tree)


# --- the whole-text reference tokenizer ------------------------------------------


_WHOLE_TEXT_TOKEN = re.compile(
    r"""(?P<newline>\n) | [ \t\r]+ | //[^\n]*
    | (?P<punct>:= | -> | [{}();:,])
    | (?P<string>"[^"\n]*")
    | (?P<ident>[^\W\d]\w*)
    | (?P<digits>\d+)
    | (?P<error>.)""",
    re.VERBOSE,
)


def whole_text_tokens(text):
    """The tokens of ``text`` read in one scan that matches every
    character, newlines and blanks included, as ``_tokenize`` did before
    it scanned line by line; or the error's message and position."""
    tokens = []
    line, line_start = 1, 0
    for match in _WHOLE_TEXT_TOKEN.finditer(text):
        kind, start = match.lastgroup, match.start()
        if kind == "newline":
            line, line_start = line + 1, start + 1
        elif kind is not None:
            first, col = text[start], start - line_start + 1
            if kind == "error" or kind == "ident" and not (first.isalpha() or first == "_"):
                message = "unterminated word literal" if first == '"' else (
                    f"unexpected character {first!r}")
                return message, line, col
            tokens.append((kind, match.group(), line, col))
    tokens.append(("eof", "", line, len(text) - line_start + 1))
    return tokens[::-1]


def line_tokens(text):
    try:
        return _tokenize(text)
    except ParseError as err:
        return err.message, err.line, err.col


@settings(derandomize=True, max_examples=300, deadline=None)
@given(SOURCE_TEXTS)
@example("thread t { skip }  \r\n  // trailing \t\r\n \t")
@example('x := "01  \n" \t ')
def test_tokens_match_the_whole_text_reference_on_any_text(text):
    assert line_tokens(text) == whole_text_tokens(text)


@pytest.mark.parametrize("name", SAFE_FIXTURES + REJECTED_FIXTURES)
def test_tokens_match_the_whole_text_reference_on_fixtures(name):
    text = fixture_text(name)
    for variant in (text, text.replace("\n", " \t\r\n"), text.replace("\n", "  ")):
        assert line_tokens(variant) == whole_text_tokens(variant)


# --- the recursive reference --------------------------------------------------------


class RecursiveParser(_Parser):
    """The recursive descent over statements and expressions that the
    explicit-stack ``command`` and ``expression`` replaced."""

    def command(self):
        items = [self.statement()]
        while self.at(";"):
            self.advance()
            if self.at("}"):
                break
            items.append(self.statement())
        out = items[-1]
        for item in reversed(items[:-1]):
            out = Seq(item, out, item.span)
        return out

    def statement(self):
        kind, text, line, col = self.peek()
        if self.at("{"):
            self.advance()
            inner = self.command()
            self.expect("}")
            return inner
        if kind != "ident":
            raise self.fail(f"expected a statement, found {text or 'end of file'!r}")
        if text == "skip":
            self.advance()
            return Skip(Span(line, col))
        if text == "if":
            self.advance()
            self.expect("(")
            guard = self.expression()
            self.expect(")")
            self.expect("{")
            then_branch = self.command()
            self.expect("}")
            self.expect("else")
            self.expect("{")
            else_branch = self.command()
            self.expect("}")
            return If(guard, then_branch, else_branch, Span(line, col))
        if text == "while":
            self.advance()
            self.expect("(")
            guard = self.expression()
            self.expect(")")
            self.expect("{")
            body = self.command()
            self.expect("}")
            return While(guard, body, Span(line, col))
        self.fresh_name("variable")
        self.expect(":=")
        return Assign(text, self.expression(), Span(line, col))

    def expression(self):
        kind, text, line, col = self.peek()
        if kind == "string":
            self.advance()
            return OpCall(text, (), Span(line, col))
        if kind != "ident":
            raise self.fail(f"expected an expression, found {text or 'end of file'!r}")
        if text in ("tt", "ff"):
            self.advance()
            return OpCall(text, (), Span(line, col))
        if text in RESERVED:
            raise self.fail(f"{text!r} is a reserved word")
        self.advance()
        if self.at("("):
            self.advance()
            args = []
            if not self.at(")"):
                args.append(self.expression())
                while self.at(","):
                    self.advance()
                    args.append(self.expression())
            self.expect(")")
            return OpCall(text, tuple(args), Span(line, col))
        return Var(text, Span(line, col))


def outcome(parser_class, text):
    """The parsed file with the span of every node, or the error's message
    and position."""
    try:
        source = parser_class(_tokenize(text)).source_file()
    except ParseError as err:
        return err.message, err.line, err.col
    spans = [[node.span for node in walk(cmd)] for _, cmd in source.threads]
    return source, spans, [decl.span for decl in source.op_decls]


@pytest.mark.parametrize("name", SAFE_FIXTURES + REJECTED_FIXTURES)
def test_parser_matches_the_recursive_reference_on_fixtures(name):
    text = fixture_text(name)
    # Each prefix that ends a line, too, which cuts every construct open.
    for cut in [len(text)] + [i for i, char in enumerate(text) if char == "\n"]:
        assert outcome(_Parser, text[:cut]) == outcome(RecursiveParser, text[:cut])


@settings(derandomize=True, max_examples=300, deadline=None)
@given(SOURCE_TEXTS)
@example("op f arity ² class neutral;\nthread t { skip }")
def test_parser_matches_the_recursive_reference_on_any_text(text):
    assert outcome(_Parser, text) == outcome(RecursiveParser, text)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(commands, st.integers(min_value=0))
def test_parser_matches_the_recursive_reference_on_printed_trees(cmd, drop):
    # The printed tree, the same text with one word dropped, and with a
    # trailing ";" after each statement's last line.
    lines = pretty_command(cmd).split("\n")
    closed = [line if line.endswith(("{", ";")) else line + ";" for line in lines]
    text, trailing = (HEADER + "thread main {\n" + "\n".join(body) + "\n}"
                      for body in (lines, closed))
    words = text.split(" ")
    cut = drop % len(words)
    for text in (text, " ".join(words[:cut] + words[cut + 1:]), trailing):
        assert outcome(_Parser, text) == outcome(RecursiveParser, text)
