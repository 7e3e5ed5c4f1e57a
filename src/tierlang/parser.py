"""Parser and pretty-printer for the ``.tier`` source format.

A source file lists optional headers followed by one or more threads::

    alphabet 0 1;
    op gt0 arity 1 class neutral sig 1->1;
    op add1 arity 1 class positive;
    vars { x : 1; y : 0; }

    thread adder {
      while (gt0(x)) {
        x := pred(x);
        y := add1(y)
      }
    }

Statements are separated by ``;`` (a trailing separator is tolerated),
``//`` starts a line comment, and braces group statements.  Word
literals are double-quoted, and ``tt`` / ``ff`` are the truth constants.
Every other operator used in a command must be declared in an ``op``
header; an omitted ``sig`` clause means the checker assumes the largest
signature set the operator's class allows.

``parse`` and ``pretty`` are mutually inverse: pretty-printing wraps a
sequence that sits in statement position inside braces, so the printed
text reparses to a structurally equal tree.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .lang import (
    DEFAULT_ALPHABET,
    Alphabet,
    Assign,
    Command,
    Expr,
    If,
    OpCall,
    Program,
    Seq,
    Skip,
    Span,
    Tier,
    Var,
    While,
    walk,
)

Sig = tuple[tuple[Tier, ...], Tier]

RESERVED = frozenset(
    {
        "skip",
        "if",
        "else",
        "while",
        "thread",
        "vars",
        "alphabet",
        "op",
        "arity",
        "class",
        "sig",
        "neutral",
        "positive",
        "tt",
        "ff",
    }
)

# One alternative per token kind; every character starts a match, so
# ``finditer`` reads the text without gaps.  Newlines are named so the
# tokenizer can count lines, blanks and ``//`` comments produce no token,
# and any other character is an error.  ``[^\W\d]`` is a word character
# that is not a decimal digit, which also matches numeric signs such as
# ``²``; ``_tokenize`` rejects those, so a name starts with a letter or
# ``_``.
_TOKEN = re.compile(
    r"""(?P<newline>\n) | [ \t\r]+ | //[^\n]*
    | (?P<punct>:= | -> | [{}();:,])
    | (?P<string>"[^"\n]*")
    | (?P<ident>[^\W\d]\w*)
    | (?P<digits>\d+)
    | (?P<error>.)""",
    re.VERBOSE,
)


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


@dataclass(frozen=True)
class Token:
    kind: str  # "ident" | "digits" | "string" | "punct" | "eof"
    text: str
    line: int
    col: int

    @property
    def span(self) -> Span:
        return Span(self.line, self.col)


def _tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, line_start = 1, 0
    for match in _TOKEN.finditer(text):
        kind = match.lastgroup
        if kind is None:
            continue
        start = match.start()
        if kind == "newline":
            line += 1
            line_start = start + 1
            continue
        first, col = text[start], start - line_start + 1
        if kind == "error" or kind == "ident" and not (first.isalpha() or first == "_"):
            if first == '"':
                raise ParseError("unterminated word literal", line, col)
            raise ParseError(f"unexpected character {first!r}", line, col)
        tokens.append(Token(kind, match.group(), line, col))
    tokens.append(Token("eof", "", line, len(text) - line_start + 1))
    return tokens


@dataclass(frozen=True)
class OpDecl:
    """A header line declaring an operator's arity, class, and optional
    signature set (``None`` means: use the maximal safe set)."""

    name: str
    arity: int
    klass: str  # "neutral" | "positive"
    sigs: tuple[Sig, ...] | None = None
    span: Span | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class SourceFile:
    """A parsed ``.tier`` file: headers plus threads in source order."""

    alphabet_letters: tuple[str, ...] | None
    op_decls: tuple[OpDecl, ...]
    var_tiers: tuple[tuple[str, Tier], ...]
    threads: tuple[tuple[str, Command], ...]

    def alphabet(self) -> Alphabet:
        if self.alphabet_letters is None:
            return DEFAULT_ALPHABET
        return Alphabet(frozenset(self.alphabet_letters) | {"T", "F"})

    def annotations(self) -> dict[str, Tier]:
        return dict(self.var_tiers)

    def program(self) -> Program:
        return Program(self.threads)

    def with_annotations(self, tiers: dict[str, Tier]) -> "SourceFile":
        ordered = tuple(sorted(tiers.items()))
        return SourceFile(self.alphabet_letters, self.op_decls, ordered, self.threads)


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def fail(self, message: str, tok: Token | None = None) -> ParseError:
        tok = tok or self.peek()
        return ParseError(message, tok.line, tok.col)

    def expect_punct(self, text: str) -> Token:
        tok = self.peek()
        if tok.kind != "punct" or tok.text != text:
            raise self.fail(f"expected {text!r}, found {tok.text or 'end of file'!r}")
        return self.advance()

    def expect_keyword(self, word: str) -> Token:
        tok = self.peek()
        if tok.kind != "ident" or tok.text != word:
            raise self.fail(f"expected {word!r}, found {tok.text or 'end of file'!r}")
        return self.advance()

    def at_punct(self, text: str) -> bool:
        tok = self.peek()
        return tok.kind == "punct" and tok.text == text

    def at_keyword(self, word: str) -> bool:
        tok = self.peek()
        return tok.kind == "ident" and tok.text == word

    def fresh_name(self, role: str) -> Token:
        tok = self.peek()
        if tok.kind != "ident":
            raise self.fail(f"expected a {role} name, found {tok.text or 'end of file'!r}")
        if tok.text in RESERVED:
            raise self.fail(f"{tok.text!r} is a reserved word and cannot name a {role}")
        return self.advance()

    def tier(self) -> Tier:
        tok = self.peek()
        if tok.kind == "digits" and tok.text in ("0", "1"):
            self.advance()
            return Tier(int(tok.text))
        raise self.fail(f"expected a tier (0 or 1), found {tok.text or 'end of file'!r}")

    # --- headers ---------------------------------------------------------

    def source_file(self) -> SourceFile:
        alphabet: tuple[str, ...] | None = None
        op_decls: list[OpDecl] = []
        var_tiers: list[tuple[str, Tier]] = []
        threads: list[tuple[str, Command]] = []
        while self.peek().kind != "eof":
            if self.at_keyword("alphabet"):
                if alphabet is not None:
                    raise self.fail("duplicate alphabet header")
                alphabet = self.alphabet_decl()
            elif self.at_keyword("op"):
                decl = self.op_decl()
                if any(d.name == decl.name for d in op_decls):
                    raise self.fail(f"duplicate declaration of operator {decl.name!r}")
                op_decls.append(decl)
            elif self.at_keyword("vars"):
                self.vars_decl(var_tiers)
            elif self.at_keyword("thread"):
                name, cmd = self.thread_decl()
                if any(tid == name for tid, _ in threads):
                    raise self.fail(f"duplicate thread name {name!r}")
                threads.append((name, cmd))
            else:
                tok = self.peek()
                raise self.fail(
                    f"expected a header or thread, found {tok.text or 'end of file'!r}", tok
                )
        if not threads:
            eof = self.peek()
            raise ParseError("a program needs at least one thread", eof.line, eof.col)
        source = SourceFile(alphabet, tuple(op_decls), tuple(var_tiers), tuple(threads))
        _validate(source)
        return source

    def alphabet_decl(self) -> tuple[str, ...]:
        self.expect_keyword("alphabet")
        letters: list[str] = []
        while not self.at_punct(";"):
            tok = self.peek()
            if tok.kind not in ("ident", "digits") or len(tok.text) != 1:
                raise self.fail("alphabet letters are single characters separated by spaces")
            if tok.text in letters:
                raise self.fail(f"duplicate alphabet letter {tok.text!r}")
            letters.append(tok.text)
            self.advance()
        self.expect_punct(";")
        if not letters:
            raise self.fail("alphabet header needs at least one letter")
        return tuple(letters)

    def op_decl(self) -> OpDecl:
        start = self.expect_keyword("op")
        name_tok = self.peek()
        if name_tok.kind == "string":
            raise self.fail("word literals need no declaration")
        name = self.fresh_name("operator").text
        self.expect_keyword("arity")
        arity_tok = self.peek()
        if arity_tok.kind != "digits":
            raise self.fail("expected an arity")
        arity = int(self.advance().text)
        self.expect_keyword("class")
        klass_tok = self.peek()
        if klass_tok.kind == "ident" and klass_tok.text in ("neutral", "positive"):
            klass = self.advance().text
        else:
            raise self.fail("operator class is 'neutral' or 'positive'")
        sigs: tuple[Sig, ...] | None = None
        if self.at_keyword("sig"):
            self.advance()
            sig_list = [self.signature(arity)]
            while self.at_punct(","):
                self.advance()
                sig_list.append(self.signature(arity))
            sigs = tuple(sig_list)
        self.expect_punct(";")
        return OpDecl(name, arity, klass, sigs, start.span)

    def signature(self, arity: int) -> Sig:
        start = self.peek()
        tiers = [self.tier()]
        while self.at_punct("->"):
            self.advance()
            tiers.append(self.tier())
        if len(tiers) != arity + 1:
            raise ParseError(
                f"signature lists {len(tiers) - 1} argument tiers for an arity-{arity} operator",
                start.line,
                start.col,
            )
        return tuple(tiers[:-1]), tiers[-1]

    def vars_decl(self, var_tiers: list[tuple[str, Tier]]) -> None:
        self.expect_keyword("vars")
        self.expect_punct("{")
        while not self.at_punct("}"):
            name_tok = self.fresh_name("variable")
            self.expect_punct(":")
            tier = self.tier()
            self.expect_punct(";")
            if any(name == name_tok.text for name, _ in var_tiers):
                raise ParseError(
                    f"duplicate tier annotation for {name_tok.text!r}",
                    name_tok.line,
                    name_tok.col,
                )
            var_tiers.append((name_tok.text, tier))
        self.expect_punct("}")

    def thread_decl(self) -> tuple[str, Command]:
        self.expect_keyword("thread")
        name = self.fresh_name("thread").text
        self.expect_punct("{")
        cmd = self.command()
        self.expect_punct("}")
        return name, cmd

    # --- commands ---------------------------------------------------------

    def command(self) -> Command:
        items = [self.statement()]
        while self.at_punct(";"):
            self.advance()
            if self.at_punct("}"):
                break
            items.append(self.statement())
        out = items[-1]
        for item in reversed(items[:-1]):
            out = Seq(item, out, item.span)
        return out

    def statement(self) -> Command:
        tok = self.peek()
        if self.at_punct("{"):
            self.advance()
            inner = self.command()
            self.expect_punct("}")
            return inner
        if tok.kind != "ident":
            raise self.fail(f"expected a statement, found {tok.text or 'end of file'!r}")
        if tok.text == "skip":
            self.advance()
            return Skip(tok.span)
        if tok.text == "if":
            self.advance()
            self.expect_punct("(")
            guard = self.expression()
            self.expect_punct(")")
            self.expect_punct("{")
            then_branch = self.command()
            self.expect_punct("}")
            self.expect_keyword("else")
            self.expect_punct("{")
            else_branch = self.command()
            self.expect_punct("}")
            return If(guard, then_branch, else_branch, tok.span)
        if tok.text == "while":
            self.advance()
            self.expect_punct("(")
            guard = self.expression()
            self.expect_punct(")")
            self.expect_punct("{")
            body = self.command()
            self.expect_punct("}")
            return While(guard, body, tok.span)
        name = self.fresh_name("variable")
        self.expect_punct(":=")
        expr = self.expression()
        return Assign(name.text, expr, name.span)

    # --- expressions ------------------------------------------------------

    def expression(self) -> Expr:
        tok = self.peek()
        if tok.kind == "string":
            self.advance()
            return OpCall(tok.text, (), tok.span)
        if tok.kind != "ident":
            raise self.fail(f"expected an expression, found {tok.text or 'end of file'!r}")
        if tok.text in ("tt", "ff"):
            self.advance()
            return OpCall(tok.text, (), tok.span)
        if tok.text in RESERVED:
            raise self.fail(f"{tok.text!r} is a reserved word")
        self.advance()
        if self.at_punct("("):
            self.advance()
            args: list[Expr] = []
            if not self.at_punct(")"):
                args.append(self.expression())
                while self.at_punct(","):
                    self.advance()
                    args.append(self.expression())
            self.expect_punct(")")
            return OpCall(tok.text, tuple(args), tok.span)
        return Var(tok.text, tok.span)


def _validate(source: SourceFile) -> None:
    """Post-parse checks: operator usage against declarations, and word
    literal letters against the alphabet."""
    declared = {decl.name: decl for decl in source.op_decls}
    alphabet = source.alphabet()

    for _, cmd in source.threads:
        for call in walk(cmd):
            if not isinstance(call, OpCall):
                continue
            span = call.span or Span(0, 0)
            if call.op.startswith('"'):
                word = call.op[1:-1]
                bad = [c for c in word if c not in alphabet]
                if bad:
                    raise ParseError(
                        f"word literal uses letters outside the alphabet: {bad}",
                        span.line,
                        span.col,
                    )
                continue
            if call.op in ("tt", "ff"):
                continue
            decl = declared.get(call.op)
            if decl is None:
                raise ParseError(
                    f"operator {call.op!r} is not declared in an op header",
                    span.line,
                    span.col,
                )
            if decl.arity != len(call.args):
                raise ParseError(
                    f"operator {call.op!r} declared with arity {decl.arity}, applied to "
                    f"{len(call.args)} arguments",
                    span.line,
                    span.col,
                )


def parse(text: str) -> SourceFile:
    """Parse a ``.tier`` source text."""
    return _Parser(_tokenize(text)).source_file()


# --- pretty-printing --------------------------------------------------------


def pretty_expr(expr: Expr) -> str:
    parts: list[str] = []
    stack: list[Expr | str] = [expr]  # nodes to print, and text between them
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            parts.append(item)
        elif isinstance(item, Var):
            parts.append(item.name)
        elif isinstance(item, OpCall):
            if item.op.startswith('"') or item.op in ("tt", "ff"):
                parts.append(item.op)
                continue
            parts.append(item.op + "(")
            stack.append(")")
            for arg in reversed(item.args[1:]):
                stack += (arg, ", ")
            stack += item.args[:1]
        else:
            raise TypeError(f"not an expression: {item!r}")
    return "".join(parts)


def _statements(cmd: Command) -> list[Command]:
    """Flatten the right spine of a sequence into statement order."""
    out: list[Command] = []
    while isinstance(cmd, Seq):
        out.append(cmd.first)
        cmd = cmd.second
    out.append(cmd)
    return out


def _pretty_block(cmd: Command, indent: int) -> list[str]:
    """The lines of a statement sequence, all but the last statement
    closed by ``;``.  The stack holds finished lines and ``(command,
    indent, end)`` entries, where ``end`` closes a statement's last line
    and ``None`` marks a block still to be split into statements."""
    lines: list[str] = []
    stack: list = [(cmd, indent, None)]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            lines.append(item)
            continue
        cmd, indent, end = item
        if end is None:
            statements = _statements(cmd)
            stack.append((statements.pop(), indent, ""))
            stack.extend((statement, indent, ";") for statement in reversed(statements))
            continue
        pad = "  " * indent
        if isinstance(cmd, Skip):
            lines.append(pad + "skip" + end)
        elif isinstance(cmd, Assign):
            lines.append(f"{pad}{cmd.var} := {pretty_expr(cmd.expr)}{end}")
        elif isinstance(cmd, If):
            lines.append(f"{pad}if ({pretty_expr(cmd.guard)}) {{")
            stack += (pad + "}" + end, (cmd.else_branch, indent + 1, None),
                      pad + "} else {", (cmd.then_branch, indent + 1, None))
        elif isinstance(cmd, While):
            lines.append(f"{pad}while ({pretty_expr(cmd.guard)}) {{")
            stack += (pad + "}" + end, (cmd.body, indent + 1, None))
        elif isinstance(cmd, Seq):
            # A sequence in statement position keeps its grouping via braces.
            lines.append(pad + "{")
            stack += (pad + "}" + end, (cmd, indent + 1, None))
        else:
            raise TypeError(f"not a command: {cmd!r}")
    return lines


def pretty_command(cmd: Command, indent: int = 0) -> str:
    return "\n".join(_pretty_block(cmd, indent))


def pretty(source: SourceFile) -> str:
    lines: list[str] = []
    if source.alphabet_letters is not None:
        lines.append("alphabet " + " ".join(source.alphabet_letters) + ";")
    for decl in source.op_decls:
        piece = f"op {decl.name} arity {decl.arity} class {decl.klass}"
        if decl.sigs is not None:
            rendered = [
                "->".join(str(t) for t in list(args) + [result]) for args, result in decl.sigs
            ]
            piece += " sig " + ", ".join(rendered)
        lines.append(piece + ";")
    if source.var_tiers:
        lines.append("vars {")
        for name, tier in source.var_tiers:
            lines.append(f"  {name} : {tier};")
        lines.append("}")
    for tid, cmd in source.threads:
        if lines:
            lines.append("")
        lines.append(f"thread {tid} {{")
        lines += _pretty_block(cmd, 1)
        lines.append("}")
    return "\n".join(lines) + "\n"
