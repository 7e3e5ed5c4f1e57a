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

import functools
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


def render_sig(sig: Sig) -> str:
    args, result = sig
    return "->".join(str(t) for t in list(args) + [result])


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

# One alternative per token kind, after any blanks; ``_tokenize`` scans
# one line at a time with its trailing blanks cut, so ``finditer`` reads
# the line without gaps.  ``//`` comments produce no token, and any
# other character is an error.  ``[^\W\d]`` is a word character that
# is not a decimal digit, which also matches numeric signs such as
# ``²``; ``_tokenize`` rejects those, so a name starts with a letter or
# ``_``.
_TOKEN = re.compile(
    r"""[ \t\r]* (?: //.*
    | (?P<punct>:= | -> | [{}();:,])
    | (?P<string>"[^"]*")
    | (?P<ident>[^\W\d]\w*)
    | (?P<digits>\d+)
    | (?P<error>.))""",
    re.VERBOSE,
)


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


# A token is a ``(kind, text, line, col)`` tuple; ``kind`` is "ident",
# "digits", "string", "punct" or "eof".  Keywords are identifiers and
# word literals keep their quotes, so the text of a keyword or a
# punctuation mark is never the text of any other kind of token.
# ``_tokenize`` lists the tokens last to first, so the parser, which
# never looks back, pops each token it reads and frees it: a long file's
# tokens and tree need not both be held whole.  ``command`` and
# ``expression`` test and pop the tokens in place; the headers, and any
# error, go through ``peek``, ``advance``, ``at`` and ``expect``.


def _tokenize(text: str) -> list[tuple]:
    tokens: list[tuple] = []
    for line, row in enumerate(text.split("\n"), 1):
        for match in _TOKEN.finditer(row.rstrip(" \t\r")):
            kind = match.lastgroup
            if kind is None:
                continue
            start = match.start(kind)
            first = row[start]
            if kind == "error" or kind == "ident" and not (first.isalpha() or first == "_"):
                if first == '"':
                    raise ParseError("unterminated word literal", line, start + 1)
                raise ParseError(f"unexpected character {first!r}", line, start + 1)
            tokens.append((kind, match.group(kind), line, start + 1))
    tokens.append(("eof", "", line, len(row) + 1))
    tokens.reverse()
    return tokens


def alphabet_letter(text: str) -> bool:
    """Whether ``text`` can be a letter of an ``alphabet`` header: one
    character that reads as an identifier or digits token."""
    try:
        tokens = _tokenize(text)
    except ParseError:
        return False
    return len(text) == 1 and len(tokens) == 2 and tokens[-1][0] in ("ident", "digits")


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
        return self._program  # one per file, so a check and its runs share a table

    @functools.cached_property
    def _program(self) -> Program:
        return Program(self.threads)

    def with_annotations(self, tiers: dict[str, Tier]) -> "SourceFile":
        ordered = tuple(sorted(tiers.items()))
        other = SourceFile(self.alphabet_letters, self.op_decls, ordered, self.threads)
        vars(other)["_program"] = self._program  # the same threads, so the same table
        return other


class _Parser:
    def __init__(self, tokens: list[tuple]):
        self.tokens = tokens  # the next token last

    def peek(self) -> tuple:
        return self.tokens[-1]

    def advance(self) -> tuple:
        tok = self.tokens[-1]
        if tok[0] != "eof":
            self.tokens.pop()
        return tok

    def fail(self, message: str, tok: tuple | None = None) -> ParseError:
        tok = tok or self.peek()
        return ParseError(message, tok[2], tok[3])

    def missing(self, text: str) -> ParseError:
        return self.fail(f"expected {text!r}, found {self.peek()[1] or 'end of file'!r}")

    def at(self, text: str) -> bool:
        """Whether the next token is the given keyword or punctuation mark."""
        return self.tokens[-1][1] == text

    def expect(self, text: str) -> tuple:
        if not self.at(text):
            raise self.missing(text)
        return self.advance()

    def fresh_name(self, role: str) -> tuple:
        kind, text = self.peek()[:2]
        if kind != "ident":
            raise self.fail(f"expected a {role} name, found {text or 'end of file'!r}")
        if text in RESERVED:
            raise self.fail(f"{text!r} is a reserved word and cannot name a {role}")
        return self.advance()

    def tier(self) -> Tier:
        kind, text = self.peek()[:2]
        if kind == "digits" and text in ("0", "1"):
            self.advance()
            return Tier(int(text))
        raise self.fail(f"expected a tier (0 or 1), found {text or 'end of file'!r}")

    # --- headers ---------------------------------------------------------

    def source_file(self) -> SourceFile:
        alphabet: tuple[str, ...] | None = None
        op_decls: dict[str, OpDecl] = {}  # each by name, so a duplicate is one lookup
        var_tiers: dict[str, Tier] = {}
        threads: dict[str, Command] = {}
        while self.peek()[0] != "eof":
            if self.at("alphabet"):
                if alphabet is not None:
                    raise self.fail("duplicate alphabet header")
                alphabet = self.alphabet_decl()
            elif self.at("op"):
                decl = self.op_decl()
                if decl.name in op_decls:
                    raise self.fail(f"duplicate declaration of operator {decl.name!r}")
                op_decls[decl.name] = decl
            elif self.at("vars"):
                self.vars_decl(var_tiers)
            elif self.at("thread"):
                name, cmd = self.thread_decl()
                if name in threads:
                    raise self.fail(f"duplicate thread name {name!r}")
                threads[name] = cmd
            else:
                raise self.fail(f"expected a header or thread, found {self.peek()[1]!r}")
        if not threads:
            raise self.fail("a program needs at least one thread")
        source = SourceFile(alphabet, tuple(op_decls.values()), tuple(var_tiers.items()),
                            tuple(threads.items()))
        _validate(source)
        return source

    def alphabet_decl(self) -> tuple[str, ...]:
        self.expect("alphabet")
        letters: list[str] = []
        while not self.at(";"):
            text = self.peek()[1]
            if not alphabet_letter(text):
                raise self.fail("alphabet letters are single characters separated by spaces")
            if text in letters:
                raise self.fail(f"duplicate alphabet letter {text!r}")
            letters.append(text)
            self.advance()
        self.expect(";")
        if not letters:
            raise self.fail("alphabet header needs at least one letter")
        return tuple(letters)

    def op_decl(self) -> OpDecl:
        start = self.expect("op")
        if self.peek()[0] == "string":
            raise self.fail("word literals need no declaration")
        name = self.fresh_name("operator")[1]
        self.expect("arity")
        if self.peek()[0] != "digits":
            raise self.fail("expected an arity")
        arity = int(self.advance()[1])
        self.expect("class")
        if not (self.at("neutral") or self.at("positive")):
            raise self.fail("operator class is 'neutral' or 'positive'")
        klass = self.advance()[1]
        sigs: tuple[Sig, ...] | None = None
        if self.at("sig"):
            self.advance()
            sig_list = [self.signature(arity)]
            while self.at(","):
                self.advance()
                sig_list.append(self.signature(arity))
            sigs = tuple(sig_list)
        self.expect(";")
        return OpDecl(name, arity, klass, sigs, Span(start[2], start[3]))

    def signature(self, arity: int) -> Sig:
        start = self.peek()
        tiers = [self.tier()]
        while self.at("->"):
            self.advance()
            tiers.append(self.tier())
        if len(tiers) != arity + 1:
            raise self.fail(
                f"signature lists {len(tiers) - 1} argument tiers for an arity-{arity} operator",
                start,
            )
        return tuple(tiers[:-1]), tiers[-1]

    def vars_decl(self, var_tiers: dict[str, Tier]) -> None:
        self.expect("vars")
        self.expect("{")
        while not self.at("}"):
            name_tok = self.fresh_name("variable")
            self.expect(":")
            tier = self.tier()
            self.expect(";")
            if name_tok[1] in var_tiers:
                raise self.fail(f"duplicate tier annotation for {name_tok[1]!r}", name_tok)
            var_tiers[name_tok[1]] = tier
        self.expect("}")

    def thread_decl(self) -> tuple[str, Command]:
        self.expect("thread")
        name = self.fresh_name("thread")[1]
        self.expect("{")
        cmd = self.command()
        self.expect("}")
        return name, cmd

    # --- commands ---------------------------------------------------------

    def command(self) -> Command:
        """A ``;``-separated statement sequence, up to its closing brace.

        Each open block sits on a stack as (the statements before it,
        what opened it, what that opener read): a ``{`` in statement
        position reads nothing, an ``if`` or ``while`` its span and
        guard, and an ``else`` also the finished then-branch.
        """
        tokens, pop = self.tokens, self.tokens.pop
        stack: list[tuple[list[Command], str, tuple]] = []
        items: list[Command] = []
        while True:
            tok = pop()
            kind, text = tok[0], tok[1]
            if text == "{" or text == "if" or text == "while":
                read: tuple = ()
                if text != "{":
                    if tokens[-1][1] != "(":
                        raise self.missing("(")
                    pop()
                    read = (Span(tok[2], tok[3]), self.expression())
                    if tokens[-1][1] != ")" or tokens[-2][1] != "{":
                        self.expect(")")
                        raise self.missing("{")
                    del tokens[-2:]
                stack.append((items, text, read))
                items = []
                continue
            if kind != "ident":
                raise self.fail(f"expected a statement, found {text or 'end of file'!r}", tok)
            if text == "skip":
                statement: Command = Skip(Span(tok[2], tok[3]))
            elif text in RESERVED:
                raise self.fail(f"{text!r} is a reserved word and cannot name a variable", tok)
            elif tokens[-1][1] != ":=":
                raise self.missing(":=")
            else:
                pop()
                statement = Assign(text, self.expression(), Span(tok[2], tok[3]))
            # Close every block the statement ends; stop at a ";" that
            # another statement follows.
            while True:
                items.append(statement)
                if tokens[-1][1] == ";":
                    pop()
                    if tokens[-1][1] != "}":
                        break
                block = items.pop()
                for item in reversed(items):
                    block = Seq(item, block, item.span)
                if not stack:
                    return block
                if tokens[-1][1] != "}":
                    raise self.missing("}")
                pop()
                items, opener, read = stack.pop()
                if opener == "if":
                    if tokens[-1][1] != "else" or tokens[-2][1] != "{":
                        self.expect("else")
                        raise self.missing("{")
                    del tokens[-2:]
                    stack.append((items, "else", read + (block,)))
                    items = []
                    break
                if opener == "{":
                    statement = block
                elif opener == "else":
                    statement = If(read[1], read[2], block, read[0])
                else:
                    statement = While(read[1], block, read[0])

    # --- expressions ------------------------------------------------------

    def expression(self) -> Expr:
        """An expression; each open operator call sits on a stack as
        (operator token, arguments so far)."""
        tokens, pop = self.tokens, self.tokens.pop
        stack: list[tuple[tuple, list[Expr]]] = []
        while True:
            tok = pop()
            kind, text = tok[0], tok[1]
            if kind == "string" or text == "tt" or text == "ff":
                expr: Expr = OpCall(text, (), Span(tok[2], tok[3]))
            elif kind != "ident":
                raise self.fail(f"expected an expression, found {text or 'end of file'!r}", tok)
            elif text in RESERVED:
                raise self.fail(f"{text!r} is a reserved word", tok)
            elif tokens[-1][1] != "(":
                expr = Var(text, Span(tok[2], tok[3]))
            else:
                pop()
                if tokens[-1][1] != ")":
                    stack.append((tok, []))
                    continue
                pop()
                expr = OpCall(text, (), Span(tok[2], tok[3]))
            # Close every call the expression ends; stop at a ",".
            while stack:
                op, args = stack[-1]
                args.append(expr)
                text = tokens[-1][1]
                if text == ",":
                    pop()
                    break
                if text != ")":
                    raise self.missing(")")
                pop()
                stack.pop()
                expr = OpCall(op[1], tuple(args), Span(op[2], op[3]))
            else:
                return expr


def _validate(source: SourceFile) -> None:
    """Post-parse checks: operator usage against declarations, and word
    literal letters against the alphabet.  Each distinct call, a key of
    the program's ``ControlTable`` (built here for every later check and
    run), is checked once; only a failed check walks the threads, to
    report the first offender in reading order."""
    arities = {decl.name: decl.arity for decl in source.op_decls}
    letters = source.alphabet().letters

    def problem(op: str, argc: int) -> str | None:
        if op.startswith('"'):
            bad = [c for c in op[1:-1] if c not in letters]
            return f"word literal uses letters outside the alphabet: {bad}" if bad else None
        if op in ("tt", "ff") or arities.get(op) == argc:
            return None
        if op not in arities:
            return f"operator {op!r} is not declared in an op header"
        return f"operator {op!r} declared with arity {arities[op]}, applied to {argc} arguments"

    if not any(key.__class__ is tuple and key[0].__class__ is str and problem(key[0], len(key) - 1)
               for key in source.program().table.keys):
        return
    for _, cmd in source.threads:
        for call in walk(cmd):
            message = call.__class__ is OpCall and problem(call.op, len(call.args))
            if message:
                span = call.span or Span(0, 0)
                raise ParseError(message, span.line, span.col)


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


def pretty_command(cmd: Command) -> str:
    return "\n".join(_pretty_block(cmd, 0))


def pretty(source: SourceFile) -> str:
    lines: list[str] = []
    if source.alphabet_letters is not None:
        lines.append("alphabet " + " ".join(source.alphabet_letters) + ";")
    for decl in source.op_decls:
        piece = f"op {decl.name} arity {decl.arity} class {decl.klass}"
        if decl.sigs is not None:
            piece += " sig " + ", ".join(map(render_sig, decl.sigs))
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
