"""Tokenizer shared by the constraint parser and the contract document parser.

Keywords are contextual: the lexer only distinguishes identifiers, integers,
strings, enum literals like ``<off>``, punctuation, and the two old-state
markers (``~`` and ``@pre``). ``//`` starts a line comment. The unicode arrow
``→`` is the punctuator ``->``.

One master regex, walked with ``finditer``, matches every token kind and every
error case; its alternatives are ordered so that the first match is the
longest token. A token carries the offset of its first character. Only an
error needs a line and a column, and ``position`` is the one rule for them.
"""
from __future__ import annotations

import re
from typing import Callable, NamedTuple, TypeVar

T = TypeVar("T")


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int, source: str = "<string>"):
        self.message = message
        self.line = line
        self.col = col
        self.source = source
        super().__init__(f"{source}:{line}:{col}: {message}")


class Token(NamedTuple):
    kind: str  # ident int string enumlit punct oldmark eof
    text: str
    pos: int  # offset of the first character in the source text


def position(text: str, pos: int) -> tuple[int, int]:
    """Line and column of offset ``pos`` in ``text``, both from 1; columns count characters."""
    return text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)


_TOKEN = re.compile(r"""
    (?P<skip>[ \t\r\n]+|//[^\n]*)
  | (?P<oldmark>~|@pre)
  | (?P<at>@)
  | (?P<enumlit><[A-Za-z_][A-Za-z0-9_]*>)
  | (?P<string>"[^"\n]*")
  | (?P<unterminated>")
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<int>[0-9]+)
  | (?P<punct>\.\.\.|->|→|::|<=|>=|<>|\.\.|[()\[\]{},;:=<>+\-.])
  | (?P<bad>.)
""", re.VERBOSE | re.DOTALL)


def tokenize(text: str, source: str = "<string>") -> list[Token]:
    toks: list[Token] = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "skip":  # whitespace, newlines or a comment
            continue
        tok = m.group()
        if kind == "ident" or kind == "punct" or kind == "int" or kind == "oldmark":
            toks.append(Token(kind, "->" if tok == "→" else tok, m.start()))
        elif kind == "enumlit" or kind == "string":
            toks.append(Token(kind, tok[1:-1], m.start()))
        elif kind == "at":
            raise ParseError("stray '@' (did you mean '@pre'?)", *position(text, m.start()), source)
        elif kind == "unterminated":
            raise ParseError("unterminated string literal", *position(text, m.start()), source)
        else:
            raise ParseError(f"unexpected character {tok!r}", *position(text, m.start()), source)
    toks.append(Token("eof", "", len(text)))
    return toks


class TokenStream:
    """Cursor over the tokens of one text. ``peek``, ``accept`` and ``expect`` test the
    current token by kind and, when given, text; a word is an ``"ident"``."""

    def __init__(self, text: str, source: str = "<string>"):
        self.text = text
        self.source = source
        self.tokens = tokenize(text, source)
        self.pos = 0
        self.current = self.tokens[0]

    @property
    def lookahead(self) -> Token:
        """The token after the current one; the end-of-input token follows itself."""
        return self.tokens[min(self.pos + 1, len(self.tokens) - 1)]

    def peek(self, kind: str, text: str | None = None) -> bool:
        t = self.current
        return t.kind == kind and (text is None or t.text == text)

    def advance(self) -> Token:
        t = self.current
        if t.kind != "eof":
            self.pos += 1
            self.current = self.tokens[self.pos]
        return t

    def accept(self, kind: str, text: str | None = None) -> Token | None:
        t = self.current
        if t.kind == kind and (text is None or t.text == text):
            return self.advance()
        return None

    def expect(self, kind: str, text: str | None = None, what: str | None = None) -> Token:
        t = self.current
        if t.kind == kind and (text is None or t.text == text):
            return self.advance()
        wanted = what or (text if text is not None else kind)
        found = t.text if t.kind != "eof" else "end of input"
        raise self.error(f"expected {wanted}, found {found!r}")

    def items(self, read: Callable[[TokenStream], T], close: str) -> tuple[T, ...]:
        """``[item {"," item}] close``, each item read by ``read(self)``."""
        out = []
        if not self.accept("punct", close):
            out.append(read(self))
            while self.accept("punct", ","):
                out.append(read(self))
            self.expect("punct", close)
        return tuple(out)

    def error(self, message: str, at: Token | None = None) -> ParseError:
        """A ParseError located at token ``at``, by default the current one."""
        pos = (self.current if at is None else at).pos
        return ParseError(message, *position(self.text, pos), self.source)
