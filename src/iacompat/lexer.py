"""Tokenizer shared by the constraint parser and the contract document parser.

Keywords are contextual: the lexer only distinguishes identifiers, integers,
strings, enum literals like ``<off>``, punctuation, and the two old-state
markers (``~`` and ``@pre``). ``//`` starts a line comment. The unicode arrow
``→`` is the punctuator ``->``.

One compiled regex, walked with ``finditer``, reads the whole text: each match
is the whitespace and comments before a token and the token itself, and the
group that matched, ``m.lastindex``, gives the token's kind. The alternatives
are ordered so that the first match is the longest token; the last ones are
the error cases. ``tokenize`` returns three parallel lists, kinds, texts and
start offsets, and ends them with an ``eof`` token at the end of the text. No
object is built per token.

A ``TokenStream`` reads the lists by index: ``kind`` and ``text`` are the
current token's, and ``at`` is its index, which is how a parser keeps a token
to place a later error. Only an error needs a line and a column, and
``position`` is the one rule for them.
"""
from __future__ import annotations

import re
from typing import Callable, TypeVar

T = TypeVar("T")

MAX_INT_DIGITS = 4300  # in a literal, as Python converts integers to and from text by default


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int, source: str = "<string>"):
        self.message = message
        self.line = line
        self.col = col
        self.source = source
        super().__init__(f"{source}:{line}:{col}: {message}")


def position(text: str, pos: int) -> tuple[int, int]:
    """Line and column of offset ``pos`` in ``text``, both from 1; columns count characters."""
    return text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)


_TOKEN = re.compile(r"""
    [ \t\r\n]* (?: //[^\n]* [ \t\r\n]* )*
    (?: ([A-Za-z_][A-Za-z0-9_]*)
      | <([A-Za-z_][A-Za-z0-9_]*)>
      | (\.\.\.|->|::|<=|>=|<>|\.\.|[()\[\]{},;:=<>+\-.])
      | ([0-9]+)
      | "([^"\n]*)"
      | (~|@pre)
      | (→)
      | ()\Z
      | (@)
      | (")
      | (.) )
""", re.VERBOSE | re.DOTALL)
# the kind of each group before the arrow's; enum literal and string groups hold the
# text inside their delimiters, so their tokens start one character before the group
_KIND = (None, "ident", "enumlit", "punct", "int", "string", "oldmark")
_SHIFT = (0, 0, 1, 0, 0, 1, 0)
_ARROW, _EOF = len(_KIND), len(_KIND) + 1
_ERRORS = {_EOF + 1: "stray '@' (did you mean '@pre'?)", _EOF + 2: "unterminated string literal"}


def tokenize(text: str, source: str = "<string>") -> tuple[list[str], list[str], list[int]]:
    """The kinds, texts and start offsets of ``text``'s tokens, the last one ``eof``."""
    kinds: list[str] = []
    texts: list[str] = []
    starts: list[int] = []
    for m in _TOKEN.finditer(text):
        i = m.lastindex
        if i < _ARROW:
            kinds.append(_KIND[i])
            texts.append(m[i])
            starts.append(m.start(i) - _SHIFT[i])
        elif i == _ARROW:
            kinds.append("punct")
            texts.append("->")
            starts.append(m.start(i))
        elif i == _EOF:
            break
        else:
            raise ParseError(_ERRORS.get(i, f"unexpected character {m[i]!r}"),
                             *position(text, m.start(i)), source)
    kinds.append("eof")
    texts.append("")
    starts.append(len(text))
    return kinds, texts, starts


class TokenStream:
    """Cursor over the tokens of one text: ``kind`` and ``text`` are the current token's,
    ``at`` its index. ``peek``, ``accept`` and ``expect`` test the current token by kind
    and, when given, text; a word is an ``"ident"``. ``found`` names the current token in
    an error: its text, or the end of input."""

    def __init__(self, text: str, source: str = "<string>"):
        self.input = text
        self.source = source
        self.kinds, self.texts, self.starts = tokenize(text, source)
        self.at = 0
        self.kind, self.text = self.kinds[0], self.texts[0]

    @property
    def lookahead(self) -> tuple[str, str]:
        """The kind and text of the token after the current one; the end of input follows itself."""
        i = min(self.at + 1, len(self.kinds) - 1)
        return self.kinds[i], self.texts[i]

    def peek(self, kind: str, text: str | None = None) -> bool:
        return self.kind == kind and (text is None or self.text == text)

    def advance(self) -> str:
        """Step past the current token and return its text."""
        t = self.text
        if self.kind != "eof":
            self.at = i = self.at + 1
            self.kind, self.text = self.kinds[i], self.texts[i]
        return t

    def accept(self, kind: str, text: str | None = None) -> str | None:
        """The current token's text, stepping past it, if it matches; else None."""
        if self.kind == kind and (text is None or self.text == text):
            return self.advance()
        return None

    @property
    def found(self) -> str:
        return self.text if self.kind != "eof" else "end of input"

    def expect(self, kind: str, text: str | None = None, what: str | None = None) -> str:
        if self.kind == kind and (text is None or self.text == text):
            return self.advance()
        raise self.error(f"expected {what or text or kind}, found {self.found!r}")

    def expect_int(self, what: str | None = None) -> int:
        """The value of the current token, an integer literal, stepping past it."""
        digits = self.expect("int", what=what)
        if len(digits) > MAX_INT_DIGITS:
            raise self.error(f"integer literal longer than {MAX_INT_DIGITS} digits", self.at - 1)
        return int(digits)

    def items(self, read: Callable[[TokenStream], T], close: str) -> tuple[T, ...]:
        """``[item {"," item}] close``, each item read by ``read(self)``."""
        out = []
        if not self.accept("punct", close):
            out.append(read(self))
            while self.accept("punct", ","):
                out.append(read(self))
            self.expect("punct", close)
        return tuple(out)

    def error(self, message: str, at: int | None = None) -> ParseError:
        """A ParseError located at the token of index ``at``, by default the current one."""
        pos = self.starts[self.at if at is None else at]
        return ParseError(message, *position(self.input, pos), self.source)
