"""Tokenizer shared by the constraint parser and the contract document parser.

Keywords are contextual: the lexer only distinguishes identifiers, integers,
strings, enum literals like ``<off>``, punctuation, and the two old-state
markers (``~`` and ``@pre``). ``//`` starts a line comment. The unicode arrow
``→`` is the punctuator ``->``.

A ``TokenStream`` is a cursor over the text. Each step matches one compiled
regex at the cursor's offset: the whitespace and comments before a token and
the token itself. The group that matched, ``m.lastindex``, gives the token's
kind; the alternatives are ordered so that the first match is the longest
token, and the last ones are the error cases. A parser keeps a token's start
offset to place a later error, and ``skip_to`` moves the cursor past text it
has read on its own. Only an error needs a line and a column, and
``position`` is the one rule for them.

A lexical fault anywhere in the text is reported before any grammar error,
as if the text were lexed whole first: ``error`` lexes the rest of the text.
An expression or a domain nests at most ``MAX_DEPTH`` levels; docs/grammar.md says what counts.
"""
from __future__ import annotations

import re
from typing import Callable, TypeVar

T = TypeVar("T")

MAX_INT_DIGITS = 4300  # in a literal, as Python converts integers to and from text by default
MAX_DEPTH = 32  # levels of nesting, so that every recursive pass over a tree has stack to spare


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
# the kind of each group up to the end of input; enum literal and string groups hold
# the text inside their delimiters, so their tokens start one character before the group
_KIND = (None, "ident", "enumlit", "punct", "int", "string", "oldmark", "punct", "eof")
_SHIFT = (0, 0, 1, 0, 0, 1, 0, 0, 0)
_ARROW, _EOF = 7, 8
_ERRORS = {_EOF + 1: "stray '@' (did you mean '@pre'?)", _EOF + 2: "unterminated string literal"}


class TokenStream:
    """Cursor over the tokens of one text: ``kind`` and ``text`` are the current token's,
    ``at`` its start offset and ``end`` the offset just past it; the last is ``eof``, at the
    end of the text. ``accept`` and ``expect`` test the current token by kind and, when
    given, text; a word is an ``"ident"``. ``found`` names the current token in an error:
    its text, or the end of input. ``depth`` is the number of expression levels open."""

    def __init__(self, text: str, source: str = "<string>"):
        self.input, self.source, self.text, self.depth = text, source, None, 0
        self.skip_to(0)

    def skip_to(self, pos: int) -> None:
        """Make the token after offset ``pos`` the current one."""
        self.kind, self.end = None, pos
        self.advance()

    @property
    def lookahead(self) -> tuple[str, str]:
        """The kind and text of the token after the current one; the end of input follows itself."""
        state = self.kind, self.text, self.at, self.end
        self.advance()
        ahead = self.kind, self.text
        self.kind, self.text, self.at, self.end = state
        return ahead

    def advance(self) -> str:
        """Step past the current token and return its text; the one place a match becomes a token."""
        t = self.text
        if self.kind != "eof":
            m = _TOKEN.match(self.input, self.end)
            i = m.lastindex
            if i > _EOF:
                raise ParseError(_ERRORS.get(i, f"unexpected character {m[i]!r}"),
                                 *position(self.input, m.start(i)), self.source)
            self.kind, self.text, self.at, self.end = (
                _KIND[i], "->" if i == _ARROW else m[i], m.start(i) - _SHIFT[i], m.end())
        return t

    def nest(self) -> str:
        """Step past the current token, which opens one more level of ``depth``, and return its text."""
        if self.depth == MAX_DEPTH:
            raise self.error("expression nests too deeply")
        self.depth += 1
        return self.advance()

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
        if self.kind == "int" and len(self.text) > MAX_INT_DIGITS:
            raise self.error(f"integer literal longer than {MAX_INT_DIGITS} digits")
        return int(self.expect("int", what=what))

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
        """A ParseError located at offset ``at``, by default the current token's; but a
        lexical fault after the current token is raised instead, as the text's first."""
        at = self.at if at is None else at
        while self.kind != "eof":
            self.advance()
        return ParseError(message, *position(self.input, at), self.source)
