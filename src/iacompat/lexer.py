"""Tokenizer shared by the constraint parser and the contract document parser.

Keywords are contextual: the lexer only distinguishes identifiers, integers,
strings, enum literals like ``<off>``, punctuation, and the two old-state
markers (``~`` and ``@pre``). ``//`` starts a line comment. The unicode arrow
``→`` is the punctuator ``->``.

One master regex, walked with ``finditer``, matches every token kind and every
error case; its alternatives are ordered so that the first match is the
longest token. Columns count source characters, ``→`` included.
"""
from __future__ import annotations

import re
from typing import NamedTuple


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
    line: int
    col: int


_TOKEN = re.compile(r"""
    (?P<skip>[ \t\r]+|//[^\n]*)
  | (?P<nl>\n)
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
    line, line_start = 1, 0
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "skip":  # whitespace or a comment
            continue
        if kind == "nl":
            line += 1
            line_start = m.end()
            continue
        tok = m.group()
        col = m.start() - line_start + 1
        if kind == "ident" or kind == "punct" or kind == "int" or kind == "oldmark":
            toks.append(Token(kind, "->" if tok == "→" else tok, line, col))
        elif kind == "enumlit" or kind == "string":
            toks.append(Token(kind, tok[1:-1], line, col))
        elif kind == "at":
            raise ParseError("stray '@' (did you mean '@pre'?)", line, col, source)
        elif kind == "unterminated":
            raise ParseError("unterminated string literal", line, col, source)
        else:
            raise ParseError(f"unexpected character {tok!r}", line, col, source)
    toks.append(Token("eof", "", line, len(text) - line_start + 1))
    return toks


class TokenStream:
    """Cursor over a token list with the usual peek/expect helpers."""

    def __init__(self, tokens: list[Token], source: str = "<string>"):
        self.tokens = tokens
        self.source = source
        self.seek(0)

    def seek(self, pos: int) -> None:
        self.pos = pos
        self.current = self.tokens[pos]

    def peek(self, kind: str, text: str | None = None) -> bool:
        t = self.current
        return t.kind == kind and (text is None or t.text == text)

    def peek_word(self, word: str) -> bool:
        t = self.current
        return t.kind == "ident" and t.text == word

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

    def accept_word(self, word: str) -> bool:
        t = self.current
        if t.kind == "ident" and t.text == word:
            self.advance()
            return True
        return False

    def expect(self, kind: str, text: str | None = None, what: str | None = None) -> Token:
        t = self.current
        if t.kind == kind and (text is None or t.text == text):
            return self.advance()
        wanted = what or (text if text is not None else kind)
        found = t.text if t.kind != "eof" else "end of input"
        raise ParseError(f"expected {wanted}, found {found!r}", t.line, t.col, self.source)

    def expect_word(self, word: str) -> Token:
        return self.expect("ident", word, what=f"'{word}'")

    def error(self, message: str) -> ParseError:
        t = self.current
        return ParseError(message, t.line, t.col, self.source)
