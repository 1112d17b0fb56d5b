"""Lexer for the mini-C language."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List


class LexerError(ValueError):
    """Raised on malformed source text."""

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"{message} at line {line}, column {column}")
        self.line = line
        self.column = column


class TokenKind(enum.Enum):
    """Token categories."""

    IDENT = "ident"
    NUMBER = "number"
    STRING = "string"
    CHAR = "char"
    KEYWORD = "keyword"
    PUNCT = "punct"
    EOF = "eof"


KEYWORDS = {
    "int", "byte", "void", "if", "else", "while", "for", "return",
    "break", "continue", "switch", "case", "default", "global",
}

#: Multi-character punctuation, longest first so maximal munch works.
PUNCTUATION = [
    "<<=", ">>=",
    "==", "!=", "<=", ">=", "&&", "||", "<<", ">>", "+=", "-=", "*=", "/=",
    "%=", "&=", "|=", "^=", "++", "--",
    "+", "-", "*", "/", "%", "&", "|", "^", "~", "!", "<", ">", "=",
    "(", ")", "{", "}", "[", "]", ";", ",", ":", "?",
]


@dataclass(frozen=True)
class Token:
    """A single lexical token."""

    kind: TokenKind
    text: str
    value: int = 0
    line: int = 0
    column: int = 0

    def is_punct(self, text: str) -> bool:
        """Whether this token is the given punctuation."""
        return self.kind is TokenKind.PUNCT and self.text == text

    def is_keyword(self, text: str) -> bool:
        """Whether this token is the given keyword."""
        return self.kind is TokenKind.KEYWORD and self.text == text


class Lexer:
    """Converts mini-C source text into a token list."""

    def __init__(self, source: str) -> None:
        self.source = source
        self.pos = 0
        self.line = 1
        self.column = 1

    def tokenize(self) -> List[Token]:
        """Tokenize the whole input (ending with an EOF token)."""
        tokens: List[Token] = []
        while True:
            token = self._next_token()
            tokens.append(token)
            if token.kind is TokenKind.EOF:
                return tokens

    # -- internals ------------------------------------------------------------
    def _peek(self, offset: int = 0) -> str:
        index = self.pos + offset
        return self.source[index] if index < len(self.source) else ""

    def _advance(self, count: int = 1) -> None:
        for _ in range(count):
            if self.pos < len(self.source):
                if self.source[self.pos] == "\n":
                    self.line += 1
                    self.column = 1
                else:
                    self.column += 1
                self.pos += 1

    def _skip_whitespace_and_comments(self) -> None:
        while True:
            ch = self._peek()
            if ch and ch in " \t\r\n":
                self._advance()
            elif ch == "/" and self._peek(1) == "/":
                while self._peek() and self._peek() != "\n":
                    self._advance()
            elif ch == "/" and self._peek(1) == "*":
                self._advance(2)
                while self._peek() and not (self._peek() == "*" and self._peek(1) == "/"):
                    self._advance()
                if not self._peek():
                    raise LexerError("unterminated block comment", self.line, self.column)
                self._advance(2)
            else:
                return

    def _next_token(self) -> Token:
        self._skip_whitespace_and_comments()
        line, column = self.line, self.column
        ch = self._peek()
        if not ch:
            return Token(TokenKind.EOF, "", line=line, column=column)
        if ch.isalpha() or ch == "_":
            return self._lex_ident(line, column)
        if ch.isdigit():
            return self._lex_number(line, column)
        if ch == '"':
            return self._lex_string(line, column)
        if ch == "'":
            return self._lex_char(line, column)
        for punct in PUNCTUATION:
            if self.source.startswith(punct, self.pos):
                self._advance(len(punct))
                return Token(TokenKind.PUNCT, punct, line=line, column=column)
        raise LexerError(f"unexpected character {ch!r}", line, column)

    def _lex_ident(self, line: int, column: int) -> Token:
        start = self.pos
        while self._peek().isalnum() or self._peek() == "_":
            self._advance()
        text = self.source[start:self.pos]
        kind = TokenKind.KEYWORD if text in KEYWORDS else TokenKind.IDENT
        return Token(kind, text, line=line, column=column)

    def _lex_number(self, line: int, column: int) -> Token:
        start = self.pos
        if self._peek() == "0" and self._peek(1) in "xX":
            self._advance(2)
            while self._peek() and self._peek() in "0123456789abcdefABCDEF":
                self._advance()
            text = self.source[start:self.pos]
            value = int(text, 16)
        else:
            while self._peek().isdigit():
                self._advance()
            text = self.source[start:self.pos]
            value = int(text)
        return Token(TokenKind.NUMBER, text, value=value, line=line, column=column)

    _ESCAPES = {"n": 10, "t": 9, "r": 13, "0": 0, "\\": 92, "'": 39, '"': 34}

    def _lex_string(self, line: int, column: int) -> Token:
        self._advance()  # opening quote
        chars: List[str] = []
        while True:
            ch = self._peek()
            if not ch:
                raise LexerError("unterminated string literal", line, column)
            if ch == '"':
                self._advance()
                break
            if ch == "\\":
                self._advance()
                esc = self._peek()
                if esc not in self._ESCAPES:
                    raise LexerError(f"unknown escape \\{esc}", self.line, self.column)
                chars.append(chr(self._ESCAPES[esc]))
                self._advance()
            else:
                chars.append(ch)
                self._advance()
        return Token(TokenKind.STRING, "".join(chars), line=line, column=column)

    def _lex_char(self, line: int, column: int) -> Token:
        self._advance()  # opening quote
        ch = self._peek()
        if ch == "\\":
            self._advance()
            esc = self._peek()
            if esc not in self._ESCAPES:
                raise LexerError(f"unknown escape \\{esc}", self.line, self.column)
            value = self._ESCAPES[esc]
            self._advance()
        else:
            if not ch:
                raise LexerError("unterminated character literal", line, column)
            value = ord(ch)
            self._advance()
        if self._peek() != "'":
            raise LexerError("unterminated character literal", line, column)
        self._advance()
        return Token(TokenKind.CHAR, chr(value), value=value, line=line, column=column)
