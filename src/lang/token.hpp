#pragma once
// Token definitions for MiniOO, the small object-oriented input language.
// MiniOO substitutes for the paper's C# frontend: it has classes, fields,
// methods, arrays, lists, `foreach`, and the usual statement forms — enough
// to express every program the paper's figures and study benchmark use.

#include <cstdint>
#include <string>

#include "support/intern.hpp"
#include "support/source_location.hpp"

namespace patty::lang {

enum class TokenKind : std::uint8_t {
  // Literals and identifiers.
  Identifier,
  IntLiteral,
  DoubleLiteral,
  StringLiteral,

  // Keywords.
  KwClass, KwInt, KwDouble, KwBool, KwString, KwVoid, KwList,
  KwIf, KwElse, KwWhile, KwFor, KwForeach, KwIn,
  KwReturn, KwBreak, KwContinue,
  KwNew, KwTrue, KwFalse, KwNull,

  // Punctuation.
  LParen, RParen, LBrace, RBrace, LBracket, RBracket,
  Comma, Semicolon, Dot,
  Less, LessEq, Greater, GreaterEq, EqEq, NotEq,
  Assign, Plus, Minus, Star, Slash, Percent,
  PlusAssign, MinusAssign, StarAssign, SlashAssign,
  PlusPlus, MinusMinus,
  AmpAmp, PipePipe, Bang,

  // A `#region`/`#endregion`-style annotation line: `@tadl ...` / `@end`.
  AnnotationLine,

  Eof,
};

struct Token {
  TokenKind kind = TokenKind::Eof;
  std::string text;        // string value, annotation body
  support::Symbol symbol;  // interned spelling for Identifier tokens
  std::int64_t int_value = 0;
  double double_value = 0.0;
  SourceRange range;
};

/// Human-readable token-kind name for diagnostics.
const char* token_kind_name(TokenKind kind);

}  // namespace patty::lang
