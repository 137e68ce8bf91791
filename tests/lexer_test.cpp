// Unit tests for the MiniOO lexer: token kinds, literals, positions,
// comments, annotations, and error reporting.

#include <gtest/gtest.h>

#include <cstdint>

#include "lang/lexer.hpp"

namespace patty::lang {
namespace {

std::vector<Token> lex_ok(std::string_view src) {
  DiagnosticSink diags;
  Lexer lexer(src, diags);
  auto tokens = lexer.tokenize();
  EXPECT_FALSE(diags.has_errors()) << diags.to_string();
  return tokens;
}

TEST(LexerTest, EmptyInputYieldsEof) {
  auto tokens = lex_ok("");
  ASSERT_EQ(tokens.size(), 1u);
  EXPECT_EQ(tokens[0].kind, TokenKind::Eof);
}

TEST(LexerTest, Keywords) {
  auto tokens = lex_ok("class int double bool string void list if else while "
                       "for foreach in return break continue new true false null");
  const TokenKind expected[] = {
      TokenKind::KwClass, TokenKind::KwInt, TokenKind::KwDouble,
      TokenKind::KwBool, TokenKind::KwString, TokenKind::KwVoid,
      TokenKind::KwList, TokenKind::KwIf, TokenKind::KwElse,
      TokenKind::KwWhile, TokenKind::KwFor, TokenKind::KwForeach,
      TokenKind::KwIn, TokenKind::KwReturn, TokenKind::KwBreak,
      TokenKind::KwContinue, TokenKind::KwNew, TokenKind::KwTrue,
      TokenKind::KwFalse, TokenKind::KwNull};
  ASSERT_EQ(tokens.size(), std::size(expected) + 1);
  for (std::size_t i = 0; i < std::size(expected); ++i)
    EXPECT_EQ(tokens[i].kind, expected[i]) << "token " << i;
}

TEST(LexerTest, IntAndDoubleLiterals) {
  auto tokens = lex_ok("42 3.5 0 1234567890");
  ASSERT_EQ(tokens.size(), 5u);
  EXPECT_EQ(tokens[0].kind, TokenKind::IntLiteral);
  EXPECT_EQ(tokens[0].int_value, 42);
  EXPECT_EQ(tokens[1].kind, TokenKind::DoubleLiteral);
  EXPECT_DOUBLE_EQ(tokens[1].double_value, 3.5);
  EXPECT_EQ(tokens[2].int_value, 0);
  EXPECT_EQ(tokens[3].int_value, 1234567890);
}

TEST(LexerTest, IntegerLiteralOutOfRangeIsAnError) {
  auto max = lex_ok("9223372036854775807");
  ASSERT_EQ(max.size(), 2u);
  EXPECT_EQ(max[0].int_value, INT64_MAX);

  DiagnosticSink diags;
  Lexer lexer("x = 99999999999999999999;", diags);
  const auto tokens = lexer.tokenize();
  ASSERT_EQ(diags.all().size(), 1u);
  EXPECT_EQ(diags.to_string(), "error 1:5-1:25: integer literal out of range\n");
  ASSERT_EQ(tokens.size(), 5u);
  EXPECT_EQ(tokens[2].kind, TokenKind::IntLiteral);

  // A double only overflows past 308 digits, but it is reported alike.
  DiagnosticSink double_diags;
  const std::string huge = std::string(400, '9') + ".5";
  Lexer(huge, double_diags).tokenize();
  EXPECT_EQ(double_diags.to_string(),
            "error 1:1-1:403: double literal out of range\n");
}

TEST(LexerTest, KeywordPrefixesAreIdentifiers) {
  // Words that start like a keyword, extend one, or are one letter short of
  // one stay identifiers, with their spelling in `symbol`.
  for (const char* word : {"inx", "into", "forex", "foreachx", "newer", "nul",
                           "classy", "iff", "doubles", "voids", "lists"}) {
    auto tokens = lex_ok(word);
    ASSERT_EQ(tokens.size(), 2u) << word;
    EXPECT_EQ(tokens[0].kind, TokenKind::Identifier) << word;
    EXPECT_EQ(tokens[0].symbol.str(), word);
    EXPECT_EQ(tokens[0].symbol, support::Symbol::intern(word));
  }
}

TEST(LexerTest, DotAfterIntIsMemberAccessNotDouble) {
  // `xs.foo` after an int: `1.Apply` should not lex as a double.
  auto tokens = lex_ok("foo.bar");
  ASSERT_EQ(tokens.size(), 4u);
  EXPECT_EQ(tokens[0].kind, TokenKind::Identifier);
  EXPECT_EQ(tokens[1].kind, TokenKind::Dot);
  EXPECT_EQ(tokens[2].kind, TokenKind::Identifier);
}

TEST(LexerTest, StringLiteralWithEscapes) {
  auto tokens = lex_ok(R"("hello\n\"world\"")");
  ASSERT_GE(tokens.size(), 1u);
  EXPECT_EQ(tokens[0].kind, TokenKind::StringLiteral);
  EXPECT_EQ(tokens[0].text, "hello\n\"world\"");
}

TEST(LexerTest, OperatorsIncludingCompound) {
  auto tokens = lex_ok("+ - * / % += -= *= /= ++ -- < <= > >= == != = && || !");
  const TokenKind expected[] = {
      TokenKind::Plus, TokenKind::Minus, TokenKind::Star, TokenKind::Slash,
      TokenKind::Percent, TokenKind::PlusAssign, TokenKind::MinusAssign,
      TokenKind::StarAssign, TokenKind::SlashAssign, TokenKind::PlusPlus,
      TokenKind::MinusMinus, TokenKind::Less, TokenKind::LessEq,
      TokenKind::Greater, TokenKind::GreaterEq, TokenKind::EqEq,
      TokenKind::NotEq, TokenKind::Assign, TokenKind::AmpAmp,
      TokenKind::PipePipe, TokenKind::Bang};
  ASSERT_EQ(tokens.size(), std::size(expected) + 1);
  for (std::size_t i = 0; i < std::size(expected); ++i)
    EXPECT_EQ(tokens[i].kind, expected[i]) << "token " << i;
}

TEST(LexerTest, LineAndBlockCommentsAreSkipped) {
  auto tokens = lex_ok("a // comment\nb /* block\ncomment */ c");
  ASSERT_EQ(tokens.size(), 4u);
  EXPECT_EQ(tokens[0].symbol.str(), "a");
  EXPECT_EQ(tokens[1].symbol.str(), "b");
  EXPECT_EQ(tokens[2].symbol.str(), "c");
}

TEST(LexerTest, PositionsTrackLinesAndColumns) {
  auto tokens = lex_ok("a\n  bb");
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[0].range.begin.line, 1u);
  EXPECT_EQ(tokens[0].range.begin.column, 1u);
  EXPECT_EQ(tokens[1].range.begin.line, 2u);
  EXPECT_EQ(tokens[1].range.begin.column, 3u);
}

TEST(LexerTest, AnnotationLineCapturesBody) {
  auto tokens = lex_ok("@tadl (A || B) => C\nx");
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[0].kind, TokenKind::AnnotationLine);
  EXPECT_EQ(tokens[0].text, "tadl (A || B) => C");
  EXPECT_EQ(tokens[1].kind, TokenKind::Identifier);
}

TEST(LexerTest, UnterminatedStringIsAnError) {
  DiagnosticSink diags;
  Lexer lexer("\"abc", diags);
  lexer.tokenize();
  EXPECT_TRUE(diags.has_errors());
}

TEST(LexerTest, UnterminatedBlockCommentIsAnError) {
  DiagnosticSink diags;
  Lexer lexer("/* never closed", diags);
  lexer.tokenize();
  EXPECT_TRUE(diags.has_errors());
}

TEST(LexerTest, UnknownCharacterIsAnError) {
  DiagnosticSink diags;
  Lexer lexer("a $ b", diags);
  lexer.tokenize();
  EXPECT_TRUE(diags.has_errors());
}

TEST(LexerTest, SingleAmpersandIsAnError) {
  DiagnosticSink diags;
  Lexer lexer("a & b", diags);
  lexer.tokenize();
  EXPECT_TRUE(diags.has_errors());
}

}  // namespace
}  // namespace patty::lang
