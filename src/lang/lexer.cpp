#include "lang/lexer.hpp"

#include <charconv>

namespace patty::lang {

namespace {

// ASCII classes, inline: <cctype>'s are calls that read the locale's table.
bool is_digit(char c) { return c >= '0' && c <= '9'; }
bool is_word_start(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
}

/// The keyword `word` spells, or Identifier. The first letter leaves at
/// most three spellings to compare, so recognising a keyword hashes nothing.
TokenKind keyword_kind(std::string_view word) {
  using K = TokenKind;
  using Keywords = std::initializer_list<std::pair<std::string_view, K>>;
  const auto pick = [word](Keywords keywords) {
    for (const auto& [text, kind] : keywords)
      if (word == text) return kind;
    return K::Identifier;
  };
  switch (word[0]) {
    case 'b': return pick({{"bool", K::KwBool}, {"break", K::KwBreak}});
    case 'c': return pick({{"class", K::KwClass}, {"continue", K::KwContinue}});
    case 'd': return pick({{"double", K::KwDouble}});
    case 'e': return pick({{"else", K::KwElse}});
    case 'f':
      return pick(
          {{"for", K::KwFor}, {"foreach", K::KwForeach}, {"false", K::KwFalse}});
    case 'i': return pick({{"if", K::KwIf}, {"in", K::KwIn}, {"int", K::KwInt}});
    case 'l': return pick({{"list", K::KwList}});
    case 'n': return pick({{"new", K::KwNew}, {"null", K::KwNull}});
    case 'r': return pick({{"return", K::KwReturn}});
    case 's': return pick({{"string", K::KwString}});
    case 't': return pick({{"true", K::KwTrue}});
    case 'v': return pick({{"void", K::KwVoid}});
    case 'w': return pick({{"while", K::KwWhile}});
    default: return K::Identifier;
  }
}

}  // namespace

const char* token_kind_name(TokenKind kind) {
  switch (kind) {
    case TokenKind::Identifier: return "identifier";
    case TokenKind::IntLiteral: return "integer literal";
    case TokenKind::DoubleLiteral: return "double literal";
    case TokenKind::StringLiteral: return "string literal";
    case TokenKind::KwClass: return "'class'";
    case TokenKind::KwInt: return "'int'";
    case TokenKind::KwDouble: return "'double'";
    case TokenKind::KwBool: return "'bool'";
    case TokenKind::KwString: return "'string'";
    case TokenKind::KwVoid: return "'void'";
    case TokenKind::KwList: return "'list'";
    case TokenKind::KwIf: return "'if'";
    case TokenKind::KwElse: return "'else'";
    case TokenKind::KwWhile: return "'while'";
    case TokenKind::KwFor: return "'for'";
    case TokenKind::KwForeach: return "'foreach'";
    case TokenKind::KwIn: return "'in'";
    case TokenKind::KwReturn: return "'return'";
    case TokenKind::KwBreak: return "'break'";
    case TokenKind::KwContinue: return "'continue'";
    case TokenKind::KwNew: return "'new'";
    case TokenKind::KwTrue: return "'true'";
    case TokenKind::KwFalse: return "'false'";
    case TokenKind::KwNull: return "'null'";
    case TokenKind::LParen: return "'('";
    case TokenKind::RParen: return "')'";
    case TokenKind::LBrace: return "'{'";
    case TokenKind::RBrace: return "'}'";
    case TokenKind::LBracket: return "'['";
    case TokenKind::RBracket: return "']'";
    case TokenKind::Comma: return "','";
    case TokenKind::Semicolon: return "';'";
    case TokenKind::Dot: return "'.'";
    case TokenKind::Less: return "'<'";
    case TokenKind::LessEq: return "'<='";
    case TokenKind::Greater: return "'>'";
    case TokenKind::GreaterEq: return "'>='";
    case TokenKind::EqEq: return "'=='";
    case TokenKind::NotEq: return "'!='";
    case TokenKind::Assign: return "'='";
    case TokenKind::Plus: return "'+'";
    case TokenKind::Minus: return "'-'";
    case TokenKind::Star: return "'*'";
    case TokenKind::Slash: return "'/'";
    case TokenKind::Percent: return "'%'";
    case TokenKind::PlusAssign: return "'+='";
    case TokenKind::MinusAssign: return "'-='";
    case TokenKind::StarAssign: return "'*='";
    case TokenKind::SlashAssign: return "'/='";
    case TokenKind::PlusPlus: return "'++'";
    case TokenKind::MinusMinus: return "'--'";
    case TokenKind::AmpAmp: return "'&&'";
    case TokenKind::PipePipe: return "'||'";
    case TokenKind::Bang: return "'!'";
    case TokenKind::AnnotationLine: return "annotation";
    case TokenKind::Eof: return "end of input";
  }
  return "?";
}

Lexer::Lexer(std::string_view source, DiagnosticSink& diags)
    : source_(source), diags_(diags) {}

char Lexer::peek(std::size_t ahead) const {
  return pos_ + ahead < source_.size() ? source_[pos_ + ahead] : '\0';
}

char Lexer::advance() {
  const char c = source_[pos_++];
  if (c == '\n') {
    ++line_;
    column_ = 1;
  } else {
    ++column_;
  }
  return c;
}

bool Lexer::match(char expected) {
  if (at_end() || source_[pos_] != expected) return false;
  advance();
  return true;
}

Token Lexer::make(TokenKind kind, SourcePos begin, std::string text) {
  Token t;
  t.kind = kind;
  t.text = std::move(text);
  t.range = {begin, here()};
  return t;
}

void Lexer::skip_line_comment() {
  while (!at_end() && peek() != '\n') advance();
}

void Lexer::skip_block_comment(SourcePos begin) {
  while (!at_end()) {
    if (peek() == '*' && peek(1) == '/') {
      advance();
      advance();
      return;
    }
    advance();
  }
  diags_.error({begin, here()}, "unterminated block comment");
}

Token Lexer::lex_number(SourcePos begin) {
  const std::size_t start = pos_;
  bool is_double = false;
  while (is_digit(peek())) advance();
  if (peek() == '.' && is_digit(peek(1))) {
    is_double = true;
    advance();
    while (is_digit(peek())) advance();
  }
  Token t = make(is_double ? TokenKind::DoubleLiteral : TokenKind::IntLiteral,
                 begin);
  // Convert the source slice in place; unlike strtoll, from_chars reports
  // a literal that does not fit instead of saturating it.
  const char* first = source_.data() + start;
  const char* last = source_.data() + pos_;
  const std::errc ec = is_double
                           ? std::from_chars(first, last, t.double_value).ec
                           : std::from_chars(first, last, t.int_value).ec;
  if (ec != std::errc())
    diags_.error(t.range,
                 std::string(token_kind_name(t.kind)) + " out of range");
  return t;
}

Token Lexer::lex_identifier(SourcePos begin) {
  // Slice the source instead of building the spelling char-by-char: the
  // identifier is source_[start, pos_) once we advance past its tail.
  const std::size_t start = pos_;
  while (is_word_start(peek()) || is_digit(peek())) advance();
  const std::string_view name = source_.substr(start, pos_ - start);
  // Neither keywords nor identifiers carry text: the parser reads a
  // keyword's kind and an identifier's symbol.
  const TokenKind keyword = keyword_kind(name);
  if (keyword != TokenKind::Identifier) return make(keyword, begin);
  // Intern identifiers once during lexing; every later name lookup (parser,
  // sema, effects, detector) compares 32-bit symbol ids instead of strings.
  Token t = make(TokenKind::Identifier, begin);
  t.symbol = support::Symbol::intern(name);
  return t;
}

Token Lexer::lex_string(SourcePos begin) {
  std::string value;
  while (!at_end() && peek() != '"') {
    char c = advance();
    if (c == '\\' && !at_end()) {
      const char esc = advance();
      switch (esc) {
        case 'n': value += '\n'; break;
        case 't': value += '\t'; break;
        case '"': value += '"'; break;
        case '\\': value += '\\'; break;
        default:
          diags_.error({begin, here()},
                       std::string("unknown escape sequence \\") + esc);
      }
    } else {
      value += c;
    }
  }
  if (at_end()) {
    diags_.error({begin, here()}, "unterminated string literal");
  } else {
    advance();  // closing quote
  }
  return make(TokenKind::StringLiteral, begin, std::move(value));
}

Token Lexer::lex_annotation(SourcePos begin) {
  // `@` introduces an annotation line: everything until end of line is the
  // annotation body (`tadl ...` or `end`). This mirrors the paper's use of
  // preprocessor regions: visible to TADL-aware tools, inert otherwise.
  std::string body;
  while (!at_end() && peek() != '\n') body += advance();
  // Trim trailing carriage return / spaces.
  while (!body.empty() && (body.back() == '\r' || body.back() == ' '))
    body.pop_back();
  return make(TokenKind::AnnotationLine, begin, std::move(body));
}

std::vector<Token> Lexer::tokenize() {
  // Sized once: real programs spend two or more source bytes per token.
  std::vector<Token> tokens;
  tokens.reserve(source_.size() / 2 + 1);
  while (!at_end()) {
    const SourcePos begin = here();
    const char c = peek();
    if (c == ' ' || c == '\t' || c == '\r' || c == '\n') {
      advance();
      continue;
    }
    if (c == '/' && peek(1) == '/') {
      skip_line_comment();
      continue;
    }
    if (c == '/' && peek(1) == '*') {
      advance();
      advance();
      skip_block_comment(begin);
      continue;
    }
    if (is_digit(c)) {
      tokens.push_back(lex_number(begin));
      continue;
    }
    if (is_word_start(c)) {
      tokens.push_back(lex_identifier(begin));
      continue;
    }
    advance();
    switch (c) {
      case '"': tokens.push_back(lex_string(begin)); break;
      case '@': tokens.push_back(lex_annotation(begin)); break;
      case '(': tokens.push_back(make(TokenKind::LParen, begin)); break;
      case ')': tokens.push_back(make(TokenKind::RParen, begin)); break;
      case '{': tokens.push_back(make(TokenKind::LBrace, begin)); break;
      case '}': tokens.push_back(make(TokenKind::RBrace, begin)); break;
      case '[': tokens.push_back(make(TokenKind::LBracket, begin)); break;
      case ']': tokens.push_back(make(TokenKind::RBracket, begin)); break;
      case ',': tokens.push_back(make(TokenKind::Comma, begin)); break;
      case ';': tokens.push_back(make(TokenKind::Semicolon, begin)); break;
      case '.': tokens.push_back(make(TokenKind::Dot, begin)); break;
      case '<':
        tokens.push_back(make(match('=') ? TokenKind::LessEq : TokenKind::Less, begin));
        break;
      case '>':
        tokens.push_back(
            make(match('=') ? TokenKind::GreaterEq : TokenKind::Greater, begin));
        break;
      case '=':
        tokens.push_back(make(match('=') ? TokenKind::EqEq : TokenKind::Assign, begin));
        break;
      case '!':
        tokens.push_back(make(match('=') ? TokenKind::NotEq : TokenKind::Bang, begin));
        break;
      case '+':
        if (match('=')) tokens.push_back(make(TokenKind::PlusAssign, begin));
        else if (match('+')) tokens.push_back(make(TokenKind::PlusPlus, begin));
        else tokens.push_back(make(TokenKind::Plus, begin));
        break;
      case '-':
        if (match('=')) tokens.push_back(make(TokenKind::MinusAssign, begin));
        else if (match('-')) tokens.push_back(make(TokenKind::MinusMinus, begin));
        else tokens.push_back(make(TokenKind::Minus, begin));
        break;
      case '*':
        tokens.push_back(make(match('=') ? TokenKind::StarAssign : TokenKind::Star, begin));
        break;
      case '/':
        tokens.push_back(make(match('=') ? TokenKind::SlashAssign : TokenKind::Slash, begin));
        break;
      case '%': tokens.push_back(make(TokenKind::Percent, begin)); break;
      case '&':
        if (match('&')) {
          tokens.push_back(make(TokenKind::AmpAmp, begin));
        } else {
          diags_.error({begin, here()}, "expected '&&'");
        }
        break;
      case '|':
        if (match('|')) {
          tokens.push_back(make(TokenKind::PipePipe, begin));
        } else {
          diags_.error({begin, here()}, "expected '||'");
        }
        break;
      default:
        diags_.error({begin, here()},
                     std::string("unexpected character '") + c + "'");
    }
  }
  Token eof;
  eof.kind = TokenKind::Eof;
  eof.range = {here(), here()};
  tokens.push_back(eof);
  return tokens;
}

}  // namespace patty::lang
