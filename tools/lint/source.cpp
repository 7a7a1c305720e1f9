/// \file source.cpp
/// \brief Single-pass lexer producing blanked lines + the token stream.

#include "lint/source.hpp"

#include <cctype>
#include <regex>

#include "util/error.hpp"
#include "util/text_file.hpp"

namespace photherm::lint {

namespace {

using photherm::Error;

bool ident_start(char c) { return std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_'; }
bool ident_char(char c) { return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_'; }
bool digit(char c) { return std::isdigit(static_cast<unsigned char>(c)) != 0; }

/// Encoding prefixes that may precede a string or char literal. The raw
/// forms (anything ending in R directly before `"`) were the known
/// false-positive source in the PR 7 blanker, which only recognized a bare
/// `R"`.
bool raw_string_prefix(const std::string& id) {
  return id == "R" || id == "LR" || id == "uR" || id == "UR" || id == "u8R";
}
bool string_prefix(const std::string& id) {
  return id == "L" || id == "u" || id == "U" || id == "u8";
}

/// Multi-character punctuators, longest first so the match is maximal.
/// `>>` stays one token (the cross-line matchers treat it as two closing
/// angles); `::`, `->` and the compound assignments matter to the rules.
const char* const kPuncts[] = {
    "<<=", ">>=", "...", "->*", "::", "->", "++", "--", "<<", ">>", "<=", ">=",
    "==",  "!=",  "&&",  "||",  "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
};

/// Extract `ph-lint: allow(a,b)` rule names from a raw line.
std::set<std::string> parse_inline_allows(const std::string& raw) {
  static const std::regex marker(R"(ph-lint:\s*allow\(([^)]*)\))");
  std::set<std::string> rules;
  std::smatch m;
  if (std::regex_search(raw, m, marker)) {
    for (const std::string& rule : split(m[1].str(), ',')) {
      if (!trim_view(rule).empty()) {
        rules.insert(trim(rule));
      }
    }
  }
  return rules;
}

/// `#\s*include\s*["<]path[">]` on the raw line.
const std::regex kIncludeRe(R"(^\s*#\s*include\s*(["<])([^">]+)[">])");

}  // namespace

SourceFile parse_source(const std::string& content, const std::string& report_path) {
  SourceFile file;
  file.path = report_path;

  // Split into raw lines (a trailing newline does not create an empty line).
  std::vector<std::string> raws;
  {
    std::size_t start = 0;
    while (start <= content.size()) {
      const std::size_t nl = content.find('\n', start);
      if (nl == std::string::npos) {
        if (start < content.size()) {
          raws.push_back(content.substr(start));
        }
        break;
      }
      std::string line = content.substr(start, nl - start);
      if (!line.empty() && line.back() == '\r') {
        line.pop_back();
      }
      raws.push_back(std::move(line));
      start = nl + 1;
    }
  }

  enum class State { kCode, kLineComment, kBlockComment, kString, kChar, kRawString };
  State state = State::kCode;
  std::string raw_delim;          // for raw strings: the )delim" terminator
  std::string pending;            // body of the literal being lexed
  std::size_t pending_line = 0;   // 1-based line where the literal started
  bool pending_is_char = false;

  for (std::size_t li = 0; li < raws.size(); ++li) {
    const std::string& raw = raws[li];
    const std::size_t line_no = li + 1;
    SourceLine line;
    line.raw = raw;
    line.inline_allows = parse_inline_allows(raw);
    std::string code(raw.size(), ' ');
    bool suppress_tokens = false;

    // A `//` comment continued by a trailing backslash swallows this whole
    // line too (and possibly the next).
    if (state == State::kLineComment) {
      if (raw.empty() || raw.back() != '\\') {
        state = State::kCode;
      }
      line.code = std::move(code);
      file.lines.push_back(std::move(line));
      continue;
    }

    // Include directives are recorded, blanked normally, and emit no
    // tokens, so paths like "thermal/fvm.hpp" never enter the token
    // stream as identifiers.
    if (state == State::kCode) {
      std::smatch m;
      if (std::regex_search(raw, m, kIncludeRe)) {
        file.includes.push_back({m[2].str(), line_no, m[1].str() == "<"});
        suppress_tokens = true;
      }
    }

    const auto emit = [&](Token::Kind kind, std::string text, std::size_t at_line) {
      if (!suppress_tokens) {
        file.tokens.push_back({kind, std::move(text), at_line});
      }
    };

    for (std::size_t i = 0; i < raw.size(); ++i) {
      const char c = raw[i];
      const char next = i + 1 < raw.size() ? raw[i + 1] : '\0';
      switch (state) {
        case State::kCode: {
          if (c == '/' && next == '/') {
            if (!raw.empty() && raw.back() == '\\') {
              state = State::kLineComment;  // continued onto the next line
            }
            i = raw.size();  // rest of line is comment
          } else if (c == '/' && next == '*') {
            state = State::kBlockComment;
            ++i;
          } else if (ident_start(c)) {
            std::size_t j = i;
            while (j < raw.size() && ident_char(raw[j])) {
              ++j;
            }
            const std::string id = raw.substr(i, j - i);
            for (std::size_t k = i; k < j; ++k) {
              code[k] = raw[k];
            }
            const char after = j < raw.size() ? raw[j] : '\0';
            if (after == '"' && raw_string_prefix(id)) {
              // Raw string: find the opening paren; the delimiter is
              // everything between the quote and it.
              const std::size_t open = raw.find('(', j + 1);
              if (open != std::string::npos) {
                raw_delim = ')' + raw.substr(j + 1, open - j - 1) + '"';
                state = State::kRawString;
                pending.clear();
                pending_line = line_no;
                pending_is_char = false;
                i = open;  // blanked from the quote through the open paren
                break;     // switch
              }
              // Malformed raw string (no paren on the line): fall through
              // as an identifier; the quote starts an ordinary string.
              emit(Token::Kind::kIdentifier, id, line_no);
              i = j - 1;
            } else if (after == '"' && (string_prefix(id) || raw_string_prefix(id))) {
              state = State::kString;
              pending.clear();
              pending_line = line_no;
              pending_is_char = false;
              code[j] = '"';
              i = j;  // consume through the opening quote
            } else if (after == '\'' && string_prefix(id)) {
              state = State::kChar;
              pending.clear();
              pending_line = line_no;
              pending_is_char = true;
              code[j] = '\'';
              i = j;
            } else {
              emit(Token::Kind::kIdentifier, id, line_no);
              i = j - 1;
            }
          } else if (digit(c) || (c == '.' && digit(next))) {
            // Numbers, including hex, exponents, and digit separators
            // (1'000) — scanned greedily so the `'` can never open a char
            // literal state.
            std::size_t j = i;
            while (j < raw.size()) {
              const char n = raw[j];
              if (ident_char(n) || n == '.') {
                ++j;
              } else if (n == '\'' && j + 1 < raw.size() && ident_char(raw[j + 1])) {
                ++j;
              } else if ((n == '+' || n == '-') && j > i &&
                         (raw[j - 1] == 'e' || raw[j - 1] == 'E' || raw[j - 1] == 'p' ||
                          raw[j - 1] == 'P')) {
                ++j;
              } else {
                break;
              }
            }
            for (std::size_t k = i; k < j; ++k) {
              code[k] = raw[k];
            }
            emit(Token::Kind::kNumber, raw.substr(i, j - i), line_no);
            i = j - 1;
          } else if (c == '"') {
            state = State::kString;
            pending.clear();
            pending_line = line_no;
            pending_is_char = false;
            code[i] = '"';
          } else if (c == '\'') {
            state = State::kChar;
            pending.clear();
            pending_line = line_no;
            pending_is_char = true;
            code[i] = '\'';
          } else if (std::isspace(static_cast<unsigned char>(c)) != 0) {
            // stays a space in `code`
          } else if (c == '\\') {
            // Preprocessor line splice in code: no token, stays blank.
          } else {
            // Punctuation: longest multi-char match first.
            std::string punct(1, c);
            for (const char* p : kPuncts) {
              const std::size_t len = std::char_traits<char>::length(p);
              if (raw.compare(i, len, p) == 0) {
                punct = p;
                break;
              }
            }
            for (std::size_t k = 0; k < punct.size(); ++k) {
              code[i + k] = raw[i + k];
            }
            emit(Token::Kind::kPunct, punct, line_no);
            i += punct.size() - 1;
          }
          break;
        }
        case State::kBlockComment:
          if (c == '*' && next == '/') {
            state = State::kCode;
            ++i;
          }
          break;
        case State::kString:
        case State::kChar: {
          const char quote = state == State::kString ? '"' : '\'';
          if (c == '\\') {
            if (i + 1 >= raw.size()) {
              // Backslash-newline: the literal continues on the next line.
              // (Leave the state as is; the splice consumes the newline.)
            } else {
              if (!pending_is_char) {
                line.literals += raw.substr(i, 2);
              }
              pending += raw.substr(i, 2);
              ++i;
            }
          } else if (c == quote) {
            code[i] = quote;
            emit(pending_is_char ? Token::Kind::kChar : Token::Kind::kString, pending,
                 pending_line);
            pending.clear();
            if (!pending_is_char) {
              line.literals += '\n';
            }
            state = State::kCode;
          } else {
            if (!pending_is_char) {
              line.literals += c;
            }
            pending += c;
          }
          break;
        }
        case State::kRawString:
          if (raw.compare(i, raw_delim.size(), raw_delim) == 0) {
            state = State::kCode;
            i += raw_delim.size() - 1;
            code[i] = '"';
            emit(Token::Kind::kString, pending, pending_line);
            pending.clear();
            line.literals += '\n';
          } else {
            line.literals += c;
            pending += c;
          }
          break;
        case State::kLineComment:
          break;  // unreachable: handled before the column loop
      }
      if (state == State::kRawString && i >= raw.size()) {
        break;
      }
    }
    // Only raw strings (and backslash-spliced literals) span lines; an
    // unterminated ordinary literal resets so one typo cannot blank the
    // rest of the file.
    if ((state == State::kString || state == State::kChar) &&
        (raw.empty() || raw.back() != '\\')) {
      emit(pending_is_char ? Token::Kind::kChar : Token::Kind::kString, pending, pending_line);
      pending.clear();
      state = State::kCode;
    }
    if (state == State::kRawString) {
      pending += '\n';  // raw-string newlines are part of the body; splices are not
    }
    line.code = std::move(code);
    file.lines.push_back(std::move(line));
  }

  // A marker on a pure-comment line covers the next line, so long lines can
  // carry `// ph-lint: allow(rule) why` on the line above.
  for (std::size_t i = 0; i + 1 < file.lines.size(); ++i) {
    const SourceLine& line = file.lines[i];
    if (!line.inline_allows.empty() &&
        line.code.find_first_not_of(" \t") == std::string::npos) {
      file.lines[i + 1].inline_allows.insert(line.inline_allows.begin(),
                                             line.inline_allows.end());
    }
  }
  return file;
}

SourceFile load_source(const std::string& disk_path, const std::string& report_path) {
  return parse_source(read_text_file(disk_path, "source file"), report_path);
}

}  // namespace photherm::lint
