// Minimal reader for flat one-object-per-line NDJSON schemas — objects
// whose values are only numbers and strings, no nesting. This is the
// shared grammar of the repo's line-oriented logs: the causal event
// journal (obs/journal.hpp, consumed by analyze.cpp) and the serve
// front-end's request replay logs (apps/serve.hpp).
//
// The parser is deliberately schema-free: parse_object() walks the keys
// and hands each one to a caller callback positioned at the value, so
// every consumer keeps its own field mapping (and its own
// forward-compatibility rule for unknown keys) while sharing the
// tokenizer, the escape handling and the error reporting. Errors throw
// std::runtime_error as "<context> parse error at line N: <what>" —
// `context` names the log kind ("journal", "request"), so the journal
// analyzer's historical error bytes are preserved exactly. Whitespace is
// JSON's (RFC 8259: space, tab, LF, CR), and for_each_line() ends a line
// at "\n" or "\r\n", so a CRLF log reads as its LF twin.
#pragma once

#include <charconv>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>
#include <utility>

namespace redcr::obs {

/// Calls `f(line, lineno)` for each non-empty line of `text`, as a view
/// into it. A line ends at '\n', and a '\r' before it (a CRLF line end)
/// is dropped; `lineno` is 1-based and counts the empty lines too.
template <class F>
void for_each_line(std::string_view text, F&& f) {
  std::size_t lineno = 0;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t end = text.find('\n', pos);
    if (end == std::string_view::npos) end = text.size();
    ++lineno;
    std::string_view line = text.substr(pos, end - pos);
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (!line.empty()) f(line, lineno);
    pos = end + 1;
  }
}

class FlatLineParser {
 public:
  /// `line` must outlive the parser (it is viewed, not copied); `lineno`
  /// is 1-based and only used in error messages.
  FlatLineParser(std::string_view line, std::size_t lineno,
                 const char* context)
      : s_(line), lineno_(lineno), context_(context) {}

  /// Parses one `{"key": value, ...}` object spanning the whole line.
  /// For each key, `apply(key)` is invoked with the parser positioned at
  /// the value; the callback must consume it via parse_string() or
  /// parse_number(). `key` is the parser's one decoded-key buffer, valid
  /// until the callback returns. Trailing bytes after the object are an
  /// error.
  template <class Apply>
  void parse_object(Apply&& apply) {
    expect('{');
    bool first = true;
    while (true) {
      skip_ws();
      if (peek() == '}') {
        ++pos_;
        break;
      }
      if (!first) {
        expect(',');
        skip_ws();
      }
      first = false;
      read_string(key_);
      skip_ws();
      expect(':');
      skip_ws();
      apply(std::as_const(key_));
    }
    skip_ws();
    if (pos_ != s_.size()) fail("trailing bytes after object");
  }

  std::string parse_string() {
    std::string out;
    read_string(out);
    return out;
  }

  /// Reads one JSON number: an optional '-', an integer part without
  /// leading zeros, an optional fraction and an optional exponent. Bare
  /// strtod would also take nan, inf, hex and a leading '+' or '.'; those,
  /// and a number running straight into more number-like bytes ("01",
  /// "0x10", "1.5.2"), fail with "expected a number".
  double parse_number() {
    std::size_t end = pos_;
    const auto digits = [&] {  // one or more
      if (!is_digit(at(end))) fail("expected a number");
      while (is_digit(at(end))) ++end;
    };
    if (at(end) == '-') ++end;
    if (at(end) == '0') {
      ++end;
    } else {
      digits();
    }
    if (at(end) == '.') {
      ++end;
      digits();
    }
    if (at(end) == 'e' || at(end) == 'E') {
      ++end;
      if (at(end) == '+' || at(end) == '-') ++end;
      digits();
    }
    const char next = at(end);
    if (is_digit(next) || next == '.' || next == '+' || next == '-' ||
        (next >= 'a' && next <= 'z') || (next >= 'A' && next <= 'Z'))
      fail("expected a number");
    // [pos_, end) is a JSON numeral, which from_chars reads as strtod
    // does. Out of range it leaves `v` untouched, where strtod gives the
    // +-inf (overflow) and +-0 (underflow) that callers' domain checks
    // rely on. The view need not be NUL-terminated, so strtod reads a
    // terminated copy.
    const char* first = s_.data() + pos_;
    double v = 0.0;
    if (std::from_chars(first, s_.data() + end, v).ec ==
        std::errc::result_out_of_range)
      v = std::strtod(std::string(first, end - pos_).c_str(), nullptr);
    numeral_ = std::string_view(first, end - pos_);
    pos_ = end;
    return v;
  }

  /// The last number parse_number() read, spelled as the line spells it
  /// (an error message echoes what was sent, not what it rounded to).
  [[nodiscard]] std::string_view numeral() const noexcept { return numeral_; }

  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error(std::string(context_) + " parse error at line " +
                             std::to_string(lineno_) + ": " + what);
  }

 private:
  /// Reads one JSON string into `out`, replacing its contents.
  void read_string(std::string& out) {
    expect('"');
    out.clear();
    while (true) {
      // Copy the run up to the next quote or escape in one append.
      std::size_t run = pos_;
      while (run < s_.size() && s_[run] != '"' && s_[run] != '\\') ++run;
      out.append(s_.data() + pos_, run - pos_);
      pos_ = run;
      if (at(pos_) != '\\') break;
      if (++pos_ >= s_.size()) fail("dangling escape");
      const char e = s_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case 'n': out += '\n'; break;
        case 't': out += '\t'; break;
        case 'r': out += '\r'; break;
        case 'u': {
          // Exactly four hex digits naming an ASCII code: the emitters
          // escape only control bytes (< 0x20), and a wider code point
          // has no one-byte spelling to read back as.
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const int digit = hex_digit(at(pos_));
            if (digit < 0) fail("\\u escape needs four hex digits");
            code = code * 16 + static_cast<unsigned>(digit);
            ++pos_;
          }
          if (code >= 0x80) fail("\\u escape beyond ASCII");
          out += static_cast<char>(code);
          break;
        }
        default: fail("unknown escape"); break;
      }
    }
    expect('"');
  }

  [[nodiscard]] char peek() const { return at(pos_); }
  [[nodiscard]] char at(std::size_t i) const {
    return i < s_.size() ? s_[i] : '\0';
  }
  static bool is_digit(char c) noexcept { return c >= '0' && c <= '9'; }
  /// The value of hex digit `c`, or -1.
  static int hex_digit(char c) noexcept {
    if (is_digit(c)) return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    return -1;
  }

  void skip_ws() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\t' ||
                                s_[pos_] == '\r' || s_[pos_] == '\n'))
      ++pos_;
  }

  void expect(char c) {
    if (peek() != c)
      fail(std::string("expected '") + c + "', got '" + peek() + "'");
    ++pos_;
  }

  std::string_view s_;
  std::size_t lineno_;
  const char* context_;
  std::size_t pos_ = 0;
  std::string_view numeral_;
  std::string key_;  // parse_object's decoded key, reused across keys
};

}  // namespace redcr::obs
