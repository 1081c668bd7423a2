// Minimal deterministic JSON emission helpers shared by the obs sinks.
//
// Determinism contract: the same sequence of append calls produces the same
// bytes on every platform and at every --jobs level. Numbers are therefore
// rendered with a fixed rule, specified as C-locale printf formats:
// integral values (the overwhelmingly common case for counters and event
// ids) print as %.0f, without a fraction; everything else prints as %.17g,
// 17 significant digits, enough to round-trip any double. std::to_chars
// implements both formats (the standard defines its precision forms by
// printf's), so the bytes are printf's without its format parsing or
// locale lookup.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdio>
#include <string>
#include <string_view>

namespace redcr::obs::json {

/// Appends a JSON number. NaN/Inf are not valid JSON; they render as null.
inline void append_number(std::string& out, double value) {
  if (!std::isfinite(value)) {
    out += "null";
    return;
  }
  char buf[32];
  // 2^53: largest magnitude at which every integer is exactly representable.
  const bool integral =
      value == std::floor(value) && std::fabs(value) < 9.007199254740992e15;
  // %.0f or %.17g; at most 24 bytes ("-1.2345678901234567e-308").
  const std::to_chars_result r =
      integral ? std::to_chars(buf, buf + sizeof buf, value,
                               std::chars_format::fixed, 0)
               : std::to_chars(buf, buf + sizeof buf, value,
                               std::chars_format::general, 17);
  out.append(buf, r.ptr);
}

/// Appends a quoted, escaped JSON string.
inline void append_string(std::string& out, std::string_view text) {
  out += '"';
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

}  // namespace redcr::obs::json
