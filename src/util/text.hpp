// Number-to-text helpers for messages.
#pragma once

#include <charconv>
#include <string>

namespace redcr::util {

/// The shortest text that reads back as `value` ("-1e-09", "1.0000001",
/// "nan"), so a rejection shows the value as sent, however small or close
/// to a bound. std::to_string's fixed six decimals would print -1e-9 as
/// "-0.000000".
inline std::string shortest(double value) {
  char buf[32];
  const std::to_chars_result r = std::to_chars(buf, buf + sizeof buf, value);
  return std::string(buf, r.ptr);
}

}  // namespace redcr::util
