// Minimal deterministic JSON emission helpers shared by the obs sinks.
//
// Determinism contract: the same sequence of append calls produces the same
// bytes on every platform and at every --jobs level. Numbers are therefore
// rendered with a fixed rule, specified as C-locale printf formats:
// integral values (the overwhelmingly common case for counters and event
// ids) print as %.0f, without a fraction; everything else prints as %.17g,
// 17 significant digits, enough to round-trip any double. append_number
// writes those bytes itself (DESIGN.md §11): integral values as integers,
// and the 17 digits of every other double whose scaled value fits 128 bits
// from exact integer arithmetic. The rest, magnitudes below about 1e-6 or
// from 2^127 up, go through std::to_chars, which the standard defines by
// the same printf format.
#pragma once

#include <bit>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <string_view>

namespace redcr::obs::json {

namespace detail {

__extension__ using uint128 = unsigned __int128;

/// 10^0 .. 10^22: the scale factors the exact %.17g path multiplies or
/// divides by (10^22 < 2^74, so m * 10^22 < 2^127 for a 53-bit m).
inline constexpr int kMaxPow10 = 22;
inline constexpr auto kPow10 = [] {
  struct Table {
    uint128 v[kMaxPow10 + 1];
  } t{};
  uint128 p = 1;
  for (int i = 0; i <= kMaxPow10; ++i, p *= 10) t.v[i] = p;
  return t;
}();

/// "00" "01" ... "99".
inline constexpr auto kDigitPairs = [] {
  struct Table {
    char v[200];
  } t{};
  for (int i = 0; i < 100; ++i) {
    t.v[2 * i] = static_cast<char>('0' + i / 10);
    t.v[2 * i + 1] = static_cast<char>('0' + i % 10);
  }
  return t;
}();

/// Writes `v` < 10^8 as exactly eight digits.
inline void write_8_digits(char* out, std::uint32_t v) {
  const std::uint32_t high = v / 10000;
  const std::uint32_t low = v % 10000;
  std::memcpy(out, kDigitPairs.v + 2 * (high / 100), 2);
  std::memcpy(out + 2, kDigitPairs.v + 2 * (high % 100), 2);
  std::memcpy(out + 4, kDigitPairs.v + 2 * (low / 100), 2);
  std::memcpy(out + 6, kDigitPairs.v + 2 * (low % 100), 2);
}

/// Writes `value` (finite, not integral below 2^53) as printf's "%.17g"
/// into `out`, which has room for 40 bytes; returns the end (at most 24
/// bytes on).
///
/// value = m * 2^e with a 53-bit m. Scaled by 10^k, k = 16 - exp10, where
/// exp10 (from the binary exponent) is floor(log10 |value|) or one less,
/// its integer part q has 17 or 18 digits: q = floor(m * 10^k / 2^-e), or
/// floor((m << e) / 10^-k) at e >= 0. The remainder is exact, so the
/// last digit rounds half-to-even on the true value, as glibc's printf
/// and std::to_chars do. When m * 10^k or m << e would not fit 128 bits
/// (subnormals, |value| below about 1e-6 or from 2^127 up), to_chars
/// writes the bytes instead.
inline char* write_g17(char* out, double value) {
  const auto bits = std::bit_cast<std::uint64_t>(value);
  const int biased = static_cast<int>(bits >> 52) & 0x7ff;
  const std::uint64_t m = (bits & ((std::uint64_t{1} << 52) - 1)) |
                          (std::uint64_t{1} << 52);
  const int e = biased - 1075;
  // floor((e + 52) * log10(2)), exact for |e + 52| < 1100.
  int exp10 = ((e + 52) * 78913) >> 18;
  const int k = 16 - exp10;
  if (biased == 0 || k > kMaxPow10 || e > 74)
    return std::to_chars(out, out + 24, value, std::chars_format::general, 17)
        .ptr;

  std::uint64_t q = 0;
  int above_half = -1;  // the discarded part vs half an ulp of q: -1, 0, 1
  bool inexact = false;  // anything at all was discarded
  if (e < 0) {  // k >= 1: q = floor(m * 10^k / 2^s)
    const int s = -e;
    const uint128 n = static_cast<uint128>(m) * kPow10.v[k];
    const uint128 rem = n & ((uint128{1} << s) - 1);
    const uint128 half = uint128{1} << (s - 1);
    q = static_cast<std::uint64_t>(n >> s);
    above_half = rem > half ? 1 : rem < half ? -1 : 0;
    inexact = rem != 0;
  } else {  // an integer from 2^53 up
    const uint128 n = static_cast<uint128>(m) << e;
    if (k >= 0) {
      q = static_cast<std::uint64_t>(n * kPow10.v[k]);  // exact
    } else {
      const uint128 d = kPow10.v[-k];
      const uint128 rem = n % d;
      q = static_cast<std::uint64_t>(n / d);
      above_half = 2 * rem > d ? 1 : 2 * rem < d ? -1 : 0;
      inexact = rem != 0;
    }
  }
  constexpr std::uint64_t k1e16 = 10000000000000000ull;
  constexpr std::uint64_t k1e17 = 100000000000000000ull;
  if (q >= k1e17) {  // exp10 was one low: drop one more digit
    const auto digit = static_cast<int>(q % 10);
    q /= 10;
    ++exp10;
    above_half = digit > 5 ? 1 : digit < 5 ? -1 : inexact ? 1 : 0;
  }
  if (above_half > 0 || (above_half == 0 && (q & 1) != 0)) ++q;
  if (q == k1e17) {
    q = k1e16;
    ++exp10;
  }

  // The 17 digits, then padding: every copy below is a fixed 16 or 17
  // bytes, and the returned end cuts the output at the last kept digit.
  char digits[40] = {};
  const std::uint64_t high = q / 100000000;
  digits[0] = static_cast<char>('0' + high / 100000000);
  write_8_digits(digits + 1, static_cast<std::uint32_t>(high % 100000000));
  write_8_digits(digits + 9, static_cast<std::uint32_t>(q % 100000000));
  int kept = 17;  // %g drops trailing zeros
  while (digits[kept - 1] == '0') --kept;

  char* p = out;
  if (value < 0) *p++ = '-';
  if (exp10 >= 0 && exp10 < 17) {  // style f, precision 16 - exp10
    const int whole = exp10 + 1;
    std::memcpy(p, digits, 17);
    p[whole] = '.';
    std::memcpy(p + whole + 1, digits + whole, 16);
    return kept > whole ? p + kept + 1 : p + whole;
  }
  if (exp10 < 0 && exp10 >= -4) {  // style f: "0.", -exp10 - 1 zeros
    std::memcpy(p, "0.000", 5);
    p += 1 - exp10;
    std::memcpy(p, digits, 17);
    return p + kept;
  }
  // Style e, precision 16, at least two exponent digits.
  p[0] = digits[0];
  p[1] = '.';
  std::memcpy(p + 2, digits + 1, 16);
  p += kept > 1 ? kept + 1 : 1;
  *p++ = 'e';
  *p++ = exp10 < 0 ? '-' : '+';
  const int magnitude = exp10 < 0 ? -exp10 : exp10;
  if (magnitude < 10) *p++ = '0';
  return std::to_chars(p, p + 3, magnitude).ptr;
}

}  // namespace detail

/// Appends a JSON number. NaN/Inf are not valid JSON; they render as null.
inline void append_number(std::string& out, double value) {
  if (!std::isfinite(value)) {
    out += "null";
    return;
  }
  char buf[40];
  char* end = buf;
  const double magnitude = std::fabs(value);
  // 2^53: largest magnitude at which every integer is exactly representable.
  const auto whole = static_cast<std::uint64_t>(
      magnitude < 9.007199254740992e15 ? magnitude : 0.0);
  if (static_cast<double>(whole) == magnitude) {
    // %.0f: the integer, with the sign of -0.0 kept.
    char* p = buf;
    if (std::signbit(value)) *p++ = '-';
    end = std::to_chars(p, buf + sizeof buf, whole).ptr;
  } else {
    end = detail::write_g17(buf, value);  // %.17g
  }
  out.append(buf, end);
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
