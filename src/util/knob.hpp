// The input schema: every knob a front end reads, declared once with a
// name, a usage metavar, a default, a domain and a setter. One parser
// (FlagSet::parse) walks argv against a command's knobs; the usage synopsis
// and the range errors come from them too.
//
// Domains: a *number* is the whole text read by strtod, optionally within
// [lo, hi]; a *count* is a whole number in [lo, hi], checked before any
// cast; a *word* is one of a '|'-separated list; *text* is any string; a
// *switch* takes no value. A count may also accept listed words (--jobs
// N|auto). A knob bound straight to a field takes the field's domain: a
// bool is a switch, an integer a count over what it holds (clipped to
// ±2^53, where the double is exact), a floating point a number, and
// anything else text.
//
// Knobs state what their destination can hold, and ranges only a front end
// checks. Semantic ranges stay in the library code that enforces them
// (ScenarioBuilder::build, JobExecutor, the validate() methods), so library
// callers get the same checks, and an unbounded number lets NaN through.
#pragma once

#include <algorithm>
#include <functional>
#include <initializer_list>
#include <limits>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace redcr::util {

/// One parsed input value.
struct Value {
  double number = 0.0;    ///< number and count domains; 1 for a switch
  std::string_view text;  ///< the text as given
  int word = -1;          ///< index into Domain::words when a word matched
  bool given = true;      ///< false when parse() applied the fallback

  /// Stores the value in `field`: the number for an arithmetic field (a
  /// count domain has checked that it fits), else the text.
  template <class T>
  void to(T& field) const {
    if constexpr (std::is_arithmetic_v<T>)
      field = static_cast<T>(number);
    else
      field = T(text);
  }
};

/// What a knob accepts.
struct Domain {
  enum class Kind { kText, kNumber, kCount, kWord, kSwitch };
  static constexpr double kInf = std::numeric_limits<double>::infinity();

  Kind kind = Kind::kText;
  double lo = -kInf;
  double hi = kInf;
  bool hi_open = false;      ///< number: [lo, hi) instead of [lo, hi]
  std::string_view words{};  ///< word: the list; count: accepted instead

  static constexpr Domain text() { return {}; }
  static constexpr Domain flag() { return {Kind::kSwitch}; }
  static constexpr Domain word(std::string_view words) {
    return {Kind::kWord, -kInf, kInf, false, words};
  }
  static constexpr Domain number(double lo = -kInf, double hi = kInf,
                                 bool hi_open = false) {
    return {Kind::kNumber, lo, hi, hi_open};
  }
  static constexpr Domain count(double lo, double hi,
                                std::string_view words = {}) {
    return {Kind::kCount, lo, hi, false, words};
  }
  /// The domain of a field of type T.
  template <class T>
  static constexpr Domain of() {
    using Limits = std::numeric_limits<T>;
    constexpr double kExact = 9007199254740992.0;  // 2^53
    if constexpr (std::is_same_v<T, bool>)
      return flag();
    else if constexpr (std::is_integral_v<T>)
      return count(std::max(double(Limits::lowest()), -kExact),
                   std::min(double(Limits::max()), kExact));
    else if constexpr (std::is_floating_point_v<T>)
      return number();
    else
      return text();
  }

  /// A count, or a number with a finite bound: rejects NaN and values
  /// outside [lo, hi].
  [[nodiscard]] bool bounded() const noexcept;
  [[nodiscard]] bool admits(double x) const noexcept;
  /// "a whole number in [1, 1e+15]", "one of exact|fast", ...
  [[nodiscard]] std::string describe() const;
  /// "<what> must be <describe()>, got '<given>'".
  [[nodiscard]] std::string reject(std::string_view what,
                                   std::string_view given) const;
  /// Throws std::invalid_argument naming `what` when `text` is not in the
  /// domain.
  [[nodiscard]] Value parse(std::string_view what,
                            std::string_view text) const;
};

/// One knob, bound to what it writes.
struct Knob {
  std::string_view name;      ///< the flag without "--"
  std::string_view metavar;   ///< usage placeholder; word knobs show words
  std::string_view fallback;  ///< applied when absent; "" leaves it as is
  Domain domain;
  std::function<void(Value)> set;

  Knob(std::string_view name, std::string_view metavar,
       std::string_view fallback, Domain domain,
       std::function<void(Value)> set)
      : name(name), metavar(metavar), fallback(fallback), domain(domain),
        set(std::move(set)) {}
  /// Writes `field` through Value::to.
  template <class T>
  Knob(std::string_view name, std::string_view metavar,
       std::string_view fallback, Domain domain, T& field)
      : Knob(name, metavar, fallback, domain,
             [&field](Value v) { v.to(field); }) {}
  /// Writes `field`, whose type gives the domain.
  template <class T>
  Knob(std::string_view name, std::string_view metavar,
       std::string_view fallback, T& field)
      : Knob(name, metavar, fallback, Domain::of<T>(), field) {}
};

/// A command's knobs.
class FlagSet {
 public:
  FlagSet(std::initializer_list<Knob> knobs = {}) : knobs_(knobs) {}

  /// Appends `more`'s knobs.
  FlagSet& add(const FlagSet& more);

  /// The knob named `key`, or nullptr. A '_' in `key` matches a '-' in the
  /// name: serve's JSON keys spell the flag names that way.
  [[nodiscard]] const Knob* find(std::string_view key) const noexcept;

  /// Parses argv[first, argc): checks every value, then applies the
  /// fallback of each absent knob, then the given values in order. Throws
  /// std::invalid_argument naming the flag on an unknown flag, a missing
  /// value, a word after a switch or a value outside its domain (a setter
  /// may throw its own). Returns false, setting nothing, on --help or -h.
  [[nodiscard]] bool parse(int argc, char** argv, int first = 1) const;

  /// parse() for a program with no other input: on --help prints the usage
  /// and exits 0; on an error prints it with the error and exits 2.
  void parse_or_exit(int argc, char** argv, const char* program) const;

  /// "[--name META (default)] ..." wrapped at 80 columns, continuing a line
  /// already `indent` columns wide and indenting the next ones that far.
  [[nodiscard]] std::string synopsis(std::size_t indent) const;

  [[nodiscard]] const std::vector<Knob>& knobs() const noexcept {
    return knobs_;
  }

 private:
  std::vector<Knob> knobs_;
};

}  // namespace redcr::util
