#include "util/knob.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace redcr::util {

namespace {

/// The shorter of %.15g and %.17g that reads back as `x`.
std::string shortest(double x) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.15g", x);
  if (std::strtod(buf, nullptr) != x)
    std::snprintf(buf, sizeof buf, "%.17g", x);
  return buf;
}

/// The position of `text` in the '|'-separated `words`, or -1.
int word_index(std::string_view words, std::string_view text) {
  for (int index = 0; !words.empty(); ++index) {
    const std::size_t bar = std::min(words.find('|'), words.size());
    if (words.substr(0, bar) == text) return index;
    words.remove_prefix(std::min(bar + 1, words.size()));
  }
  return -1;
}

bool is_flag(std::string_view arg) { return arg.starts_with("--"); }

}  // namespace

bool Domain::bounded() const noexcept {
  return kind == Kind::kCount ||
         (kind == Kind::kNumber && (lo > -kInf || hi < kInf));
}

bool Domain::admits(double x) const noexcept {
  if (!bounded()) return true;
  return x >= lo && (hi_open ? x < hi : x <= hi) &&
         (kind != Kind::kCount || x == std::floor(x));
}

std::string Domain::describe() const {
  const std::string range = "[" + shortest(lo) + ", " + shortest(hi);
  switch (kind) {
    case Kind::kWord:
      return "one of " + std::string(words);
    case Kind::kCount:
      return "a whole number in " + range + "]" +
             (words.empty() ? "" : " or " + std::string(words));
    case Kind::kNumber:
      if (!bounded()) return "a number";
      if (hi == std::numeric_limits<double>::max())
        return lo == -hi ? std::string("a finite number")
                         : "a finite number >= " + shortest(lo);
      return "in " + range + (hi_open ? ")" : "]");
    default:
      return "any text";
  }
}

std::string Domain::reject(std::string_view what,
                           std::string_view given) const {
  return std::string(what) + " must be " + describe() + ", got '" +
         std::string(given) + "'";
}

Value Domain::parse(std::string_view what, std::string_view text) const {
  Value value{kind == Kind::kSwitch ? 1.0 : 0.0, text};
  if (kind == Kind::kText || kind == Kind::kSwitch) return value;
  value.word = word_index(words, text);
  if (value.word >= 0) return value;
  if (kind == Kind::kWord) throw std::invalid_argument(reject(what, text));
  const std::string s(text);  // strtod needs the terminator
  char* end = nullptr;
  value.number = std::strtod(s.c_str(), &end);
  if (end == s.c_str() || *end != '\0' || !admits(value.number))
    throw std::invalid_argument(reject(what, text));
  return value;
}

FlagSet& FlagSet::add(const FlagSet& more) {
  knobs_.insert(knobs_.end(), more.knobs_.begin(), more.knobs_.end());
  return *this;
}

const Knob* FlagSet::find(std::string_view key) const noexcept {
  const auto same = [](char k, char n) {
    return k == n || (k == '_' && n == '-');
  };
  for (const Knob& knob : knobs_)
    if (std::equal(key.begin(), key.end(), knob.name.begin(), knob.name.end(),
                   same))
      return &knob;
  return nullptr;
}

bool FlagSet::parse(int argc, char** argv, int first) const {
  std::vector<std::pair<const Knob*, Value>> given;
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") return false;
    if (!is_flag(arg))
      throw std::invalid_argument("unexpected argument '" + arg + "'");
    const auto row = std::find_if(knobs_.begin(), knobs_.end(), [&](auto& k) {
      return "--" + std::string(k.name) == arg;
    });
    if (row == knobs_.end())
      throw std::invalid_argument("unknown flag '" + arg + "'");
    const bool is_switch = row->domain.kind == Domain::Kind::kSwitch;
    const bool has_value = i + 1 < argc && !is_flag(argv[i + 1]);
    if (is_switch && has_value)
      throw std::invalid_argument(arg + " takes no value, got '" +
                                  argv[i + 1] + "'");
    if (!is_switch && !has_value)
      throw std::invalid_argument(arg + " requires a value");
    given.emplace_back(&*row,
                       row->domain.parse(arg, is_switch ? "" : argv[++i]));
  }
  for (const Knob& row : knobs_) {
    const bool absent = std::none_of(given.begin(), given.end(),
                                     [&](auto& g) { return g.first == &row; });
    if (absent && !row.fallback.empty()) {
      Value fallback =
          row.domain.parse("--" + std::string(row.name), row.fallback);
      fallback.given = false;
      row.set(fallback);
    }
  }
  for (const auto& [row, value] : given) row->set(value);
  return true;
}

void FlagSet::parse_or_exit(int argc, char** argv, const char* program) const {
  const std::string usage = "usage: " + std::string(program) + " ";
  try {
    if (parse(argc, argv)) return;
    std::printf("%s%s", usage.c_str(), synopsis(usage.size()).c_str());
    std::exit(0);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s: %s\n%s%s", program, e.what(), usage.c_str(),
                 synopsis(usage.size()).c_str());
    std::exit(2);
  }
}

std::string FlagSet::synopsis(std::size_t indent) const {
  std::string out, line;
  for (const Knob& k : knobs_) {
    const std::string_view meta =
        k.domain.kind == Domain::Kind::kWord ? k.domain.words : k.metavar;
    const std::string item =
        "[--" + std::string(k.name) + (meta.empty() ? "" : " ") +
        std::string(meta) +
        (k.fallback.empty() ? "" : " (" + std::string(k.fallback) + ")") + "]";
    if (!line.empty() && indent + line.size() + 1 + item.size() > 80) {
      out += line + "\n" + std::string(indent, ' ');
      line.clear();
    }
    line += (line.empty() ? "" : " ") + item;
  }
  return out + line + "\n";
}

}  // namespace redcr::util
