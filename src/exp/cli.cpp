#include "exp/cli.hpp"

#include <cstdarg>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <stdexcept>

#include "exp/grid.hpp"
#include "exp/guard.hpp"
#include "exp/runner.hpp"

namespace redcr::exp {

namespace {

constexpr const char* kUsage =
    "usage: %s [--quick|--full] [--seeds N] [--csv DIR]\n"
    "          [--jobs N|auto] [--json] [--filter AXIS=V[,AXIS=V...]]\n"
    "          [--progress] [--keep-going]\n"
    "          [--engine event|fastforward|auto]\n"
    "          [--log-level debug|info|warn|error|off]\n";
constexpr const char* kGuardUsage =
    "          [--repeat N] [--guard BASELINE.json] [--tolerance F]\n";

/// Strict positive-integer parse; std::atoi's silent 0 on garbage is exactly
/// the bug class this replaces.
bool parse_positive_int(const char* text, int* out) {
  char* end = nullptr;
  const long value = std::strtol(text, &end, 10);
  if (end == text || *end != '\0' || value < 1 || value > 1 << 24) return false;
  *out = static_cast<int>(value);
  return true;
}

/// Strict parse of a fraction in [0, 1).
bool parse_fraction(const char* text, double* out) {
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  if (end == text || *end != '\0' || !(value >= 0.0 && value < 1.0))
    return false;
  *out = value;
  return true;
}

}  // namespace

std::optional<BenchArgs> BenchArgs::try_parse(int argc, char** argv,
                                              std::string* error,
                                              PerfGuard* guard) {
  auto fail = [&](const std::string& message) -> std::optional<BenchArgs> {
    if (error) *error = message;
    return std::nullopt;
  };
  BenchArgs args;
  bool seeds_explicit = false;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    auto value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) return nullptr;
      (void)flag;
      return argv[++i];
    };
    if (std::strcmp(arg, "--quick") == 0) {
      args.quick = true;
    } else if (std::strcmp(arg, "--full") == 0) {
      args.full = true;
    } else if (std::strcmp(arg, "--seeds") == 0) {
      const char* v = value("--seeds");
      if (!v) return fail("--seeds requires a value");
      if (!parse_positive_int(v, &args.seeds))
        return fail(std::string("invalid --seeds value '") + v +
                    "' (expected an integer >= 1)");
      seeds_explicit = true;
    } else if (std::strcmp(arg, "--jobs") == 0) {
      const char* v = value("--jobs");
      if (!v) return fail("--jobs requires a value");
      if (std::strcmp(v, "auto") == 0) {
        args.jobs = 0;  // 0 = hardware concurrency, everywhere downstream
      } else if (!parse_positive_int(v, &args.jobs)) {
        return fail(std::string("invalid --jobs value '") + v +
                    "' (expected an integer >= 1, or 'auto')");
      }
    } else if (std::strcmp(arg, "--csv") == 0) {
      const char* v = value("--csv");
      if (!v) return fail("--csv requires a directory");
      // Fail here, not after the campaign has burned its cycles: make sure
      // the directory exists (creating it if needed) before running anything.
      std::error_code ec;
      std::filesystem::create_directories(v, ec);
      if (ec || !std::filesystem::is_directory(v, ec))
        return fail(std::string("--csv: cannot create directory '") + v + "'");
      args.csv_dir = v;
    } else if (std::strcmp(arg, "--json") == 0) {
      args.json = true;
    } else if (std::strcmp(arg, "--progress") == 0) {
      args.progress = true;
    } else if (std::strcmp(arg, "--keep-going") == 0) {
      args.keep_going = true;
    } else if (std::strcmp(arg, "--engine") == 0) {
      const char* v = value("--engine");
      if (!v) return fail("--engine requires a value");
      const std::optional<runtime::ExecMode> mode = runtime::parse_engine(v);
      if (!mode)
        return fail(std::string("invalid --engine '") + v +
                    "' (expected event|fastforward|auto)");
      args.engine = *mode;
    } else if (std::strcmp(arg, "--log-level") == 0) {
      const char* v = value("--log-level");
      if (!v) return fail("--log-level requires a value");
      args.log_level = util::parse_log_level(v);
      if (!args.log_level)
        return fail(std::string("invalid --log-level '") + v +
                    "' (expected debug|info|warn|error|off)");
    } else if (std::strcmp(arg, "--filter") == 0) {
      const char* v = value("--filter");
      if (!v) return fail("--filter requires a spec");
      args.filter = v;
      try {
        (void)parse_filter(args.filter);  // syntax check; axes bind later
      } catch (const std::invalid_argument& e) {
        return fail(e.what());
      }
    } else if (guard && std::strcmp(arg, "--guard") == 0) {
      const char* v = value("--guard");
      if (!v) return fail("--guard requires a baseline file");
      guard->baseline_path = v;
    } else if (guard && std::strcmp(arg, "--tolerance") == 0) {
      const char* v = value("--tolerance");
      if (!v) return fail("--tolerance requires a value");
      if (!parse_fraction(v, &guard->tolerance))
        return fail(std::string("invalid --tolerance value '") + v +
                    "' (expected a fraction in [0, 1))");
    } else if (guard && std::strcmp(arg, "--repeat") == 0) {
      const char* v = value("--repeat");
      if (!v) return fail("--repeat requires a value");
      if (!parse_positive_int(v, &guard->repeat))
        return fail(std::string("invalid --repeat value '") + v +
                    "' (expected an integer >= 1)");
    } else if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
      if (error) *error = "help";
      return std::nullopt;
    } else {
      return fail(std::string("unknown flag '") + arg + "'");
    }
  }
  if (args.quick && args.full)
    return fail("--quick and --full are mutually exclusive");
  if (!seeds_explicit) args.seeds = args.quick ? 1 : (args.full ? 5 : 2);
  return args;
}

BenchArgs BenchArgs::parse(int argc, char** argv, PerfGuard* guard) {
  std::string error;
  if (std::optional<BenchArgs> args = try_parse(argc, argv, &error, guard)) {
    // Env first, explicit flag last, so --log-level wins.
    util::init_log_level_from_env();
    if (args->log_level) util::set_log_level(*args->log_level);
    return *args;
  }
  const bool help = error == "help";
  if (!help) std::fprintf(stderr, "%s: %s\n", argv[0], error.c_str());
  std::FILE* out = help ? stdout : stderr;
  std::fprintf(out, kUsage, argv[0]);
  if (guard) std::fputs(kGuardUsage, out);
  std::exit(help ? 0 : 2);
}

redcr::RunOptions BenchArgs::run_options() const {
  redcr::RunOptions options;
  options.jobs = jobs;
  options.progress = progress;
  options.keep_going = keep_going;
  options.log_level = log_level;
  options.engine = engine;
  return options;
}

std::FILE* BenchArgs::text_out() const noexcept {
  return json ? stderr : stdout;
}

void BenchArgs::say(const char* format, ...) const {
  std::va_list ap;
  va_start(ap, format);
  std::vfprintf(text_out(), format, ap);
  va_end(ap);
}

void print_header(const BenchArgs& args, const char* title,
                  const char* paper_ref) {
  args.say(
      "================================================================\n");
  args.say("%s\n", title);
  args.say("Reproduces: %s\n", paper_ref);
  args.say(
      "================================================================\n\n");
}

}  // namespace redcr::exp
