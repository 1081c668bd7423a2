#include "exp/cli.hpp"

#include <cstdarg>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>

#include "exp/grid.hpp"
#include "exp/guard.hpp"
#include "exp/runner.hpp"

namespace redcr::exp {

namespace {

constexpr double kMaxCount = 1 << 24;

}  // namespace

util::Knob jobs_knob(int& jobs) {
  return {"jobs", "N|auto", "", util::Domain::count(1, kMaxCount, "auto"),
          [&jobs](util::Value v) { jobs = v.word == 0 ? 0 : int(v.number); }};
}

util::Knob log_level_knob(std::optional<util::LogLevel>& level) {
  return {"log-level", "", "",
          util::Domain::word("debug|info|warn|error|off"),
          [&level](util::Value v) { level = util::parse_log_level(v.text); }};
}

util::FlagSet campaign_flags(BenchArgs& args) {
  return {
      // Created here, before the campaign burns its cycles.
      {"csv", "DIR", "", util::Domain::text(),
       [&args](util::Value v) {
         const std::string dir(v.text);
         std::error_code ec;
         std::filesystem::create_directories(dir, ec);
         if (!std::filesystem::is_directory(dir, ec))
           throw std::invalid_argument("--csv: cannot create directory '" +
                                       dir + "'");
         args.csv_dir = dir;
       }},
      {"json", "", "", args.json},
      {"filter", "AXIS=V[,AXIS=V...]", "", util::Domain::text(),
       [&args](util::Value v) {
         v.to(args.filter);
         (void)parse_filter(args.filter);  // syntax check; axes bind later
       }},
      {"keep-going", "", "", args.keep_going},
  };
}

util::FlagSet bench_flags(BenchArgs& args, PerfGuard* guard) {
  util::FlagSet flags = {
      {"quick", "", "", args.quick},
      {"full", "", "", args.full},
      {"seeds", "N", "", util::Domain::count(1, kMaxCount), args.seeds},
      {"progress", "", "", args.progress},
      runtime::engine_knob(args.engine),
      jobs_knob(args.jobs),
  };
  flags.add(campaign_flags(args)).add({log_level_knob(args.log_level)});
  if (guard) flags.add(guard_flags(*guard));
  return flags;
}

std::optional<BenchArgs> BenchArgs::try_parse(int argc, char** argv,
                                              std::string* error,
                                              PerfGuard* guard) {
  auto fail = [&](const std::string& message) -> std::optional<BenchArgs> {
    if (error) *error = message;
    return std::nullopt;
  };
  BenchArgs args;
  args.seeds = 0;  // not given: --quick/--full pick it below
  try {
    if (!bench_flags(args, guard).parse(argc, argv)) return fail("help");
  } catch (const std::invalid_argument& e) {
    return fail(e.what());
  }
  if (args.quick && args.full)
    return fail("--quick and --full are mutually exclusive");
  if (args.seeds == 0) args.seeds = args.quick ? 1 : (args.full ? 5 : 2);
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
  const std::string prefix = "usage: " + std::string(argv[0]) + " ";
  BenchArgs unused;
  std::fprintf(help ? stdout : stderr, "%s%s", prefix.c_str(),
               bench_flags(unused, guard).synopsis(prefix.size()).c_str());
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
