// Storage golden bytes: the journal NDJSON and the metrics NDJSON of six
// pinned runs are regenerated in process and compared byte for byte with the
// checked-in files under tests/data/:
//
//   flat_clean    flat store, no C/R faults
//   flat_faults   flat store with latent corruption, write failures and
//                 restart failures at retention 3
//   flat_forked   forked flat checkpoints with write failures
//   levels_async  three-level hierarchy with an asynchronous PFS flush
//   sdc_dual      dual redundancy with in-flight and at-rest SDC: voting
//                 detects, the episode rolls back
//   sdc_triple_hash_levels
//                 triple msg-plus-hash redundancy with SDC over the
//                 three-level hierarchy: voting corrects, hash copies vote,
//                 a rollback restores from level 0
//
// The first four were captured from the two-pipeline implementation, before
// the flat store became a one-level hierarchy, so they pin that the lowered
// store still looks flat from outside: no level ids or kind details on the
// flat events, no per-level metrics, the flat fault-oracle streams. The two
// SDC files were captured before the voted copies moved off per-copy
// requests and per-copy stream construction, so they pin that every
// replicated, voted message still draws, votes and journals the same.
//
// Each configuration mirrors a `redcr_cli run` command line (the CLI's
// defaults plus the flags named in the comment above it).
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>

#include "apps/synthetic.hpp"
#include "ckpt/hierarchy.hpp"
#include "obs/obs.hpp"
#include "runtime/executor.hpp"
#include "util/units.hpp"

namespace redcr {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// The first line where `actual` and `golden` differ, for a readable
/// failure message (the byte comparison is the assertion).
std::string first_difference(const std::string& actual,
                             const std::string& golden) {
  std::istringstream a(actual);
  std::istringstream g(golden);
  std::string la;
  std::string lg;
  for (int line = 1;; ++line) {
    const bool more_a = static_cast<bool>(std::getline(a, la));
    const bool more_g = static_cast<bool>(std::getline(g, lg));
    if (!more_a && !more_g) return "identical";
    if (la != lg || more_a != more_g) {
      return "line " + std::to_string(line) + "\n  actual: " +
             (more_a ? la : "<eof>") + "\n  golden: " + (more_g ? lg : "<eof>");
    }
  }
}

/// `redcr_cli run` defaults for the synthetic workload.
struct Cell {
  runtime::JobConfig config;
  apps::SyntheticSpec spec;
};

Cell cli_defaults(double redundancy, double mtbf_hours, double interval,
                  std::uint64_t seed) {
  Cell cell;
  runtime::JobConfig& cfg = cell.config;
  cfg.num_virtual = 8;
  cfg.redundancy = redundancy;
  cfg.network.bandwidth = 100e6;
  cfg.storage.bandwidth = 2e9;
  cfg.image_bytes = 1e9;
  cfg.restart_cost = 500.0;
  cfg.fail.node_mtbf = util::hours(mtbf_hours);
  cfg.fail.seed = seed;
  cfg.checkpoint_interval = interval;
  cell.spec.iterations = 30;
  cell.spec.compute_per_iteration = 5.0;
  cell.spec.halo_bytes = 300e6;
  return cell;
}

// run --virtual 8 --redundancy 1.5 --mtbf-hours 0.3 --iterations 30
//     --compute-sec 5 --interval-sec 30 --seed 11
Cell flat_clean() { return cli_defaults(1.5, 0.3, 30.0, 11); }

// flat_clean + --faults-seed 11 --ckpt-corruption-prob 0.03
//     --ckpt-write-failure-prob 0.1 --restart-failure-prob 0.1
//     --ckpt-retention 3
Cell flat_faults() {
  Cell cell = flat_clean();
  cell.config.ckpt_faults.seed = 11;
  cell.config.ckpt_faults.corruption_prob = 0.03;
  cell.config.ckpt_faults.write_failure_prob = 0.1;
  cell.config.ckpt_faults.restart_failure_prob = 0.1;
  cell.config.ckpt_retention = 3;
  return cell;
}

// run --virtual 8 --redundancy 1.5 --mtbf-hours 0.2 --iterations 30
//     --compute-sec 5 --interval-sec 30 --seed 12 --forked-checkpoint
//     --faults-seed 11 --ckpt-write-failure-prob 0.1 --ckpt-retention 2
Cell flat_forked() {
  Cell cell = cli_defaults(1.5, 0.2, 30.0, 12);
  cell.config.ckpt_forked = true;
  cell.config.ckpt_faults.seed = 11;
  cell.config.ckpt_faults.write_failure_prob = 0.1;
  cell.config.ckpt_retention = 2;
  return cell;
}

// run --virtual 8 --redundancy 1 --mtbf-hours 0.2 --iterations 30
//     --compute-sec 5 --interval-sec 60 --seed 7 --faults-seed 11
//     --ckpt-levels "$LEVELS_3" --async-flush   (scripts/ci.sh)
Cell levels_async() {
  Cell cell = cli_defaults(1.0, 0.2, 60.0, 7);
  cell.config.ckpt_faults.seed = 11;
  cell.config.hierarchy = ckpt::parse_hierarchy(
      "local,bw=1e10,lat=0.01,rbw=1e10;"
      "xor,bw=1e10,lat=0.01,rbw=1e10,group=4,k=1,interval=2,ret=2,corr=0.05,"
      "wfail=0.1;"
      "pfs,bw=5e8,interval=4,ret=2,corr=0.02");
  cell.config.hierarchy.async_flush = true;
  return cell;
}

// run --virtual 8 --redundancy 2 --mtbf-hours 1e6 --iterations 40
//     --compute-sec 5 --interval-sec 60 --ckpt-retention 3
//     --sdc-inflight-prob 2e-4 --sdc-atrest-rate 2e-4 --sdc-seed 4243
//     --seed 7 --faults-seed 11   (scripts/ci.sh's SDC journal cell)
Cell sdc_dual() {
  Cell cell = cli_defaults(2.0, 1e6, 60.0, 7);
  cell.spec.iterations = 40;
  cell.config.ckpt_retention = 3;
  cell.config.ckpt_faults.seed = 11;
  cell.config.sdc.inflight_prob = 2e-4;
  cell.config.sdc.atrest_rate = 2e-4;
  cell.config.sdc.seed = 4243;
  return cell;
}

// sdc_dual + --redundancy 3 --msg-plus-hash --mtbf-hours 2
//     --ckpt-levels "$LEVELS_3" --async-flush
Cell sdc_triple_hash_levels() {
  Cell cell = sdc_dual();
  cell.config.redundancy = 3.0;
  cell.config.red.mode = red::Mode::kMsgPlusHash;
  cell.config.fail.node_mtbf = util::hours(2.0);
  cell.config.hierarchy = levels_async().config.hierarchy;
  return cell;
}

struct Exports {
  std::string journal;
  std::string metrics;
};

Exports run(Cell cell) {
  obs::Recorder recorder;
  obs::Journal journal;
  cell.config.recorder = &recorder;
  cell.config.journal = &journal;
  const apps::SyntheticSpec spec = cell.spec;
  runtime::JobExecutor executor(std::move(cell.config), [spec](int, int) {
    return std::make_unique<apps::SyntheticWorkload>(spec);
  });
  executor.run();
  return {journal.ndjson(), recorder.metrics().ndjson()};
}

void expect_golden(const std::string& name, const std::function<Cell()>& make) {
  const Exports got = run(make());
  const std::string dir = std::string(REDCR_TEST_DATA_DIR) + "/storage_";
  const std::string journal = read_file(dir + name + ".journal.ndjson");
  const std::string metrics = read_file(dir + name + ".metrics.ndjson");
  EXPECT_TRUE(got.journal == journal)
      << name << " journal: " << first_difference(got.journal, journal);
  EXPECT_TRUE(got.metrics == metrics)
      << name << " metrics: " << first_difference(got.metrics, metrics);
}

TEST(StorageGolden, FlatZeroFaults) { expect_golden("flat_clean", flat_clean); }

TEST(StorageGolden, FlatCorruptionWriteAndRestartFailures) {
  expect_golden("flat_faults", flat_faults);
}

TEST(StorageGolden, FlatForkedWriteFailures) {
  expect_golden("flat_forked", flat_forked);
}

TEST(StorageGolden, ThreeLevelAsyncFlush) {
  expect_golden("levels_async", levels_async);
}

TEST(StorageGolden, SdcDualDetectionAndRollback) {
  expect_golden("sdc_dual", sdc_dual);
}

TEST(StorageGolden, SdcTripleMsgPlusHashOverLevels) {
  expect_golden("sdc_triple_hash_levels", sdc_triple_hash_levels);
}

}  // namespace
}  // namespace redcr
