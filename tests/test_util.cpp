// Tests for the utility layer: RNG determinism and distributional
// correctness, statistics, table rendering, CSV escaping, unit helpers, the
// per-thread block pool.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <list>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/csv.hpp"
#include "util/fifo.hpp"
#include "util/pool.hpp"
#include "util/rc.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace redcr::util {
namespace {

// --- Units -------------------------------------------------------------------

TEST(Units, Conversions) {
  EXPECT_DOUBLE_EQ(minutes(1), 60.0);
  EXPECT_DOUBLE_EQ(hours(1), 3600.0);
  EXPECT_DOUBLE_EQ(days(2), 172800.0);
  EXPECT_DOUBLE_EQ(years(1), 365.25 * 86400.0);
  EXPECT_DOUBLE_EQ(to_minutes(minutes(42)), 42.0);
  EXPECT_DOUBLE_EQ(to_hours(hours(128)), 128.0);
  EXPECT_DOUBLE_EQ(to_years(years(5)), 5.0);
  EXPECT_DOUBLE_EQ(mib(1), 1048576.0);
  EXPECT_DOUBLE_EQ(gib(2), 2.0 * 1024 * 1048576.0);
}

// --- RNG ---------------------------------------------------------------------

TEST(Rng, DeterministicForSeed) {
  Xoshiro256ss a(42), b(42), c(43);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
  bool any_diff = false;
  Xoshiro256ss a2(42);
  for (int i = 0; i < 100; ++i) any_diff |= (a2.next() != c.next());
  EXPECT_TRUE(any_diff);
}

TEST(Rng, SplitStreamsAreIndependentOfConsumption) {
  // A child stream's output must not depend on how much the parent is used
  // afterwards, and siblings must differ.
  Xoshiro256ss parent(7);
  Xoshiro256ss child_a = parent.split(1);
  for (int i = 0; i < 57; ++i) parent.next();
  Xoshiro256ss parent2(7);
  Xoshiro256ss child_a2 = parent2.split(1);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(child_a.next(), child_a2.next());
  Xoshiro256ss child_b = parent2.split(2);
  EXPECT_NE(child_a2.next(), child_b.next());
}

TEST(Rng, SplitUniform01IsTheChildsFirstUniform) {
  // Parents: seeded, advanced by next(), and themselves split children;
  // salts: small, large and the extremes.
  std::vector<Xoshiro256ss> parents;
  for (std::uint64_t seed = 0; seed < 400; ++seed) {
    Xoshiro256ss seeded(seed * 0x9e3779b97f4a7c15ULL + seed);
    parents.push_back(seeded);
    parents.push_back(seeded.split(seed));
    for (int i = 0; i < 3; ++i) seeded.next();
    parents.push_back(seeded);
  }
  std::size_t pairs = 0;
  std::size_t mismatches = 0;
  for (const Xoshiro256ss& parent : parents) {
    for (std::uint64_t salt = 0; salt < 840; ++salt) {
      const std::uint64_t salts[] = {salt, ~salt, salt << 40};
      for (const std::uint64_t s : salts) {
        if (parent.split_uniform01(s) != parent.split(s).uniform01())
          ++mismatches;
        ++pairs;
      }
    }
  }
  EXPECT_GE(pairs, 1000000u);
  EXPECT_EQ(mismatches, 0u);
}

TEST(Rng, KeyedSplitsMatchTheFullChain) {
  // The SDC in-flight draw's shape: seed.split(class).split(episode) is
  // kept as a key, split(who) as a key per (rank, copy), and each ordinal
  // costs split_uniform01. Tuples cover episode 0, ordinal 0, ordinals next
  // to 2^64, copies 0..7 and ranks up to 2^16 - 1.
  SplitMix64 gen(20261019);
  std::size_t tuples = 0;
  std::size_t mismatches = 0;
  for (int round = 0; round < 1000; ++round) {
    const std::uint64_t seed = gen.next();
    const std::uint64_t cls = 1 + gen.next() % 7;
    const std::uint64_t episode =
        round % 4 == 0 ? 0 : (round % 4 == 1 ? gen.next() : gen.next() % 64);
    const Xoshiro256ss stream = Xoshiro256ss(seed).split(cls).split(episode);
    const SplitKey episode_key = stream.key();
    for (std::uint64_t copy = 0; copy < 8; ++copy) {
      const std::uint64_t rank =
          copy == 0 ? 0xFFFF : (copy == 1 ? 0 : gen.next() % 0x10000);
      const std::uint64_t who = (rank << 16) | copy;
      const Xoshiro256ss sender = stream.split(who);
      const SplitKey key = Xoshiro256ss::split_key(episode_key, who);
      if (key.s0 != sender.key().s0 || key.s3 != sender.key().s3)
        ++mismatches;
      for (std::uint64_t k = 0; k < 125; ++k) {
        const std::uint64_t ordinal =
            k < 40 ? k : (k < 80 ? ~std::uint64_t{0} - (k - 40) : gen.next());
        if (Xoshiro256ss::split_uniform01(key, ordinal) !=
            sender.split(ordinal).uniform01())
          ++mismatches;
        ++tuples;
      }
    }
  }
  EXPECT_GE(tuples, 1000000u);
  EXPECT_EQ(mismatches, 0u);
}

TEST(Rng, Uniform01Bounds) {
  Xoshiro256ss rng(1);
  RunningStats stats;
  for (int i = 0; i < 100000; ++i) {
    const double u = rng.uniform01();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    stats.add(u);
  }
  EXPECT_NEAR(stats.mean(), 0.5, 0.01);
  EXPECT_NEAR(stats.variance(), 1.0 / 12.0, 0.01);
}

TEST(Rng, BoundedIsUnbiased) {
  Xoshiro256ss rng(2);
  constexpr std::uint64_t kBound = 7;
  std::vector<int> counts(kBound, 0);
  constexpr int kDraws = 140000;
  for (int i = 0; i < kDraws; ++i) ++counts[rng.bounded(kBound)];
  for (std::uint64_t v = 0; v < kBound; ++v)
    EXPECT_NEAR(counts[v], kDraws / static_cast<double>(kBound),
                5.0 * std::sqrt(kDraws / static_cast<double>(kBound)));
}

TEST(Rng, ExponentialMeanAndKs) {
  Xoshiro256ss rng(3);
  const double mean = 250.0;
  std::vector<double> sample;
  sample.reserve(20000);
  for (int i = 0; i < 20000; ++i) sample.push_back(rng.exponential(mean));
  const Summary s = summarize(sample);
  EXPECT_NEAR(s.mean, mean, 5.0);
  const KsResult ks = ks_test_exponential(sample, mean);
  EXPECT_FALSE(ks.reject_at_05) << "KS stat " << ks.statistic;
}

TEST(Rng, PoissonMeanSmallAndLarge) {
  Xoshiro256ss rng(4);
  for (const double mean : {0.5, 4.0, 200.0}) {
    RunningStats stats;
    for (int i = 0; i < 20000; ++i)
      stats.add(static_cast<double>(rng.poisson(mean)));
    EXPECT_NEAR(stats.mean(), mean, 0.05 * mean + 0.05) << mean;
    EXPECT_NEAR(stats.variance(), mean, 0.1 * mean + 0.1) << mean;
  }
  EXPECT_EQ(rng.poisson(0.0), 0u);
}

TEST(Rng, NormalMoments) {
  Xoshiro256ss rng(5);
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) stats.add(rng.normal(10.0, 3.0));
  EXPECT_NEAR(stats.mean(), 10.0, 0.1);
  EXPECT_NEAR(stats.stddev(), 3.0, 0.1);
}

// --- Stats -------------------------------------------------------------------

TEST(Stats, RunningStatsMatchesClosedForm) {
  RunningStats stats;
  const std::vector<double> xs{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  for (const double x : xs) stats.add(x);
  EXPECT_EQ(stats.count(), xs.size());
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_NEAR(stats.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(stats.min(), 2.0);
  EXPECT_DOUBLE_EQ(stats.max(), 9.0);
}

TEST(Stats, PercentileInterpolates) {
  const std::vector<double> xs{10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(percentile(xs, 0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100), 40.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 25.0);
  EXPECT_DOUBLE_EQ(percentile(std::vector<double>{5.0}, 77), 5.0);
}

TEST(Stats, SummaryOfEmptyIsZeroed) {
  const Summary s = summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
}

TEST(Stats, KsRejectsWrongDistribution) {
  // Uniform data must not pass as exponential.
  Xoshiro256ss rng(6);
  std::vector<double> sample;
  for (int i = 0; i < 5000; ++i) sample.push_back(rng.uniform(0.0, 2.0));
  const KsResult ks = ks_test_exponential(sample, 1.0);
  EXPECT_TRUE(ks.reject_at_05);
}

TEST(Stats, QqPointsOfIdenticalSamplesLieOnDiagonal) {
  std::vector<double> a;
  Xoshiro256ss rng(7);
  for (int i = 0; i < 1000; ++i) a.push_back(rng.normal());
  const auto qq = qq_points(a, a, 16);
  ASSERT_EQ(qq.size(), 16u);
  for (const auto& [x, y] : qq) EXPECT_DOUBLE_EQ(x, y);
}

TEST(Stats, LineFitRecoversSlopeIntercept) {
  std::vector<double> x, y;
  for (int i = 0; i < 50; ++i) {
    x.push_back(i);
    y.push_back(3.0 * i - 7.0);
  }
  const LineFit fit = fit_line(x, y);
  EXPECT_NEAR(fit.slope, 3.0, 1e-9);
  EXPECT_NEAR(fit.intercept, -7.0, 1e-9);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-12);
}

TEST(Stats, LineFitDegenerateInputs) {
  EXPECT_DOUBLE_EQ(fit_line({}, {}).slope, 0.0);
  const std::vector<double> x{1.0, 1.0, 1.0}, y{1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(fit_line(x, y).slope, 0.0);  // vertical: no fit
}

// --- Table -------------------------------------------------------------------

TEST(Table, RendersAlignedGrid) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22"});
  t.emphasize(1, 1);
  const std::string s = t.str();
  EXPECT_NE(s.find("| alpha |"), std::string::npos);
  EXPECT_NE(s.find("*22*"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
  EXPECT_EQ(t.cols(), 2u);
  // All lines equally wide.
  std::size_t width = 0;
  std::size_t pos = 0;
  while (pos < s.size()) {
    const std::size_t eol = s.find('\n', pos);
    const std::size_t len = eol - pos;
    if (width == 0) width = len;
    EXPECT_EQ(len, width);
    pos = eol + 1;
  }
}

TEST(Table, FormatHelpers) {
  EXPECT_EQ(fmt(3.14159, 2), "3.14");
  EXPECT_EQ(fmt(2.0, 0), "2");
  EXPECT_EQ(fmt_count(0), "0");
  EXPECT_EQ(fmt_count(999), "999");
  EXPECT_EQ(fmt_count(1000), "1,000");
  EXPECT_EQ(fmt_count(771251), "771,251");
  EXPECT_EQ(fmt_count(-1234567), "-1,234,567");
}

// --- CSV ---------------------------------------------------------------------

TEST(Csv, WritesAndEscapes) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "redcr_csv_test.csv").string();
  {
    CsvWriter csv(path);
    csv.write_row({"a", "b,c", "d\"e"});
    csv.write_numeric_row({1.5, 2.0}, 1);
  }
  std::ifstream in(path);
  std::string line1, line2;
  std::getline(in, line1);
  std::getline(in, line2);
  EXPECT_EQ(line1, "a,\"b,c\",\"d\"\"e\"");
  EXPECT_EQ(line2, "1.5,2.0");
  std::filesystem::remove(path);
}

TEST(Csv, ThrowsOnBadPath) {
  EXPECT_THROW(CsvWriter("/nonexistent-dir-xyz/file.csv"),
               std::runtime_error);
}

// --- CSV round trip ----------------------------------------------------------

// Minimal RFC-4180 reader: parses one whole file into rows of fields.
// Understands quoted fields with doubled quotes and embedded , " \n \r.
std::vector<std::vector<std::string>> parse_csv(const std::string& text) {
  std::vector<std::vector<std::string>> rows;
  std::vector<std::string> row;
  std::string field;
  bool quoted = false;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char ch = text[i];
    if (quoted) {
      if (ch == '"') {
        if (i + 1 < text.size() && text[i + 1] == '"') {
          field += '"';
          ++i;
        } else {
          quoted = false;
        }
      } else {
        field += ch;
      }
    } else if (ch == '"') {
      quoted = true;
    } else if (ch == ',') {
      row.push_back(std::move(field));
      field.clear();
    } else if (ch == '\n') {
      row.push_back(std::move(field));
      field.clear();
      rows.push_back(std::move(row));
      row.clear();
    } else {
      field += ch;
    }
  }
  if (!field.empty() || !row.empty()) {
    row.push_back(std::move(field));
    rows.push_back(std::move(row));
  }
  return rows;
}

TEST(Csv, EscapeQuotesOnlyWhenNeeded) {
  EXPECT_EQ(CsvWriter::escape("plain"), "plain");
  EXPECT_EQ(CsvWriter::escape("1.5"), "1.5");
  EXPECT_EQ(CsvWriter::escape(""), "");
  EXPECT_EQ(CsvWriter::escape("a,b"), "\"a,b\"");
  EXPECT_EQ(CsvWriter::escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(CsvWriter::escape("two\nlines"), "\"two\nlines\"");
  EXPECT_EQ(CsvWriter::escape("bare\rcr"), "\"bare\rcr\"");
  EXPECT_EQ(CsvWriter::escape("crlf\r\n"), "\"crlf\r\n\"");
}

TEST(Csv, RoundTripsAwkwardFields) {
  const std::vector<std::vector<std::string>> rows = {
      {"plain", "with,comma", "with\"quote"},
      {"multi\nline", "cr\rfield", "crlf\r\nboth"},
      {"", "\"\"", ",\",\n\r"},
  };
  const std::string path =
      (std::filesystem::temp_directory_path() / "redcr_csv_roundtrip.csv")
          .string();
  {
    CsvWriter csv(path);
    for (const auto& row : rows) csv.write_row(row);
  }
  std::ifstream in(path, std::ios::binary);
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  EXPECT_EQ(parse_csv(text), rows);
  std::filesystem::remove(path);
}

// --- BlockPool -----------------------------------------------------------------

TEST(BlockPool, FreedBlockIsReusedForItsSizeClass) {
  void* block = BlockPool::allocate(100);
  BlockPool::deallocate(block, 100);
  // 100 and 120 bytes round up to the same 128-byte class.
  void* again = BlockPool::allocate(120);
  EXPECT_EQ(again, block);
  BlockPool::deallocate(again, 120);
}

TEST(BlockPool, SizeClassesNeverAlias) {
  constexpr std::size_t kClasses = BlockPool::kClasses;
  const auto bytes = [](std::size_t c) { return (c + 1) * BlockPool::kGranule; };
  std::array<void*, kClasses> first{};
  for (std::size_t c = 0; c < kClasses; ++c)
    first[c] = BlockPool::allocate(bytes(c));
  for (std::size_t c = 0; c < kClasses; ++c)
    BlockPool::deallocate(first[c], bytes(c));
  // Every class has a cached block now; each allocation still gets its own
  // class's block, and a full-size write into each disturbs no other.
  std::array<void*, kClasses> again{};
  for (std::size_t c = kClasses; c-- > 0;) {
    again[c] = BlockPool::allocate(bytes(c));
    EXPECT_EQ(again[c], first[c]) << "class " << c;
    std::memset(again[c], static_cast<int>(c + 1), bytes(c));
  }
  for (std::size_t c = 0; c < kClasses; ++c) {
    const auto* p = static_cast<const unsigned char*>(again[c]);
    for (std::size_t i = 0; i < bytes(c); ++i)
      ASSERT_EQ(p[i], c + 1) << "class " << c << " byte " << i;
    BlockPool::deallocate(again[c], bytes(c));
  }
}

TEST(BlockPool, LargeRequestsBypassTheLists) {
  const std::size_t large = BlockPool::kMaxBlock + 1;
  void* big = BlockPool::allocate(large);
  const std::size_t cached = BlockPool::cached_blocks();
  BlockPool::deallocate(big, large);
  EXPECT_EQ(BlockPool::cached_blocks(), cached);
  void* small = BlockPool::allocate(BlockPool::kMaxBlock);
  const std::size_t without = BlockPool::cached_blocks();
  BlockPool::deallocate(small, BlockPool::kMaxBlock);
  EXPECT_EQ(BlockPool::cached_blocks(), without + 1);
}

TEST(BlockPool, BlockFreedOnAnotherThreadIsReusedThere) {
  void* block = BlockPool::allocate(64);
  void* reused = nullptr;
  std::size_t cached_after_free = 0;
  std::thread other([&] {
    BlockPool::deallocate(block, 64);
    cached_after_free = BlockPool::cached_blocks();
    reused = BlockPool::allocate(64);
    BlockPool::deallocate(reused, 64);
  });  // thread exit returns the other thread's lists to the heap
  other.join();
  EXPECT_EQ(cached_after_free, 1u);
  EXPECT_EQ(reused, block);
}

TEST(BlockPool, AllocatorRecyclesSharedStateAndListNodes) {
  using State = std::array<double, 6>;
  auto first = std::allocate_shared<State>(PoolAllocator<State>{});
  const void* const address = first.get();
  first.reset();
  const auto second = std::allocate_shared<State>(PoolAllocator<State>{});
  EXPECT_EQ(second.get(), address);

  std::list<int, PoolAllocator<int>> nodes{1, 2, 3};
  nodes.pop_front();
  nodes.push_back(4);
  EXPECT_EQ(nodes, (std::list<int, PoolAllocator<int>>{2, 3, 4}));
}

// --- Rc ----------------------------------------------------------------------

/// Counts its own destructions, so a test sees a T destroyed exactly once.
struct Tracked {
  Tracked(int v, int& destroyed) : value(v), destroyed(&destroyed) {}
  Tracked(const Tracked&) = delete;
  Tracked& operator=(const Tracked&) = delete;
  ~Tracked() { ++*destroyed; }
  int value;
  int* destroyed;
};

TEST(Rc, CopiesAndMovesShareOneObject) {
  int destroyed = 0;
  {
    Rc<Tracked> a = Rc<Tracked>::make(7, destroyed);
    EXPECT_EQ(a.use_count(), 1u);
    Rc<Tracked> b = a;
    EXPECT_EQ(b.get(), a.get());
    EXPECT_EQ(a.use_count(), 2u);
    Rc<Tracked> c = std::move(b);  // a move adds no share
    EXPECT_FALSE(b);
    EXPECT_EQ(b.use_count(), 0u);
    EXPECT_EQ(c.use_count(), 2u);
    EXPECT_EQ(c->value, 7);
    Rc<Tracked> d;
    EXPECT_FALSE(d);
    d = c;
    EXPECT_EQ(d.use_count(), 3u);
    d = std::move(c);  // d's old share drops, c's moves in
    EXPECT_FALSE(c);
    EXPECT_EQ(d.use_count(), 2u);
    a.reset();
    EXPECT_EQ(d.use_count(), 1u);
    EXPECT_EQ((*d).value, 7);
    EXPECT_EQ(destroyed, 0);
  }
  EXPECT_EQ(destroyed, 1);
}

TEST(Rc, SelfAssignmentKeepsTheObject) {
  int destroyed = 0;
  Rc<Tracked> a = Rc<Tracked>::make(3, destroyed);
  Rc<Tracked>& alias = a;
  a = alias;
  EXPECT_EQ(a.use_count(), 1u);
  a = std::move(alias);
  ASSERT_TRUE(a);
  EXPECT_EQ(a.use_count(), 1u);
  EXPECT_EQ(a->value, 3);
  EXPECT_EQ(destroyed, 0);
  a.reset();
  EXPECT_EQ(destroyed, 1);
}

TEST(Rc, LastReleaseReturnsTheBlock) {
  int destroyed = 0;
  auto first = Rc<Tracked>::make(1, destroyed);
  const void* const address = first.get();
  auto copy = first;
  first.reset();
  EXPECT_EQ(destroyed, 0);  // the copy still holds it
  copy.reset();
  EXPECT_EQ(destroyed, 1);
  // The block went back to this thread's free list, so the next make of
  // the same size pops it again.
  const auto second = Rc<Tracked>::make(2, destroyed);
  EXPECT_EQ(second.get(), address);
  EXPECT_EQ(second->value, 2);
}

// --- Fifo --------------------------------------------------------------------

/// Checks `fifo` against `reference` entry by entry.
void expect_same(Fifo<int>& fifo, const std::deque<int>& reference) {
  ASSERT_EQ(fifo.size(), reference.size());
  ASSERT_EQ(fifo.empty(), reference.empty());
  for (std::size_t i = 0; i < reference.size(); ++i)
    ASSERT_EQ(fifo[i], reference[i]) << "at " << i;
}

TEST(Fifo, TakesFromTheFrontAndTheMiddleInOrder) {
  Fifo<int> fifo;
  std::deque<int> reference;
  for (int v = 0; v < 5; ++v) {
    fifo.push_back(v);
    reference.push_back(v);
  }
  EXPECT_EQ(fifo.take(2), 2);  // the middle: entries behind it move up
  reference.erase(reference.begin() + 2);
  expect_same(fifo, reference);
  EXPECT_EQ(fifo.pop_front(), 0);
  reference.pop_front();
  expect_same(fifo, reference);
  EXPECT_EQ(fifo.take(fifo.size() - 1), 4);  // the back
  reference.pop_back();
  expect_same(fifo, reference);
  EXPECT_EQ(*fifo.begin(), 1);
  EXPECT_EQ(fifo.end() - fifo.begin(), 2);
}

TEST(Fifo, LongBacklogDrainsInMixedOrderLikeADeque) {
  // Backlogs past the compaction threshold, drained from the front, the
  // middle and the back while new entries keep arriving.
  SplitMix64 gen(64);
  Fifo<int> fifo;
  std::deque<int> reference;
  int next = 0;
  for (int round = 0; round < 40; ++round) {
    const int pushes = 20 + static_cast<int>(gen.next() % 120);
    for (int i = 0; i < pushes; ++i) {
      fifo.push_back(next);
      reference.push_back(next++);
    }
    const std::size_t keep = gen.next() % 8;
    while (reference.size() > keep) {
      const std::uint64_t pick = gen.next() % 4;
      const std::size_t at =
          pick < 2 ? 0
                   : static_cast<std::size_t>(gen.next() % reference.size());
      ASSERT_EQ(fifo.take(at), reference[at]);
      reference.erase(reference.begin() + static_cast<std::ptrdiff_t>(at));
      expect_same(fifo, reference);
    }
  }
}

TEST(Fifo, MovedOutEntriesReleaseWhatTheyHeld) {
  Fifo<std::unique_ptr<int>> fifo;
  for (int v = 0; v < 100; ++v) fifo.push_back(std::make_unique<int>(v));
  for (int v = 0; v < 100; ++v) {
    const std::unique_ptr<int> front = fifo.pop_front();
    ASSERT_NE(front, nullptr);
    EXPECT_EQ(*front, v);
  }
  EXPECT_TRUE(fifo.empty());
}

struct ThrowsWhen {
  explicit ThrowsWhen(bool fail) {
    if (fail) throw std::runtime_error("constructor failed");
  }
};

TEST(Rc, ThrowingConstructorReturnsTheBlock) {
  auto made = Rc<ThrowsWhen>::make(false);
  const void* const address = made.get();
  made.reset();
  EXPECT_THROW((void)Rc<ThrowsWhen>::make(true), std::runtime_error);
  EXPECT_EQ(Rc<ThrowsWhen>::make(false).get(), address);
}

}  // namespace
}  // namespace redcr::util
