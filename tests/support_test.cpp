// Tests for support/: exact integer arithmetic, formatting, RNG, stats.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include <sys/stat.h>
#include <unistd.h>

#include <fstream>

#include "support/error.hpp"
#include "support/format.hpp"
#include "support/math.hpp"
#include "support/rng.hpp"
#include "support/scoped_dir.hpp"
#include "support/stats.hpp"
#include "support/thread_pool.hpp"
#include "support/toolchain.hpp"

namespace vcal {
namespace {

TEST(Math, FloordivMatchesMathematicalFloor) {
  for (i64 a = -25; a <= 25; ++a) {
    for (i64 b : {-7, -3, -1, 1, 2, 5, 9}) {
      double exact = std::floor(static_cast<double>(a) /
                                static_cast<double>(b));
      EXPECT_EQ(floordiv(a, b), static_cast<i64>(exact))
          << a << " div " << b;
    }
  }
}

TEST(Math, CeildivMatchesMathematicalCeil) {
  for (i64 a = -25; a <= 25; ++a) {
    for (i64 b : {-7, -3, -1, 1, 2, 5, 9}) {
      double exact =
          std::ceil(static_cast<double>(a) / static_cast<double>(b));
      EXPECT_EQ(ceildiv(a, b), static_cast<i64>(exact))
          << a << " ceildiv " << b;
    }
  }
}

TEST(Math, EmodIsAlwaysNonNegativeAndConsistent) {
  for (i64 a = -25; a <= 25; ++a) {
    for (i64 b : {-7, -3, 2, 5, 9}) {
      i64 r = emod(a, b);
      EXPECT_GE(r, 0);
      EXPECT_LT(r, b < 0 ? -b : b);
      if (b > 0) {
        EXPECT_EQ(floordiv(a, b) * b + r, a);
      }
    }
  }
}

TEST(Math, DivisionByZeroThrows) {
  EXPECT_THROW(floordiv(1, 0), InternalError);
  EXPECT_THROW(ceildiv(1, 0), InternalError);
  EXPECT_THROW(emod(1, 0), InternalError);
}

TEST(Math, GcdBasics) {
  EXPECT_EQ(gcd(12, 18), 6);
  EXPECT_EQ(gcd(-12, 18), 6);
  EXPECT_EQ(gcd(12, -18), 6);
  EXPECT_EQ(gcd(0, 5), 5);
  EXPECT_EQ(gcd(5, 0), 5);
  EXPECT_EQ(gcd(0, 0), 0);
  EXPECT_EQ(gcd(17, 13), 1);
}

TEST(Math, LcmBasics) {
  EXPECT_EQ(lcm(4, 6), 12);
  EXPECT_EQ(lcm(0, 6), 0);
  EXPECT_EQ(lcm(-4, 6), 12);
}

TEST(Math, CheckedOpsThrowOnOverflow) {
  i64 big = std::numeric_limits<i64>::max();
  EXPECT_THROW(mul_checked(big, 2), InternalError);
  EXPECT_THROW(add_checked(big, 1), InternalError);
  EXPECT_EQ(mul_checked(1 << 20, 1 << 20), i64{1} << 40);
}

TEST(Math, IsqrtExactAroundPerfectSquares) {
  for (i64 r = 0; r <= 1000; ++r) {
    i64 sq = r * r;
    EXPECT_EQ(isqrt(sq), r);
    if (sq > 0) {
      EXPECT_EQ(isqrt(sq - 1), r - 1);
    }
    if (sq + 1 < (r + 1) * (r + 1)) {
      EXPECT_EQ(isqrt(sq + 1), r);
    }
  }
  EXPECT_THROW(isqrt(-1), InternalError);
}

TEST(Format, JoinAndCommas) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ", "), "");
  EXPECT_EQ(with_commas(1234567), "1,234,567");
  EXPECT_EQ(with_commas(-1234), "-1,234");
  EXPECT_EQ(with_commas(7), "7");
  EXPECT_EQ(with_commas(0), "0");
}

TEST(Format, PaddingAndRepeat) {
  EXPECT_EQ(pad_left("ab", 5), "   ab");
  EXPECT_EQ(pad_right("ab", 5), "ab   ");
  EXPECT_EQ(pad_left("abcdef", 3), "abcdef");
  EXPECT_EQ(repeat("ab", 3), "ababab");
  EXPECT_TRUE(contains("hello world", "lo w"));
  EXPECT_FALSE(contains("hello", "world"));
}

TEST(Rng, DeterministicAndInRange) {
  Rng a(42), b(42);
  for (int k = 0; k < 100; ++k) EXPECT_EQ(a.next_u64(), b.next_u64());
  Rng r(7);
  for (int k = 0; k < 1000; ++k) {
    i64 v = r.uniform(-5, 9);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 9);
    double d = r.uniform01();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, UniformCoversRange) {
  Rng r(3);
  bool seen[10] = {};
  for (int k = 0; k < 2000; ++k) seen[r.uniform(0, 9)] = true;
  for (bool s : seen) EXPECT_TRUE(s);
}

TEST(Stats, AccumulatorSummary) {
  Accumulator acc;
  EXPECT_EQ(acc.count(), 0);
  EXPECT_EQ(acc.mean(), 0.0);
  acc.add(2.0);
  acc.add(4.0);
  acc.add(9.0);
  EXPECT_EQ(acc.count(), 3);
  EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
  EXPECT_DOUBLE_EQ(acc.min(), 2.0);
  EXPECT_DOUBLE_EQ(acc.max(), 9.0);
  EXPECT_TRUE(contains(acc.summary(), "n=3"));
}

TEST(Error, RequireThrowsWithMessage) {
  EXPECT_NO_THROW(require(true, "fine"));
  try {
    require(false, "broken invariant");
    FAIL() << "expected InternalError";
  } catch (const InternalError& e) {
    EXPECT_TRUE(contains(e.what(), "broken invariant"));
  }
}

TEST(Error, ParseErrorCarriesPosition) {
  ParseError e("bad token", 3, 14);
  EXPECT_EQ(e.line(), 3);
  EXPECT_EQ(e.col(), 14);
  EXPECT_TRUE(contains(e.what(), "3:14"));
}

TEST(ThreadPool, RunsEveryRankExactlyOnce) {
  for (int threads : {1, 2, 4}) {
    support::ThreadPool pool(threads);
    const i64 n = 103;
    std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n));
    for (auto& h : hits) h.store(0);
    pool.parallel_for_ranks(
        n, [&](i64 r) { ++hits[static_cast<std::size_t>(r)]; });
    for (i64 r = 0; r < n; ++r)
      EXPECT_EQ(hits[static_cast<std::size_t>(r)].load(), 1) << r;
  }
}

TEST(ThreadPool, EmptyAndSingleRangesRunInline) {
  support::ThreadPool pool(4);
  int calls = 0;
  pool.parallel_for_ranks(0, [&](i64) { ++calls; });
  EXPECT_EQ(calls, 0);
  pool.parallel_for_ranks(1, [&](i64 r) {
    EXPECT_EQ(r, 0);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPool, CountsTheRanksTheCallerRanItself) {
  // Inline calls (one lane, or one rank) run every rank on the caller.
  support::ThreadPool single(1);
  single.parallel_for_ranks(7, [](i64) {});
  EXPECT_EQ(single.caller_ranks(), 7);
  support::ThreadPool pool(4);
  pool.parallel_for_ranks(1, [](i64) {});
  EXPECT_EQ(pool.caller_ranks(), 1);
  pool.parallel_for_ranks(0, [](i64) {});
  EXPECT_EQ(pool.caller_ranks(), 1);
  // Otherwise the caller runs between none and all of a call's ranks,
  // however quickly the lanes pick theirs up.
  for (i64 n : {2, 4, 9, 64}) {
    const i64 before = pool.caller_ranks();
    pool.parallel_for_ranks(n, [](i64) {});
    EXPECT_GE(pool.caller_ranks(), before) << n;
    EXPECT_LE(pool.caller_ranks() - before, n) << n;
  }
}

TEST(ThreadPool, ReusableAcrossManyLoops) {
  support::ThreadPool pool(3);
  std::atomic<i64> total{0};
  for (int round = 0; round < 50; ++round)
    pool.parallel_for_ranks(7, [&](i64 r) { total += r; });
  EXPECT_EQ(total.load(), 50 * (0 + 1 + 2 + 3 + 4 + 5 + 6));
}

TEST(ThreadPool, RethrowsTheLowestFailingRank) {
  // A serial ascending loop would surface rank 2 first; the pool must
  // match that regardless of which lane hits its error first.
  support::ThreadPool pool(4);
  try {
    pool.parallel_for_ranks(16, [&](i64 r) {
      if (r >= 2 && r % 2 == 0)
        throw RuntimeFault("rank " + std::to_string(r) + " failed");
    });
    FAIL() << "expected RuntimeFault";
  } catch (const RuntimeFault& e) {
    EXPECT_TRUE(contains(e.what(), "rank 2 failed"));
  }
}

namespace {

// Sleeps until `pool` counts one park per worker lane more than
// `before`, read before the last call: every lane parks once per idle
// stretch after the spin window, so this waits the window out without
// timing it.
void wait_until_parked(const support::ThreadPool& pool, i64 before) {
  const i64 lanes = pool.size() - 1;
  for (int i = 0; i < 20000 && pool.parks() < before + lanes; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_GE(pool.parks(), before + lanes);
}

// Runs one call of n ranks and checks each ran exactly once.
void expect_every_rank_once(support::ThreadPool& pool, i64 n) {
  std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n));
  for (auto& h : hits) h.store(0);
  pool.parallel_for_ranks(
      n, [&](i64 r) { ++hits[static_cast<std::size_t>(r)]; });
  for (i64 r = 0; r < n; ++r)
    ASSERT_EQ(hits[static_cast<std::size_t>(r)].load(), 1)
        << "rank " << r << " of " << n;
}

void expect_lowest_failure_rethrown(support::ThreadPool& pool) {
  try {
    pool.parallel_for_ranks(16, [&](i64 r) {
      if (r >= 3 && r % 3 == 0)
        throw RuntimeFault("rank " + std::to_string(r) + " failed");
    });
    FAIL() << "expected RuntimeFault";
  } catch (const RuntimeFault& e) {
    EXPECT_TRUE(contains(e.what(), "rank 3 failed")) << e.what();
  }
}

}  // namespace

TEST(ThreadPool, BackToBackCallsWhileLanesSpin) {
  // Calls that follow each other within the spin window find the lanes
  // still polling the generation word.
  support::ThreadPool pool(4);
  for (int round = 0; round < 2000; ++round)
    expect_every_rank_once(pool, 4);
  expect_lowest_failure_rethrown(pool);
  expect_every_rank_once(pool, 4);  // the pool survives the rethrow
  EXPECT_EQ(pool.joins(), 2002);
}

TEST(ThreadPool, CallsAfterLanesParkWakeThem) {
  support::ThreadPool pool(3);
  i64 before = 0;
  for (int round = 0; round < 3; ++round) {
    wait_until_parked(pool, before);
    before = pool.parks();
    expect_every_rank_once(pool, 5);
  }
  wait_until_parked(pool, before);
  expect_lowest_failure_rethrown(pool);
  EXPECT_GE(pool.parks(), 1);
}

TEST(ThreadPool, DestroysWhileLanesSpinOrPark) {
  { support::ThreadPool never_used(4); }
  {
    support::ThreadPool spinning(4);
    expect_every_rank_once(spinning, 8);
  }  // destroyed right after a call, lanes still polling
  {
    support::ThreadPool parked(4);
    expect_every_rank_once(parked, 8);
    wait_until_parked(parked, 0);
  }  // destroyed with every lane asleep
}

TEST(ThreadPool, ConcurrentCallersSerialize) {
  support::ThreadPool pool(4);
  std::vector<std::thread> callers;
  std::atomic<i64> total{0};
  for (int c = 0; c < 2; ++c)
    callers.emplace_back([&] {
      for (int round = 0; round < 500; ++round) {
        std::vector<int> mine(6, 0);  // unshared: one call at a time
        pool.parallel_for_ranks(6, [&](i64 r) {
          ++mine[static_cast<std::size_t>(r)];
          total += r;
        });
        for (int h : mine) EXPECT_EQ(h, 1);
      }
    });
  for (std::thread& t : callers) t.join();
  EXPECT_EQ(total.load(), 2 * 500 * (0 + 1 + 2 + 3 + 4 + 5));
  EXPECT_EQ(pool.joins(), 1000);
}

TEST(ThreadPool, RankCountsBelowAndFarAboveTheLanes) {
  support::ThreadPool pool(4);
  for (i64 n : {2, 3, 4, 5, 4096}) expect_every_rank_once(pool, n);
}

namespace {
bool path_exists(const std::string& p) {
  struct stat st{};
  return ::lstat(p.c_str(), &st) == 0;
}
}  // namespace

TEST(ScopedDir, MakeCreatesAndDestructorRemovesTheTree) {
  std::string path;
  {
    support::ScopedDir dir = support::ScopedDir::make("vcal-sd-test-");
    path = dir.path();
    EXPECT_TRUE(dir.owns());
    EXPECT_TRUE(path_exists(path));
    // Nested content goes down with the directory.
    ASSERT_EQ(::mkdir((path + "/sub").c_str(), 0700), 0);
    std::ofstream(path + "/sub/file.txt") << "x";
    std::ofstream(path + "/top.txt") << "y";
    ASSERT_EQ(::symlink("/nonexistent-target", (path + "/link").c_str()),
              0);
  }
  EXPECT_FALSE(path_exists(path));
}

TEST(ScopedDir, ReleaseKeepsTheDirectory) {
  std::string path;
  {
    support::ScopedDir dir = support::ScopedDir::make("vcal-sd-test-");
    path = dir.release();
    EXPECT_FALSE(dir.owns());
  }
  EXPECT_TRUE(path_exists(path));
  support::ScopedDir::remove_tree(path);
  EXPECT_FALSE(path_exists(path));
}

TEST(ScopedDir, AdoptTakesOwnershipAndMoveTransfersIt) {
  support::ScopedDir outer = support::ScopedDir::make("vcal-sd-test-");
  std::string inner_path = outer.path() + "/inner";
  ASSERT_EQ(::mkdir(inner_path.c_str(), 0700), 0);
  {
    support::ScopedDir a = support::ScopedDir::adopt(inner_path);
    support::ScopedDir b = std::move(a);
    EXPECT_FALSE(a.owns());  // NOLINT(bugprone-use-after-move): pinned
    EXPECT_TRUE(b.owns());
    EXPECT_EQ(b.path(), inner_path);
  }
  EXPECT_FALSE(path_exists(inner_path));

  // A symlinked directory is unlinked, never followed: the target
  // survives removal of a tree that links to it.
  std::string target = outer.path() + "/target";
  ASSERT_EQ(::mkdir(target.c_str(), 0700), 0);
  std::ofstream(target + "/keep.txt") << "z";
  std::string linked = outer.path() + "/linked";
  ASSERT_EQ(::mkdir(linked.c_str(), 0700), 0);
  ASSERT_EQ(::symlink(target.c_str(), (linked + "/escape").c_str()), 0);
  support::ScopedDir::remove_tree(linked);
  EXPECT_FALSE(path_exists(linked));
  EXPECT_TRUE(path_exists(target + "/keep.txt"));
}

TEST(ScopedDir, ResetRemovesEagerlyAndIsIdempotent) {
  support::ScopedDir dir = support::ScopedDir::make("vcal-sd-test-");
  std::string path = dir.path();
  dir.reset();
  EXPECT_FALSE(dir.owns());
  EXPECT_FALSE(path_exists(path));
  dir.reset();  // no-op
}

TEST(ThreadPool, SharedPoolExists) {
  support::ThreadPool& pool = support::ThreadPool::shared();
  EXPECT_GE(pool.size(), 1);
  std::atomic<int> calls{0};
  pool.parallel_for_ranks(5, [&](i64) { ++calls; });
  EXPECT_EQ(calls.load(), 5);
}

TEST(Toolchain, RunCommandCapturesOutputAndReportsExitStatus) {
  support::ScopedDir dir = support::ScopedDir::make("vcal-tc-test-");
  std::string log = dir.path() + "/true.log";
  EXPECT_TRUE(support::run_command({"true"}, log));
  EXPECT_TRUE(path_exists(log));
  EXPECT_FALSE(support::run_command({"false"}));
  // stdout lands in the log file.
  std::string echo_log = dir.path() + "/echo.log";
  ASSERT_TRUE(support::run_command({"uname"}, echo_log));
  std::ifstream in(echo_log);
  std::string word;
  in >> word;
  EXPECT_FALSE(word.empty());
}

TEST(Toolchain, RunCommandRejectsEmptyAndMissingBinaries) {
  EXPECT_FALSE(support::run_command({}));
  EXPECT_FALSE(support::run_command({"/nonexistent/vcal-no-such-tool"}));
}

TEST(Toolchain, ProbeToolAnswersForRealToolsOnly) {
  EXPECT_FALSE(support::probe_tool(""));
  EXPECT_FALSE(support::probe_tool("/nonexistent/vcal-no-such-cc"));
  // `uname --version` exits 0 on GNU systems; don't assert it — just
  // assert the probe agrees with itself when repeated (cached paths
  // elsewhere depend on probe determinism).
  bool first = support::probe_tool("uname");
  EXPECT_EQ(support::probe_tool("uname"), first);
}

TEST(Toolchain, SystemCCompilerIsStableAndConsistent) {
  const std::string& cc1 = support::system_c_compiler();
  const std::string& cc2 = support::system_c_compiler();
  EXPECT_EQ(cc1, cc2);  // probed once, cached
  EXPECT_EQ(support::c_toolchain_available(), !cc1.empty());
  if (!cc1.empty()) {
    EXPECT_TRUE(support::probe_tool(cc1));
  }
}

TEST(Toolchain, MpiToolchainDetectionIsConsistent) {
  const support::MpiToolchain& mpi = support::system_mpi_toolchain();
  // available() means both halves were found; either way the answer is
  // internally consistent and stable across calls.
  EXPECT_EQ(mpi.available(), !mpi.mpicc.empty() && !mpi.mpirun.empty());
  const support::MpiToolchain& again = support::system_mpi_toolchain();
  EXPECT_EQ(mpi.mpicc, again.mpicc);
  EXPECT_EQ(mpi.mpirun, again.mpirun);
}

}  // namespace
}  // namespace vcal
