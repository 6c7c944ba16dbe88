#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "src/util/checksum.h"
#include "src/util/prng.h"
#include "src/util/result.h"
#include "src/util/time.h"
#include "src/util/units.h"
#include "src/util/worker_pool.h"

namespace vafs {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.code(), ErrorCode::kOk);
  EXPECT_EQ(status.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status status(ErrorCode::kNoSpace, "disk full");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), ErrorCode::kNoSpace);
  EXPECT_EQ(status.message(), "disk full");
  EXPECT_EQ(status.ToString(), "NO_SPACE: disk full");
}

TEST(StatusTest, EveryCodeHasAName) {
  for (ErrorCode code :
       {ErrorCode::kOk, ErrorCode::kInvalidArgument, ErrorCode::kNotFound,
        ErrorCode::kPermissionDenied, ErrorCode::kAdmissionRejected, ErrorCode::kNoSpace,
        ErrorCode::kFailedPrecondition, ErrorCode::kAlreadyExists, ErrorCode::kOutOfRange,
        ErrorCode::kInternal}) {
    EXPECT_STRNE(ErrorCodeName(code), "UNKNOWN");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> result(42);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, 42);
  EXPECT_TRUE(result.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> result(ErrorCode::kNotFound, "missing");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), ErrorCode::kNotFound);
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> result(std::make_unique<int>(7));
  ASSERT_TRUE(result.ok());
  std::unique_ptr<int> value = std::move(result).value();
  EXPECT_EQ(*value, 7);
}

TEST(TimeTest, SecondsToUsecRoundsUp) {
  EXPECT_EQ(SecondsToUsec(1.0), 1'000'000);
  EXPECT_EQ(SecondsToUsec(0.0000015), 2);  // rounds up, never early
  EXPECT_EQ(SecondsToUsec(0.0), 0);
}

TEST(TimeTest, RoundTrip) {
  EXPECT_DOUBLE_EQ(UsecToSeconds(SecondsToUsec(2.5)), 2.5);
  EXPECT_EQ(MillisToUsec(3.0), 3000);
}

TEST(UnitsTest, Conversions) {
  EXPECT_EQ(KiB(4), 4096);
  EXPECT_EQ(MiB(1), 1048576);
  EXPECT_EQ(BytesToBits(512), 4096);
  EXPECT_EQ(BitsToBytesCeil(9), 2);
  EXPECT_EQ(BitsToBytesCeil(8), 1);
  EXPECT_EQ(CeilDiv(10, 3), 4);
  EXPECT_EQ(CeilDiv(9, 3), 3);
}

TEST(PrngTest, DeterministicForSeed) {
  Prng a(123);
  Prng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(PrngTest, DifferentSeedsDiffer) {
  Prng a(1);
  Prng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) {
      ++same;
    }
  }
  EXPECT_EQ(same, 0);
}

TEST(PrngTest, RangesRespected) {
  Prng prng(7);
  for (int i = 0; i < 1000; ++i) {
    const int64_t value = prng.NextInRange(-5, 5);
    EXPECT_GE(value, -5);
    EXPECT_LE(value, 5);
    const double d = prng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(PrngTest, CoversRange) {
  Prng prng(99);
  std::set<int64_t> seen;
  for (int i = 0; i < 200; ++i) {
    seen.insert(prng.NextInRange(0, 9));
  }
  EXPECT_EQ(seen.size(), 10u);
}

TEST(PrngTest, NextBelowIsUniformChiSquared) {
  // Pearson chi-squared over 10 cells, 9 degrees of freedom. The 0.999
  // quantile is 27.88; a correct generator fails each seed with p < 0.001,
  // and the old `Next() % bound` bias would not trip this for small
  // bounds, so the large-bound test below is the sharp one.
  for (uint64_t seed : {11ULL, 222ULL, 3333ULL}) {
    Prng prng(seed);
    constexpr int kCells = 10;
    constexpr int kDraws = 100'000;
    int64_t observed[kCells] = {};
    for (int i = 0; i < kDraws; ++i) {
      ++observed[prng.NextBelow(kCells)];
    }
    const double expected = static_cast<double>(kDraws) / kCells;
    double chi2 = 0.0;
    for (int64_t count : observed) {
      const double diff = static_cast<double>(count) - expected;
      chi2 += diff * diff / expected;
    }
    EXPECT_LT(chi2, 27.88) << "seed " << seed;
  }
}

TEST(PrngTest, NextBelowUnbiasedForHugeBound) {
  // bound = 3 * 2^62: under modulo reduction, residues below
  // 2^64 - bound = 2^62 are hit twice as often, putting HALF of all draws
  // below 2^62 instead of the uniform third. Lemire rejection must keep
  // the observed fraction at ~1/3.
  const uint64_t bound = 3ULL << 62;
  const uint64_t cutoff = 1ULL << 62;
  Prng prng(424242);
  constexpr int kDraws = 30'000;
  int below = 0;
  for (int i = 0; i < kDraws; ++i) {
    const uint64_t value = prng.NextBelow(bound);
    ASSERT_LT(value, bound);
    if (value < cutoff) {
      ++below;
    }
  }
  const double fraction = static_cast<double>(below) / kDraws;
  EXPECT_NEAR(fraction, 1.0 / 3.0, 0.02);  // biased reduction gives 0.5
}

TEST(PrngTest, NextInRangeFullDomainDoesNotOverflow) {
  // hi - lo + 1 wraps to 0 over the full int64 domain; the draw must not
  // trip signed-overflow UB and should produce both signs.
  Prng prng(5);
  bool saw_negative = false;
  bool saw_positive = false;
  for (int i = 0; i < 200; ++i) {
    const int64_t value =
        prng.NextInRange(std::numeric_limits<int64_t>::min(), std::numeric_limits<int64_t>::max());
    saw_negative = saw_negative || value < 0;
    saw_positive = saw_positive || value > 0;
  }
  EXPECT_TRUE(saw_negative);
  EXPECT_TRUE(saw_positive);
  // Degenerate single-point intervals at the extremes.
  EXPECT_EQ(prng.NextInRange(std::numeric_limits<int64_t>::min(),
                             std::numeric_limits<int64_t>::min()),
            std::numeric_limits<int64_t>::min());
  EXPECT_EQ(prng.NextInRange(std::numeric_limits<int64_t>::max(),
                             std::numeric_limits<int64_t>::max()),
            std::numeric_limits<int64_t>::max());
}

TEST(PrngTest, NextInRangeCrossingZeroStaysInBounds) {
  Prng prng(77);
  for (int i = 0; i < 2000; ++i) {
    const int64_t value = prng.NextInRange(-1'000'000'000'000, 1'000'000'000'000);
    EXPECT_GE(value, -1'000'000'000'000);
    EXPECT_LE(value, 1'000'000'000'000);
  }
}

std::vector<uint8_t> RandomBytes(uint64_t seed, size_t size) {
  Prng prng(seed);
  std::vector<uint8_t> bytes(size);
  for (auto& byte : bytes) byte = static_cast<uint8_t>(prng.Next());
  return bytes;
}

// CRC-64/XZ straight from its definition, one bit at a time: the
// reference every table-driven step must reproduce.
uint64_t BitwiseCrc64(std::span<const uint8_t> bytes) {
  uint64_t crc = ~0ULL;
  for (uint8_t byte : bytes) {
    crc ^= byte;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1) ? (crc >> 1) ^ 0xC96C'5795'D787'0F42ULL : crc >> 1;
    }
  }
  return ~crc;
}

TEST(ChecksumTest, CheckValue) {
  const std::string check = "123456789";
  EXPECT_EQ(Crc64(std::span(reinterpret_cast<const uint8_t*>(check.data()), check.size())),
            0x995D'C9BB'DF19'39FAULL);
  EXPECT_EQ(Crc64({}), 0u);
}

TEST(ChecksumTest, MatchesBitwiseReference) {
  // Every length up to 300 at every start offset within a 16-byte step, so
  // each (main-loop steps, tail length, alignment) combination is covered.
  const std::vector<uint8_t> data = RandomBytes(4242, 300 + 15);
  for (size_t offset = 0; offset < 16; ++offset) {
    for (size_t length = 0; length <= 300; ++length) {
      const std::span<const uint8_t> bytes(data.data() + offset, length);
      ASSERT_EQ(Crc64(bytes), BitwiseCrc64(bytes)) << "offset " << offset << " length " << length;
    }
  }
  // One vod_array transfer's worth.
  const std::vector<uint8_t> transfer = RandomBytes(48, 48 * 1024);
  EXPECT_EQ(Crc64(transfer), BitwiseCrc64(transfer));
}

TEST(ChecksumTest, UpdateIsSplitInvariant) {
  const std::vector<uint8_t> data = RandomBytes(1024, 1024);
  const uint64_t whole = Crc64(data);
  const std::span<const uint8_t> bytes(data);
  for (size_t split = 0; split <= bytes.size(); ++split) {
    const uint64_t head = Crc64Update(kCrc64Init, bytes.first(split));
    ASSERT_EQ(Crc64Finish(Crc64Update(head, bytes.subspan(split))), whole) << "split " << split;
  }
}

TEST(WorkerPoolTest, RunAllExecutesEveryTaskAndJoins) {
  WorkerPool pool(4);
  EXPECT_EQ(pool.workers(), 4);
  std::atomic<int> done{0};
  std::vector<WorkerPool::Task> tasks;
  for (int i = 0; i < 100; ++i) {
    tasks.push_back([&done] { done.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.RunAll(tasks);
  // RunAll is a barrier: every task observed complete at return.
  EXPECT_EQ(done.load(), 100);
}

TEST(WorkerPoolTest, RunAllCallerTakesQueuedTasksWhileWorkersAreBusy) {
  // Hold every worker with the tasks of a RunAll issued from a second
  // thread; this thread's RunAll must then run its tasks on the caller,
  // taking them from the queue rather than sleeping until a worker frees
  // up. The last task releases the workers. A watchdog releases them too
  // after five seconds, so a RunAll that waits for workers fails the test
  // instead of hanging it.
  constexpr int kWorkers = 2;
  WorkerPool pool(kWorkers);
  std::atomic<bool> release{false};
  std::atomic<int> held{0};
  // The holder runs one of these tasks itself and the workers the rest.
  std::thread holder([&pool, &release, &held] {
    std::vector<WorkerPool::Task> hold;
    for (int i = 0; i <= kWorkers; ++i) {
      hold.push_back([&release, &held] {
        held.fetch_add(1);
        while (!release.load()) {
          std::this_thread::yield();
        }
      });
    }
    pool.RunAll(hold);
  });
  while (held.load() < kWorkers + 1) {
    std::this_thread::yield();
  }
  std::thread watchdog([&release] {
    for (int i = 0; i < 500 && !release.load(); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    release.store(true);
  });
  std::vector<std::thread::id> ran_on(3);
  std::vector<WorkerPool::Task> tasks;
  for (size_t i = 0; i < ran_on.size(); ++i) {
    tasks.push_back([&ran_on, &release, i] {
      ran_on[i] = std::this_thread::get_id();
      if (i + 1 == ran_on.size()) {
        release.store(true);
      }
    });
  }
  pool.RunAll(tasks);
  holder.join();
  watchdog.join();
  for (const std::thread::id& id : ran_on) {
    EXPECT_EQ(id, std::this_thread::get_id());
  }
}

TEST(WorkerPoolTest, SingleWorkerRunsInline) {
  WorkerPool pool(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::thread::id ran_on;
  std::vector<WorkerPool::Task> tasks = {[&ran_on] { ran_on = std::this_thread::get_id(); }};
  pool.RunAll(tasks);
  EXPECT_EQ(ran_on, caller);
}

TEST(WorkerPoolTest, WorkersFromEnvClampsAndDefaults) {
  ASSERT_EQ(unsetenv("VAFS_WORKERS"), 0);
  EXPECT_EQ(WorkerPool::WorkersFromEnv(), 1);
  ASSERT_EQ(setenv("VAFS_WORKERS", "8", 1), 0);
  EXPECT_EQ(WorkerPool::WorkersFromEnv(), 8);
  ASSERT_EQ(setenv("VAFS_WORKERS", "0", 1), 0);
  EXPECT_EQ(WorkerPool::WorkersFromEnv(), 1);
  ASSERT_EQ(setenv("VAFS_WORKERS", "1000", 1), 0);
  EXPECT_EQ(WorkerPool::WorkersFromEnv(), 64);
  ASSERT_EQ(setenv("VAFS_WORKERS", "nonsense", 1), 0);
  EXPECT_EQ(WorkerPool::WorkersFromEnv(), 1);
  ASSERT_EQ(unsetenv("VAFS_WORKERS"), 0);
}

}  // namespace
}  // namespace vafs
