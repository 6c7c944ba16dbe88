// Shared types of the vaFS benchmark binary.
//
// A run repeats one workload's batch (set-up, streaming, catalog
// maintenance) on one seed. Timed batches attach nothing of the
// benchmark's own to the library; a traced batch attaches a Ledger
// (ledger.h) that splits the same work into per-layer numbers.
#ifndef VAFSBENCH_BENCH_H_
#define VAFSBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace vafsbench {

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
      .count();
}

// Host nanoseconds spent in the benchmark's own calls into the library and,
// in traced batches, in its own sink. Only the traced batch's ledger reads
// it: its phase intervals subtract the counter's growth, so they hold only
// the library's unprompted work. Timed walls subtract nothing.
extern int64_t g_excluded_ns;

// Quantile by linear interpolation between order statistics (the
// "inclusive" method of Python's statistics.quantiles).
double Quantile(std::vector<double> values, double q);
double Median(const std::vector<double>& values);

// FNV-1a folding of raw values, for order-sensitive receipts.
inline uint64_t Fold(uint64_t digest, uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    digest = (digest ^ ((value >> (8 * i)) & 0xFF)) * 1099511628211ULL;
  }
  return digest;
}
inline constexpr uint64_t kFnvBasis = 14695981039346656037ULL;
uint64_t FoldText(uint64_t digest, const std::string& text);

// Post-run receipts. Each is computed after the streaming loop or from
// values the workload already holds, so a timed batch pays nothing for
// them while it is measured. They must agree between every batch of one
// seed, timed or traced.
struct Receipts {
  uint64_t slo = 0;        // SLO snapshot JSON (telemetry workloads)
  uint64_t requests = 0;   // folded per-request RequestStats
  int64_t completion = 0;  // latest request completion, simulated usec
  uint64_t payload = 0;    // scheduler payload CRC digest
  uint64_t ropes = 0;      // ReadRopeBlocks CRCs after every recovery
  bool operator==(const Receipts&) const = default;
};

class Ledger;

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

// Everything one batch measured. Per-batch scalars are reduced to a
// median across the batches of a run; sample lists are pooled.
struct BatchResult {
  double setup_s = 0.0;
  double loop_s = 0.0;  // streaming loop wall, submit calls included
  std::vector<double> round_ms;
  int64_t late_blocks = 0;
  int64_t delivered_blocks = 0;
  std::vector<double> startup_ms;
  std::vector<double> edit_us;
  std::map<std::string, std::vector<double>> edit_us_by_kind;
  std::vector<double> checkpoint_ms;
  std::vector<double> recover_ms;
  std::vector<double> fsck_ms;
  std::vector<double> play_us;
  std::vector<double> open_us;
  int64_t edits = 0;
  int64_t copy_blocks = 0;
  double bytes_stored_per_user_byte = 0.0;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> failures;  // first few messages, for stderr
  Receipts receipts;

  void Fail(const std::string& what);
};

bool KnownWorkload(const std::string& name);

// Worker count of the vod_array pool: min(4, nproc).
int ArrayWorkers();

// Runs one batch of `workload` on `seed`. `ledger` is null in timed
// batches. `workers` overrides the vod_array pool size (0 = ArrayWorkers()).
BatchResult RunBatch(const std::string& workload, uint64_t seed, Ledger* ledger, int workers = 0);

}  // namespace vafsbench

#endif  // VAFSBENCH_BENCH_H_
