// vafsbench: runs one workload on one seed for a fixed host time and
// prints one JSON result line last (see README.md).
//
//   vafsbench --workload vod_flash --seed 1 --seconds 30 --trace 0
//
// --trace 0 repeats timed batches (nothing of the benchmark's attached to
// the library) and prints the end-to-end metrics. --trace 1 runs untraced
// batches for a baseline, then one traced batch of the same seed, and
// prints the per-layer metrics. Receipts must agree between every batch.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "vafsbench/bench.h"
#include "vafsbench/ledger.h"

namespace vafsbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 20261017;
  double seconds = 10.0;
  int trace = 0;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::atof(value);
    } else if (key == "--trace") {
      args->trace = std::atoi(value);
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 && KnownWorkload(args->workload) && args->seconds > 0.0 &&
         (args->trace == 0 || args->trace == 1);
}

// Host-speed probe: a fixed amount of ordered-map, hash-map and sort work on
// a few MiB, built only from the standard library, so no change to the
// library under test moves it. Its working set is about the size of a
// last-level cache, so it slows with the host's memory contention as the
// workloads do.
volatile uint64_t g_probe_sink = 0;

double ProbeMs() {
  const int64_t start = NowNs();
  uint64_t x = 0x9e3779b97f4a7c15ULL;
  std::vector<uint64_t> keys(1 << 15);
  for (uint64_t& key : keys) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    key = x;
  }
  std::map<uint64_t, uint64_t> tree;
  std::unordered_map<uint64_t, uint64_t> hash;
  for (size_t i = 0; i < keys.size(); ++i) {
    tree.emplace(keys[i], i);
    hash.emplace(keys[i], i);
  }
  uint64_t sum = 0;
  for (int pass = 0; pass < 2; ++pass) {
    for (const uint64_t key : keys) {
      sum += tree.find(key)->second + hash.find(key)->second;
    }
  }
  std::sort(keys.begin(), keys.end());
  g_probe_sink = sum + keys[keys.size() / 2];
  return static_cast<double>(NowNs() - start) / 1e6;
}

// Host-timed end-to-end metrics are reported at the speed of a reference
// host, one whose probe takes kReferenceProbeMs: each is scaled by
// kReferenceProbeMs / (the run's median probe). Probes run between batches,
// kProbesPerGap at a time, so the median follows the host's speed over the
// whole run. A shared host's speed can drift by 2x between runs;
// scaling keeps two runs of the same code comparable.
constexpr double kReferenceProbeMs = 40.0;
constexpr int kProbesPerGap = 3;

void Probe(std::vector<double>* probes) {
  for (int i = 0; i < kProbesPerGap; ++i) {
    probes->push_back(ProbeMs());
  }
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

// Pools a sample list across batches.
std::vector<double> Pool(const std::vector<BatchResult>& batches,
                         std::vector<double> BatchResult::*member) {
  std::vector<double> all;
  for (const BatchResult& batch : batches) {
    all.insert(all.end(), (batch.*member).begin(), (batch.*member).end());
  }
  return all;
}

// The mean over batches of one quantile of each batch's samples. A batch's
// small calls (edits, checkpoints, recoveries, fsck) all run at one of two
// speed levels about 1.7x apart on the vod workloads, a level that changes
// from batch to batch with the same seed and the process pinned to one CPU.
// A run's pooled median jumps between the two levels with the share of slow
// batches; this mean moves in proportion to it.
double BatchMean(const std::vector<BatchResult>& batches,
                 std::vector<double> BatchResult::*member, double q) {
  double sum = 0.0;
  for (const BatchResult& batch : batches) {
    sum += Quantile(batch.*member, q);
  }
  return sum / static_cast<double>(batches.size());
}

// Every batch of one seed must agree on every receipt and simulated
// outcome; each disagreement is one failed operation.
void CompareReceipts(const std::vector<BatchResult>& batches, int64_t* attempted,
                     int64_t* failed) {
  for (size_t i = 1; i < batches.size(); ++i) {
    const BatchResult& a = batches.front();
    const BatchResult& b = batches[i];
    ++*attempted;
    const bool same = a.receipts == b.receipts && a.late_blocks == b.late_blocks &&
                      a.delivered_blocks == b.delivered_blocks &&
                      a.startup_ms == b.startup_ms && a.copy_blocks == b.copy_blocks &&
                      a.bytes_stored_per_user_byte == b.bytes_stored_per_user_byte;
    if (!same) {
      ++*failed;
      std::fprintf(stderr,
                   "receipt mismatch between batch 0 and batch %zu: requests %016" PRIx64
                   "/%016" PRIx64 " slo %016" PRIx64 "/%016" PRIx64 " payload %016" PRIx64
                   "/%016" PRIx64 " ropes %016" PRIx64 "/%016" PRIx64 "\n",
                   i, a.receipts.requests, b.receipts.requests, a.receipts.slo, b.receipts.slo,
                   a.receipts.payload, b.receipts.payload, a.receipts.ropes, b.receipts.ropes);
    }
  }
}

// `stream_rounds` is the exact count of streams serviced, summed over
// rounds, from the counting batch of the same seed. `scale` converts host
// times to the reference host's speed.
std::vector<Metric> EndToEnd(const std::vector<BatchResult>& batches, double stream_rounds,
                             double scale) {
  std::vector<double> setup;
  std::vector<double> per_stream_round;
  for (const BatchResult& batch : batches) {
    setup.push_back(batch.setup_s);
    per_stream_round.push_back(stream_rounds > 0 ? batch.loop_s * 1e6 / stream_rounds : 0.0);
  }
  const BatchResult& first = batches.front();
  const std::vector<double> rounds = Pool(batches, &BatchResult::round_ms);
  return {
      {"setup_s", scale * Median(setup), "s"},
      {"host_us_per_stream_round", scale * Median(per_stream_round), "us"},
      {"round_host_ms_p50", scale * Quantile(rounds, 0.5), "ms"},
      {"round_host_ms_p90", scale * Quantile(rounds, 0.9), "ms"},
      {"sim_ontime_block_ratio",
       first.delivered_blocks > 0
           ? 1.0 - static_cast<double>(first.late_blocks) /
                       static_cast<double>(first.delivered_blocks)
           : 0.0,
       "ratio"},
      {"sim_startup_ms_p90", Quantile(first.startup_ms, 0.9), "ms"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
      {"edit_op_us_p50", scale * BatchMean(batches, &BatchResult::edit_us, 0.5), "us"},
      {"edit_op_us_p99", scale * BatchMean(batches, &BatchResult::edit_us, 0.99), "us"},
      {"checkpoint_ms_p50", scale * BatchMean(batches, &BatchResult::checkpoint_ms, 0.5), "ms"},
      {"recover_ms_p50", scale * BatchMean(batches, &BatchResult::recover_ms, 0.5), "ms"},
      {"fsck_ms_p50", scale * BatchMean(batches, &BatchResult::fsck_ms, 0.5), "ms"},
      {"bytes_stored_per_user_byte", first.bytes_stored_per_user_byte, "ratio"},
  };
}

// One strict-audit check per traced batch; every violation fails it.
void CountAudit(const Ledger& ledger, int64_t* attempted, int64_t* failed) {
  ++*attempted;
  if (ledger.audit_violations() > 0) {
    *failed += ledger.audit_violations();
    std::fprintf(stderr, "auditor: %" PRId64 " violations, first: %s\n",
                 ledger.audit_violations(), ledger.first_violation().c_str());
  }
}

void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& metric : metrics) {
    std::printf("%-38s %14.6g %s\n", metric.name.c_str(), metric.value, metric.unit);
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRId64 ", \"failed\": %" PRId64
              ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit);
  }
  std::printf("}}\n");
}

int Main(int argc, char** argv) {
  // Keep freed memory in the process: every batch after the first reuses
  // the heap instead of faulting fresh pages in, as a long-lived server
  // would. 32 MiB is the largest mmap threshold glibc accepts on 64-bit.
  // AddressSanitizer replaces malloc and refuses mallopt.
#ifndef __SANITIZE_ADDRESS__
  if (mallopt(M_MMAP_THRESHOLD, 32 << 20) == 0 || mallopt(M_TRIM_THRESHOLD, 1 << 30) == 0) {
    std::fprintf(stderr, "mallopt rejected the heap settings\n");
    return 2;
  }
#endif
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: vafsbench --workload vod_flash|vod_array|studio_mixed "
                 "--seed N --seconds S --trace 0|1\n");
    return 2;
  }
  std::printf("host: nproc=%u compiler=\"%s\" build=%s array_workers=%d\n",
              std::thread::hardware_concurrency(), VAFSBENCH_COMPILER, VAFSBENCH_BUILD_TYPE,
              ArrayWorkers());
  std::printf("workload: %s seed: %" PRIu64 " seconds: %g trace: %d\n", args.workload.c_str(),
              args.seed, args.seconds, args.trace);
  std::fflush(stdout);

  const int64_t start = NowNs();
  auto elapsed = [start] { return static_cast<double>(NowNs() - start) / 1e9; };
  std::vector<BatchResult> batches;
  int64_t attempted = 0;
  int64_t failed = 0;
  auto run = [&](Ledger* ledger, int workers) {
    BatchResult batch = RunBatch(args.workload, args.seed, ledger, workers);
    attempted += batch.attempted;
    failed += batch.failed;
    for (const std::string& failure : batch.failures) {
      std::fprintf(stderr, "failed: %s\n", failure.c_str());
    }
    std::fprintf(stderr, "batch %zu: setup %.3fs loop %.3fs (%zu rounds) total %.1fs\n",
                 batches.size(), batch.setup_s, batch.loop_s, batch.round_ms.size(), elapsed());
    return batch;
  };

  if (args.trace == 0) {
    // At least three timed batches, so every per-batch figure is a median.
    std::vector<double> probes;
    Probe(&probes);
    while (batches.size() < 3 || elapsed() < args.seconds) {
      batches.push_back(run(nullptr, 0));
      Probe(&probes);
    }
    const double probe_ms = Median(probes);
    const double scale = kReferenceProbeMs / probe_ms;
    std::printf("host probe: median %.3f ms over %zu probes; host times scaled by %.4f\n",
                probe_ms, probes.size(), scale);
    // One untimed counting batch: the exact stream-round count for the
    // per-stream-round cost, plus the strict auditor and one more receipt.
    Ledger counter(false);
    batches.push_back(run(&counter, 0));
    const double stream_rounds = static_cast<double>(counter.stream_rounds());
    CountAudit(counter, &attempted, &failed);
    CompareReceipts(batches, &attempted, &failed);
    batches.pop_back();
    PrintResult(failed == 0, attempted, failed, EndToEnd(batches, stream_rounds, scale));
    return 0;
  }

  // Untraced baseline for the receipts and the trace overhead.
  while (batches.empty() || elapsed() < args.seconds / 2) {
    batches.push_back(run(nullptr, 0));
  }
  const bool observers = args.workload == "vod_flash";
  Ledger ledger(observers);
  batches.push_back(run(&ledger, 0));
  const size_t traced = batches.size() - 1;
  const double traced_wall = batches[traced].loop_s;
  std::vector<double> untraced_walls;
  for (size_t i = 0; i < traced; ++i) {
    untraced_walls.push_back(batches[i].loop_s);
  }
  ledger.Set("trace_overhead", traced_wall / Median(untraced_walls));
  if (args.workload == "vod_array") {
    // Traced wall at one worker over traced wall at the timed count; the
    // receipts must not move with the worker count.
    Ledger single(false);
    batches.push_back(run(&single, 1));
    ledger.Set("util.pool_speedup", batches.back().loop_s / traced_wall);
    CountAudit(single, &attempted, &failed);
  } else {
    ledger.Set("util.pool_speedup", 1.0);
  }
  CompareReceipts(batches, &attempted, &failed);
  CountAudit(ledger, &attempted, &failed);
  PrintResult(failed == 0, attempted, failed, ledger.Metrics(batches[traced]));
  return 0;
}

}  // namespace
}  // namespace vafsbench

int main(int argc, char** argv) { return vafsbench::Main(argc, argv); }
