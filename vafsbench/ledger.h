// The traced batch's per-layer ledger, built only from the library's
// public surface.
//
// The Ledger is a TraceSink the workload attaches where the public API
// lets it (the facade's user `scheduler.trace` sink, a bare scheduler's
// trace, a disk's or store's sink). It
//   - stamps steady_clock at kRoundStart / kRoundPlanned / kRoundEnd,
//     splitting every round into edge (previous kRoundEnd to kRoundStart:
//     retire, activation drain, Eq. 11 budget), plan and dispatch; the
//     benchmark's own calls and the sink's own time are subtracted via
//     g_excluded_ns;
//   - buffers each round's events and replays them through fresh
//     instances of the facade's observer types, timing each, so a phase's
//     self time is its wall minus the replayed observer cost of the events
//     emitted in it;
//   - feeds a strict ContinuityAuditor (traced batches only);
//   - counts the per-layer work the events carry.
#ifndef VAFSBENCH_LEDGER_H_
#define VAFSBENCH_LEDGER_H_

#include <array>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/obs/auditor.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/metrics.h"
#include "src/obs/slo.h"
#include "src/obs/trace.h"
#include "vafsbench/bench.h"

namespace vafsbench {

class Ledger : public vafs::obs::TraceSink {
 public:
  // `replay_observers`: the workload runs the facade's shipped telemetry,
  // whose cost the replay prices. False leaves the obs layer at zero.
  explicit Ledger(bool replay_observers);

  void OnEvent(const vafs::obs::TraceEvent& event) override;

  // Brackets one streaming loop with a fresh strict auditor. Events
  // outside loops are counted but not timed. `check_round_time` is false
  // where the workload bypasses admission on purpose: its rounds overrun
  // the Eq. 11 budget by design, every other invariant is still checked.
  void BeginLoop(bool check_round_time);
  void EndLoop();

  // Accessor-derived counters the workload reads after the batch.
  void Set(const std::string& name, double value) { counters_[name] = value; }
  void Add(const std::string& name, double value) { counters_[name] += value; }
  double Get(const std::string& name) const;

  int64_t audit_violations() const { return audit_violations_; }
  const std::string& first_violation() const { return first_violation_; }
  int64_t sectors_read() const { return sectors_read_; }
  int64_t stream_rounds() const { return stream_rounds_; }

  // Every per-layer metric with its unit, in the order BENCHMARK.json lists
  // them.
  std::vector<Metric> Metrics(const BatchResult& batch) const;

 private:
  enum Phase { kOutside = 0, kEdge, kPlan, kDispatch, kPhases };
  enum Sink { kSlo = 0, kMetrics, kFlight, kTraceLog, kSinks };

  struct Buffered {
    vafs::obs::TraceEvent event;
    Phase phase;
  };

  void Count(const vafs::obs::TraceEvent& event);
  void Replay();

  bool replay_observers_;
  bool in_loop_ = false;
  Phase phase_ = kOutside;
  int64_t last_ns_ = 0;
  int64_t last_excluded_ = 0;
  int64_t loop_start_ns_ = 0;
  int64_t loop_start_excluded_ = 0;
  int64_t loop_ns_ = 0;
  std::array<int64_t, kPhases> phase_ns_{};
  std::array<int64_t, kPhases> phase_obs_ns_{};
  std::array<int64_t, kSinks> sink_ns_{};

  // Fresh instances of the facade's observer types, fed by replay.
  vafs::obs::MetricsRegistry registry_;
  vafs::obs::TraceLog log_;
  vafs::obs::MetricsSink metrics_sink_;
  vafs::obs::SloTracker slo_;
  vafs::obs::FlightRecorder flight_;
  std::vector<Buffered> buffer_;

  std::unique_ptr<vafs::obs::ContinuityAuditor> auditor_;
  int64_t audit_violations_ = 0;
  std::string first_violation_;

  // Event-derived counters.
  int64_t loop_events_ = 0;
  int64_t rounds_ = 0;
  int64_t stream_rounds_ = 0;
  int64_t activations_this_round_ = 0;
  int64_t activations_max_ = 0;
  int64_t decisions_ = 0;
  int64_t rejects_ = 0;
  int64_t last_k_ = -1;
  int64_t k_steps_ = 0;
  int64_t planned_blocks_ = 0;
  int64_t transfers_ = 0;
  int64_t coalesced_ = 0;
  int64_t deduped_ = 0;
  int64_t seek_measured_ = 0;
  int64_t seek_worst_ = 0;
  int64_t disk_ops_ = 0;
  int64_t sectors_read_ = 0;
  int64_t sectors_written_ = 0;
  int64_t strand_writes_ = 0;
  double gap_ratio_max_ = 0.0;
  int64_t journal_appends_ = 0;
  int64_t replayed_intents_ = 0;
  int64_t fsck_findings_ = 0;

  std::map<std::string, double> counters_;
};

}  // namespace vafsbench

#endif  // VAFSBENCH_LEDGER_H_
