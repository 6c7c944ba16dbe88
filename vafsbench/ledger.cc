#include "vafsbench/ledger.h"

#include <algorithm>

namespace vafsbench {

using vafs::obs::TraceEvent;
using vafs::obs::TraceEventKind;

namespace {

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

Ledger::Ledger(bool replay_observers)
    : replay_observers_(replay_observers), log_(8192), metrics_sink_(&registry_) {
  // Same wiring as the facade's telemetry: an SLO breach dumps the flight
  // recorder.
  slo_.set_breach_handler([this](uint64_t /*request*/, const std::string& description) {
    flight_.TriggerDump(description);
  });
}

double Ledger::Get(const std::string& name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? 0.0 : it->second;
}

void Ledger::BeginLoop(bool check_round_time) {
  in_loop_ = true;
  phase_ = kOutside;
  auditor_ = std::make_unique<vafs::obs::ContinuityAuditor>(vafs::obs::AuditorOptions{
      .check_round_time = check_round_time, .round_time_slack = 0.05});
  loop_start_ns_ = NowNs();
  loop_start_excluded_ = g_excluded_ns;
  last_ns_ = loop_start_ns_;
  last_excluded_ = g_excluded_ns;
}

void Ledger::EndLoop() {
  const int64_t now = NowNs();
  loop_ns_ += (now - loop_start_ns_) - (g_excluded_ns - loop_start_excluded_);
  Replay();
  g_excluded_ns += NowNs() - now;
  if (auditor_ != nullptr) {
    const auto& violations = auditor_->violations();
    audit_violations_ += static_cast<int64_t>(violations.size());
    if (!violations.empty() && first_violation_.empty()) {
      first_violation_ = violations.front().what;
    }
    auditor_.reset();
  }
  in_loop_ = false;
  phase_ = kOutside;
}

void Ledger::OnEvent(const TraceEvent& event) {
  const int64_t entered = NowNs();
  if (in_loop_) {
    const bool stamp = event.kind == TraceEventKind::kRoundStart ||
                       event.kind == TraceEventKind::kRoundPlanned ||
                       event.kind == TraceEventKind::kRoundEnd;
    // The facade's observers see each event before this sink does, so their
    // cost for a stamping event lands in the phase the stamp closes.
    const Phase emitted = phase_;
    if (stamp) {
      const int64_t span = (entered - last_ns_) - (g_excluded_ns - last_excluded_);
      switch (event.kind) {
        case TraceEventKind::kRoundStart:
          phase_ns_[phase_] += span;  // kEdge between rounds, kOutside before the first
          phase_ = kPlan;
          break;
        case TraceEventKind::kRoundPlanned:
          phase_ns_[kPlan] += span;
          phase_ = kDispatch;
          break;
        default:
          phase_ns_[phase_] += span;
          phase_ = kEdge;
          break;
      }
    }
    ++loop_events_;
    if (replay_observers_) {
      buffer_.push_back(Buffered{event, emitted});
    }
    if (auditor_ != nullptr) {
      auditor_->OnEvent(event);
    }
    Count(event);
    if (event.kind == TraceEventKind::kRoundEnd) {
      Replay();
    }
    const int64_t left = NowNs();
    g_excluded_ns += left - entered;
    if (stamp) {
      last_ns_ = left;
      last_excluded_ = g_excluded_ns;
    }
  } else {
    Count(event);
    g_excluded_ns += NowNs() - entered;
  }
}

void Ledger::Replay() {
  if (buffer_.empty()) {
    return;
  }
  vafs::obs::TraceSink* sinks[kSinks] = {&slo_, &metrics_sink_, &flight_, &log_};
  for (int s = 0; s < kSinks; ++s) {
    size_t i = 0;
    while (i < buffer_.size()) {
      const Phase phase = buffer_[i].phase;
      const int64_t start = NowNs();
      for (; i < buffer_.size() && buffer_[i].phase == phase; ++i) {
        sinks[s]->OnEvent(buffer_[i].event);
      }
      const int64_t spent = NowNs() - start;
      sink_ns_[s] += spent;
      phase_obs_ns_[phase] += spent;
    }
  }
  buffer_.clear();
}

void Ledger::Count(const TraceEvent& event) {
  switch (event.kind) {
    case TraceEventKind::kRoundStart:
      if (last_k_ >= 0 && event.k != last_k_) {
        ++k_steps_;
      }
      last_k_ = event.k;
      activations_this_round_ = 0;
      break;
    case TraceEventKind::kActivated:
      activations_max_ = std::max(activations_max_, ++activations_this_round_);
      break;
    case TraceEventKind::kRoundEnd:
      ++rounds_;
      break;
    case TraceEventKind::kRequestServiced:
      ++stream_rounds_;
      break;
    case TraceEventKind::kAdmissionPlan:
      ++decisions_;
      break;
    case TraceEventKind::kAdmissionReject:
      ++decisions_;
      ++rejects_;
      break;
    case TraceEventKind::kRoundPlanned:
      planned_blocks_ += event.blocks;
      transfers_ += event.transfers;
      coalesced_ += event.coalesced_blocks;
      deduped_ += event.deduped_blocks;
      break;
    case TraceEventKind::kSeekAccounting:
      seek_measured_ += event.seek_cylinders;
      seek_worst_ += event.seek_cylinders_worst;
      break;
    case TraceEventKind::kDiskRead:
      if (in_loop_) {
        ++disk_ops_;
        sectors_read_ += event.blocks;
      }
      break;
    case TraceEventKind::kDiskWrite:
      if (in_loop_) {
        ++disk_ops_;
        sectors_written_ += event.blocks;
      }
      break;
    case TraceEventKind::kStrandWrite:
      if (in_loop_) {
        ++strand_writes_;
      }
      if (event.gap_sec >= 0.0 && event.gap_bound_sec > 0.0) {
        gap_ratio_max_ = std::max(gap_ratio_max_, event.gap_sec / event.gap_bound_sec);
      }
      break;
    case TraceEventKind::kJournalAppend:
      ++journal_appends_;
      break;
    case TraceEventKind::kJournalReplay:
      ++replayed_intents_;
      break;
    case TraceEventKind::kFsckFinding:
      ++fsck_findings_;
      break;
    default:
      break;
  }
}

std::vector<Metric> Ledger::Metrics(const BatchResult& batch) const {
  const double loop_ms = loop_ns_ / 1e6;
  double sink_ms = 0.0;
  for (int64_t ns : sink_ns_) {
    sink_ms += ns / 1e6;
  }
  auto self_ms = [this](Phase phase) { return (phase_ns_[phase] - phase_obs_ns_[phase]) / 1e6; };
  auto p50 = [](const std::vector<double>& v) { return v.empty() ? 0.0 : Quantile(v, 0.5); };
  auto edit_p50 = [&](const char* kind) {
    auto it = batch.edit_us_by_kind.find(kind);
    return it == batch.edit_us_by_kind.end() ? 0.0 : p50(it->second);
  };
  const double attributed = (phase_ns_[kEdge] + phase_ns_[kPlan] + phase_ns_[kDispatch]) / 1e6;

  return {
      {"obs.slo_ms", sink_ns_[kSlo] / 1e6, "ms"},
      {"obs.metrics_ms", sink_ns_[kMetrics] / 1e6, "ms"},
      {"obs.flight_ms", sink_ns_[kFlight] / 1e6, "ms"},
      {"obs.tracelog_ms", sink_ns_[kTraceLog] / 1e6, "ms"},
      {"obs.events_per_stream_round",
       replay_observers_ ? Ratio(static_cast<double>(loop_events_), stream_rounds_) : 0.0,
       "count"},
      {"obs.share", Ratio(sink_ms, loop_ms), "ratio"},

      {"session.open_us_p50", p50(batch.open_us), "us"},
      {"session.viewers_per_stream", Get("session.viewers_per_stream"), "ratio"},
      {"session.batched", Get("session.batched"), "count"},
      {"session.patched", Get("session.patched"), "count"},
      {"session.merged", Get("session.merged"), "count"},

      {"vafs.play_us_p50", p50(batch.play_us), "us"},
      {"vafs.play_us_p99", batch.play_us.empty() ? 0.0 : Quantile(batch.play_us, 0.99), "us"},

      {"scheduler.edge_ms", self_ms(kEdge), "ms"},
      {"scheduler.rounds", static_cast<double>(rounds_), "count"},
      {"scheduler.stream_rounds", static_cast<double>(stream_rounds_), "count"},
      {"scheduler.activations_max_per_round", static_cast<double>(activations_max_), "count"},

      {"admission.decisions", static_cast<double>(decisions_), "count"},
      {"admission.reject_ratio", Ratio(static_cast<double>(rejects_), decisions_), "ratio"},
      {"admission.k_steps", static_cast<double>(k_steps_), "count"},

      {"planner.ms", self_ms(kPlan), "ms"},
      {"planner.transfers_per_block", Ratio(static_cast<double>(transfers_), planned_blocks_),
       "ratio"},
      {"planner.coalesce_ratio", Ratio(static_cast<double>(coalesced_), planned_blocks_),
       "ratio"},
      {"planner.dedup_ratio", Ratio(static_cast<double>(deduped_), planned_blocks_), "ratio"},

      {"cache.hit_ratio", Ratio(Get("cache.hits"), Get("cache.hits") + Get("cache.misses")),
       "ratio"},
      {"cache.evictions", Get("cache.evictions"), "count"},
      {"cache.invalidations", Get("cache.invalidations"), "count"},
      {"cache.pool_recycle_ratio",
       Ratio(Get("cache.pool_recycled"), Get("cache.pool_recycled") + Get("cache.pool_created")),
       "ratio"},

      {"disk.dispatch_ms", self_ms(kDispatch), "ms"},
      {"disk.ops", static_cast<double>(disk_ops_), "count"},
      {"disk.sectors_read", static_cast<double>(sectors_read_), "count"},
      {"disk.sectors_written", static_cast<double>(sectors_written_), "count"},
      {"disk.seek_ratio", Ratio(static_cast<double>(seek_measured_), seek_worst_), "ratio"},

      {"util.pool_speedup", Get("util.pool_speedup"), "x"},
      {"util.crc_mb", Get("util.crc_mb"), "MB"},

      {"rope.insert_us_p50", edit_p50("insert"), "us"},
      {"rope.replace_us_p50", edit_p50("replace"), "us"},
      {"rope.substring_us_p50", edit_p50("substring"), "us"},
      {"rope.concat_us_p50", edit_p50("concat"), "us"},
      {"rope.delete_us_p50", edit_p50("delete"), "us"},
      {"rope.copy_blocks_per_edit",
       Ratio(static_cast<double>(batch.copy_blocks), static_cast<double>(batch.edits)), "count"},

      {"store.blocks_appended", static_cast<double>(strand_writes_), "count"},
      {"store.gap_bound_ratio_max", gap_ratio_max_, "ratio"},
      {"store.live_sectors", Get("store.live_sectors"), "count"},

      {"persistence.journal_appends", static_cast<double>(journal_appends_), "count"},
      {"persistence.checkpoint_sectors", Get("persistence.checkpoint_sectors"), "count"},
      {"persistence.replayed_intents", static_cast<double>(replayed_intents_), "count"},
      {"persistence.fsck_findings", static_cast<double>(fsck_findings_), "count"},

      {"loop.residual_ms", loop_ms - attributed, "ms"},
      {"loop.residual_share", Ratio(loop_ms - attributed, loop_ms), "ratio"},
      {"trace_overhead", Get("trace_overhead"), "x"},
  };
}

}  // namespace vafsbench
