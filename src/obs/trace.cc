#include "src/obs/trace.h"

#include <algorithm>
#include <cstddef>

namespace vafs {
namespace obs {

const char* TraceEventKindName(TraceEventKind kind) {
  switch (kind) {
    case TraceEventKind::kSubmitAccepted:
      return "submit_accepted";
    case TraceEventKind::kSubmitRejected:
      return "submit_rejected";
    case TraceEventKind::kActivated:
      return "activated";
    case TraceEventKind::kPause:
      return "pause";
    case TraceEventKind::kResume:
      return "resume";
    case TraceEventKind::kResumeRejected:
      return "resume_rejected";
    case TraceEventKind::kStop:
      return "stop";
    case TraceEventKind::kCompleted:
      return "completed";
    case TraceEventKind::kAdmissionPlan:
      return "admission_plan";
    case TraceEventKind::kAdmissionReject:
      return "admission_reject";
    case TraceEventKind::kRoundStart:
      return "round_start";
    case TraceEventKind::kRequestServiced:
      return "request_serviced";
    case TraceEventKind::kRoundEnd:
      return "round_end";
    case TraceEventKind::kBlockRetried:
      return "block_retried";
    case TraceEventKind::kBlockSkipped:
      return "block_skipped";
    case TraceEventKind::kBlockRelocated:
      return "block_relocated";
    case TraceEventKind::kDiskRead:
      return "disk_read";
    case TraceEventKind::kDiskWrite:
      return "disk_write";
    case TraceEventKind::kDiskFault:
      return "disk_fault";
    case TraceEventKind::kDiskSalvage:
      return "disk_salvage";
    case TraceEventKind::kPowerCut:
      return "power_cut";
    case TraceEventKind::kStrandWrite:
      return "strand_write";
    case TraceEventKind::kRootFlip:
      return "root_flip";
    case TraceEventKind::kJournalAppend:
      return "journal_append";
    case TraceEventKind::kJournalReplay:
      return "journal_replay";
    case TraceEventKind::kFsckFinding:
      return "fsck_finding";
    case TraceEventKind::kRecovery:
      return "recovery";
    case TraceEventKind::kRoundPlanned:
      return "round_planned";
    case TraceEventKind::kSeekAccounting:
      return "seek_accounting";
    case TraceEventKind::kCacheAdmit:
      return "cache_admit";
    case TraceEventKind::kCacheAdmitRevoked:
      return "cache_admit_revoked";
    case TraceEventKind::kCacheInvalidate:
      return "cache_invalidate";
    case TraceEventKind::kSessionBatched:
      return "session_batched";
    case TraceEventKind::kSessionPatched:
      return "session_patched";
    case TraceEventKind::kSessionMerged:
      return "session_merged";
    case TraceEventKind::kNodeDown:
      return "node_down";
    case TraceEventKind::kNodeUp:
      return "node_up";
    case TraceEventKind::kFailover:
      return "failover";
    case TraceEventKind::kReReplicate:
      return "re_replicate";
    case TraceEventKind::kShedLoad:
      return "shed_load";
    case TraceEventKind::kSpan:
      return "span";
    case TraceEventKind::kCriticalPath:
      return "critical_path";
  }
  return "unknown";
}

const char* SpanStageName(SpanStage stage) {
  switch (stage) {
    case SpanStage::kRound:
      return "round";
    case SpanStage::kQueue:
      return "queue";
    case SpanStage::kSeek:
      return "seek";
    case SpanStage::kTransfer:
      return "transfer";
    case SpanStage::kRetry:
      return "retry";
    case SpanStage::kCache:
      return "cache";
    case SpanStage::kMergePatch:
      return "merge_patch";
    case SpanStage::kAppend:
      return "append";
    case SpanStage::kWave:
      return "wave";
    case SpanStage::kPlan:
      return "plan";
    case SpanStage::kRoute:
      return "route";
    case SpanStage::kSession:
      return "session";
  }
  return "?";
}

std::string TraceEventSummary(const TraceEvent& event) {
  std::string line = "t=" + std::to_string(event.time) + " round=" + std::to_string(event.round) +
                     " " + TraceEventKindName(event.kind);
  if (event.request != 0) {
    line += " req=" + std::to_string(event.request);
  }
  if (event.k != 0) {
    line += " k=" + std::to_string(event.k);
  }
  if (event.blocks != 0) {
    line += " blocks=" + std::to_string(event.blocks);
  }
  if (event.sector != 0) {
    line += " sector=" + std::to_string(event.sector);
  }
  if (event.seek_cylinders != 0) {
    line += " seek=" + std::to_string(event.seek_cylinders) + "cyl";
  }
  if (event.transfers != 0) {
    line += " transfers=" + std::to_string(event.transfers);
  }
  if (event.coalesced_blocks != 0) {
    line += " coalesced=" + std::to_string(event.coalesced_blocks);
  }
  if (event.cache_lookups != 0) {
    line += " cache=" + std::to_string(event.cache_hits) + "/" +
            std::to_string(event.cache_lookups);
  }
  if (event.seek_cylinders_worst != 0) {
    line += " seek_worst=" + std::to_string(event.seek_cylinders_worst) + "cyl";
  }
  if (event.duration != 0) {
    line += " dur=" + std::to_string(event.duration) + "us";
  }
  if (event.round_budget != 0) {
    line += " budget=" + std::to_string(event.round_budget) + "us";
  }
  if (event.destructive) {
    line += " destructive";
  }
  if (event.session != 0) {
    line += " session=" + std::to_string(event.session);
    if (event.leader != 0) {
      line += " leader=" + std::to_string(event.leader);
    }
    line += " gap=" + std::to_string(event.gap_blocks) +
            " runway=" + std::to_string(event.runway_blocks);
  }
  if (event.node >= 0) {
    line += " node=" + std::to_string(event.node);
  }
  if (event.span_id != 0) {
    line += " span=" + std::to_string(event.span_id) + "<" + std::to_string(event.parent_span) +
            " trace=" + std::to_string(event.trace_id);
    if (event.span_stage >= 0) {
      line += " stage=";
      line += SpanStageName(static_cast<SpanStage>(event.span_stage));
    }
    if (event.span_seek != 0) {
      line += " span_seek=" + std::to_string(event.span_seek) + "us";
    }
    if (event.member >= 0) {
      line += " member=" + std::to_string(event.member);
    }
  }
  if (event.kind == TraceEventKind::kCriticalPath || event.stages != StageBreakdown{}) {
    line += " stages[q=" + std::to_string(event.stages.queue) +
            " s=" + std::to_string(event.stages.seek) +
            " x=" + std::to_string(event.stages.transfer) +
            " r=" + std::to_string(event.stages.retry) +
            " c=" + std::to_string(event.stages.cache) +
            " m=" + std::to_string(event.stages.merge_patch) +
            " a=" + std::to_string(event.stages.append) + "]";
    if (event.anomalous) {
      line += " ANOMALOUS";
    }
  }
  if (!event.detail.empty()) {
    line += " [" + event.detail + "]";
  }
  return line;
}

void TraceLog::OnEvent(const TraceEvent& event) {
  if (capacity_ > 0 && size_ >= capacity_) {
    // The retention rule: drop the oldest quarter in one go. In the ring
    // that only advances the head.
    const size_t drop = std::max<size_t>(1, capacity_ / 4);
    head_ = (head_ + drop) % capacity_;
    size_ -= drop;
    dropped_ += static_cast<int64_t>(drop);
  }
  if (ring_.size() < capacity_ || capacity_ == 0) {
    ring_.push_back(event);  // still filling: head_ is 0 and size_ == ring_.size()
  } else {
    size_t slot = head_ + size_;
    if (slot >= capacity_) {
      slot -= capacity_;
    }
    ring_[slot] = event;
  }
  ++size_;
}

const std::vector<TraceEvent>& TraceLog::events() const {
  if (head_ != 0 || ring_.size() != size_) {
    std::rotate(ring_.begin(), ring_.begin() + static_cast<ptrdiff_t>(head_), ring_.end());
    ring_.resize(size_);  // the vacated slots trail the retained events
    head_ = 0;
  }
  return ring_;
}

namespace {

// One registry instrument, looked up by `name` on first use.
template <typename Instrument>
struct Handle {
  const char* name;
  Instrument* resolved = nullptr;
};

Counter& Use(MetricsRegistry& m, Handle<Counter>& handle) {
  if (handle.resolved == nullptr) {
    handle.resolved = &m.counter(handle.name);
  }
  return *handle.resolved;
}

Gauge& Use(MetricsRegistry& m, Handle<Gauge>& handle) {
  if (handle.resolved == nullptr) {
    handle.resolved = &m.gauge(handle.name);
  }
  return *handle.resolved;
}

Histogram& Use(MetricsRegistry& m, Handle<Histogram>& handle) {
  if (handle.resolved == nullptr) {
    handle.resolved = &m.histogram(handle.name);
  }
  return *handle.resolved;
}

constexpr size_t kSpanStages = static_cast<size_t>(SpanStage::kSession) + 1;

}  // namespace

struct MetricsSink::Instruments {
  Handle<Counter> submits_accepted{"scheduler.submits_accepted"};
  Handle<Counter> submits_rejected{"scheduler.submits_rejected"};
  Handle<Counter> activations{"scheduler.activations"};
  Handle<Counter> pauses_destructive{"scheduler.pauses_destructive"};
  Handle<Counter> pauses_nondestructive{"scheduler.pauses_nondestructive"};
  Handle<Counter> resumes{"scheduler.resumes"};
  Handle<Counter> resumes_rejected{"scheduler.resumes_rejected"};
  Handle<Counter> stops{"scheduler.stops"};
  Handle<Counter> completions{"scheduler.completions"};
  Handle<Counter> plans_accepted{"admission.plans_accepted"};
  Handle<Histogram> transition_steps{"admission.transition_steps"};
  Handle<Counter> rejections{"admission.rejections"};
  Handle<Counter> blocks_serviced{"scheduler.blocks_serviced"};
  Handle<Histogram> request_service_usec{"scheduler.request_service_usec"};
  Handle<Counter> rounds{"scheduler.rounds"};
  Handle<Histogram> round_duration_usec{"scheduler.round_duration_usec"};
  Handle<Histogram> round_blocks{"scheduler.round_blocks"};
  Handle<Gauge> current_k{"scheduler.current_k"};
  Handle<Gauge> slots_active{"scheduler.slots_active"};
  Handle<Gauge> slots_pending{"scheduler.slots_pending"};
  Handle<Gauge> slots_paused_nondestructive{"scheduler.slots_paused_nondestructive"};
  Handle<Gauge> slots_paused_destructive{"scheduler.slots_paused_destructive"};
  Handle<Gauge> slots_cache_tenants{"scheduler.slots_cache_tenants"};
  Handle<Gauge> slots_held{"scheduler.slots_held"};
  Handle<Counter> block_retries{"scheduler.block_retries"};
  Handle<Histogram> retry_service_usec{"scheduler.retry_service_usec"};
  Handle<Counter> blocks_skipped{"scheduler.blocks_skipped"};
  Handle<Counter> blocks_relocated{"store.blocks_relocated"};
  Handle<Counter> disk_reads{"disk.reads"};
  Handle<Counter> sectors_read{"disk.sectors_read"};
  Handle<Histogram> read_service_usec{"disk.read_service_usec"};
  Handle<Histogram> seek_cylinders{"disk.seek_cylinders"};
  Handle<Counter> disk_writes{"disk.writes"};
  Handle<Counter> sectors_written{"disk.sectors_written"};
  Handle<Histogram> write_service_usec{"disk.write_service_usec"};
  Handle<Counter> faults{"disk.faults"};
  Handle<Histogram> fault_service_usec{"disk.fault_service_usec"};
  Handle<Counter> salvage_reads{"disk.salvage_reads"};
  Handle<Histogram> salvage_service_usec{"disk.salvage_service_usec"};
  Handle<Counter> power_cuts{"disk.power_cuts"};
  Handle<Counter> strand_blocks_written{"store.strand_blocks_written"};
  Handle<Histogram> strand_gap_ms{"store.strand_gap_ms"};
  Handle<Counter> root_flips{"persistence.root_flips"};
  Handle<Gauge> generation{"persistence.generation"};
  Handle<Counter> journal_appends{"persistence.journal_appends"};
  Handle<Counter> journal_replays{"persistence.journal_replays"};
  Handle<Counter> fsck_findings{"fsck.findings"};
  Handle<Counter> recoveries{"recovery.completions"};
  Handle<Counter> crash_points_survived{"recovery.crash_points_survived"};
  Handle<Counter> plan_rounds{"plan.rounds"};
  Handle<Counter> read_transfers{"plan.read_transfers"};
  Handle<Counter> data_blocks{"plan.data_blocks"};
  Handle<Counter> coalesced_blocks{"plan.coalesced_blocks"};
  Handle<Counter> deduped_blocks{"plan.deduped_blocks"};
  Handle<Histogram> transfers_per_round{"plan.transfers_per_round"};
  Handle<Counter> cache_lookups{"cache.lookups"};
  Handle<Counter> cache_hits{"cache.hits"};
  Handle<Gauge> cache_resident_bytes{"cache.resident_bytes"};
  Handle<Gauge> cache_pinned_entries{"cache.pinned_entries"};
  Handle<Gauge> cache_evictions{"cache.evictions"};
  Handle<Gauge> cache_hit_rate_recent{"cache.hit_rate_recent"};
  Handle<Gauge> pool_outstanding{"page_pool.outstanding"};
  Handle<Gauge> pool_recycled{"page_pool.recycled"};
  Handle<Histogram> seek_measured{"plan.seek_cylinders_measured"};
  Handle<Histogram> seek_worst{"plan.seek_cylinders_worst"};
  Handle<Counter> seek_saved{"plan.seek_cylinders_saved"};
  Handle<Counter> cache_admits{"admission.cache_admits"};
  Handle<Counter> cache_admit_revocations{"admission.cache_admit_revocations"};
  Handle<Counter> cache_invalidations{"cache.invalidations"};
  Handle<Counter> cache_invalidated_entries{"cache.invalidated_entries"};
  Handle<Counter> sessions_batched{"sessions.batched"};
  Handle<Counter> sessions_patched{"sessions.patched"};
  Handle<Histogram> patch_gap_blocks{"sessions.patch_gap_blocks"};
  Handle<Counter> sessions_merged{"sessions.merged"};
  Handle<Histogram> merge_runway_blocks{"sessions.merge_runway_blocks"};
  Handle<Counter> nodes_down{"cluster.nodes_down"};
  Handle<Counter> nodes_up{"cluster.nodes_up"};
  Handle<Counter> failovers{"cluster.failovers"};
  Handle<Histogram> failover_interruption_usec{"cluster.failover_interruption_usec"};
  Handle<Counter> re_replications{"cluster.re_replications"};
  Handle<Counter> repair_blocks{"cluster.repair_blocks"};
  Handle<Counter> viewers_shed{"cluster.viewers_shed"};
  Handle<Counter> spans_emitted{"spans.emitted"};
  Handle<Counter> critical_path_rounds{"critical_path.rounds"};
  Handle<Counter> critical_path_anomalies{"critical_path.anomalies"};
  // critical_path.dominant.<stage>, by SpanStage.
  Counter* dominant[kSpanStages] = {};
  Handle<Histogram> queue_usec{"critical_path.queue_usec"};
  Handle<Histogram> seek_usec{"critical_path.seek_usec"};
  Handle<Histogram> transfer_usec{"critical_path.transfer_usec"};
  Handle<Histogram> retry_usec{"critical_path.retry_usec"};
  Handle<Histogram> merge_patch_usec{"critical_path.merge_patch_usec"};
  Handle<Histogram> append_usec{"critical_path.append_usec"};
};

MetricsSink::MetricsSink(MetricsRegistry* registry)
    : registry_(registry), instruments_(std::make_unique<Instruments>()) {}

MetricsSink::~MetricsSink() = default;

void MetricsSink::OnEvent(const TraceEvent& event) {
  MetricsRegistry& m = *registry_;
  Instruments& h = *instruments_;
  switch (event.kind) {
    case TraceEventKind::kSubmitAccepted:
      Use(m, h.submits_accepted).Increment();
      break;
    case TraceEventKind::kSubmitRejected:
      Use(m, h.submits_rejected).Increment();
      break;
    case TraceEventKind::kActivated:
      Use(m, h.activations).Increment();
      break;
    case TraceEventKind::kPause:
      Use(m, event.destructive ? h.pauses_destructive : h.pauses_nondestructive).Increment();
      break;
    case TraceEventKind::kResume:
      Use(m, h.resumes).Increment();
      break;
    case TraceEventKind::kResumeRejected:
      Use(m, h.resumes_rejected).Increment();
      break;
    case TraceEventKind::kStop:
      Use(m, h.stops).Increment();
      break;
    case TraceEventKind::kCompleted:
      Use(m, h.completions).Increment();
      break;
    case TraceEventKind::kAdmissionPlan:
      Use(m, h.plans_accepted).Increment();
      Use(m, h.transition_steps)
          .Record(static_cast<double>(event.target_k - event.k > 0 ? event.target_k - event.k : 0));
      break;
    case TraceEventKind::kAdmissionReject:
      Use(m, h.rejections).Increment();
      break;
    case TraceEventKind::kRoundStart:
      break;
    case TraceEventKind::kRequestServiced:
      Use(m, h.blocks_serviced).Increment(event.blocks);
      if (event.duration > 0) {
        Use(m, h.request_service_usec).Record(static_cast<double>(event.duration));
      }
      break;
    case TraceEventKind::kRoundEnd:
      Use(m, h.rounds).Increment();
      Use(m, h.round_duration_usec).Record(static_cast<double>(event.duration));
      Use(m, h.round_blocks).Record(static_cast<double>(event.blocks));
      Use(m, h.current_k).Set(static_cast<double>(event.k));
      Use(m, h.slots_active).Set(static_cast<double>(event.slots.active));
      Use(m, h.slots_pending).Set(static_cast<double>(event.slots.pending));
      Use(m, h.slots_paused_nondestructive)
          .Set(static_cast<double>(event.slots.paused_nondestructive));
      Use(m, h.slots_paused_destructive).Set(static_cast<double>(event.slots.paused_destructive));
      Use(m, h.slots_cache_tenants).Set(static_cast<double>(event.slots.cache_tenants));
      Use(m, h.slots_held).Set(static_cast<double>(event.slots.Held()));
      break;
    case TraceEventKind::kBlockRetried:
      Use(m, h.block_retries).Increment();
      Use(m, h.retry_service_usec).Record(static_cast<double>(event.duration));
      break;
    case TraceEventKind::kBlockSkipped:
      Use(m, h.blocks_skipped).Increment();
      break;
    case TraceEventKind::kBlockRelocated:
      Use(m, h.blocks_relocated).Increment(event.blocks);
      break;
    case TraceEventKind::kDiskRead:
      Use(m, h.disk_reads).Increment();
      Use(m, h.sectors_read).Increment(event.blocks);
      Use(m, h.read_service_usec).Record(static_cast<double>(event.duration));
      Use(m, h.seek_cylinders).Record(static_cast<double>(event.seek_cylinders));
      break;
    case TraceEventKind::kDiskWrite:
      Use(m, h.disk_writes).Increment();
      Use(m, h.sectors_written).Increment(event.blocks);
      Use(m, h.write_service_usec).Record(static_cast<double>(event.duration));
      Use(m, h.seek_cylinders).Record(static_cast<double>(event.seek_cylinders));
      break;
    case TraceEventKind::kDiskFault:
      Use(m, h.faults).Increment();
      m.counter("disk.faults." + event.detail).Increment();  // rare: named per fault kind
      Use(m, h.fault_service_usec).Record(static_cast<double>(event.duration));
      break;
    case TraceEventKind::kDiskSalvage:
      Use(m, h.salvage_reads).Increment();
      Use(m, h.salvage_service_usec).Record(static_cast<double>(event.duration));
      break;
    case TraceEventKind::kPowerCut:
      Use(m, h.power_cuts).Increment();
      ++power_cuts_pending_;
      break;
    case TraceEventKind::kStrandWrite:
      Use(m, h.strand_blocks_written).Increment();
      if (event.gap_sec >= 0.0) {
        Use(m, h.strand_gap_ms).Record(event.gap_sec * 1e3);
      }
      break;
    case TraceEventKind::kRootFlip:
      Use(m, h.root_flips).Increment();
      Use(m, h.generation).Set(static_cast<double>(event.round));
      break;
    case TraceEventKind::kJournalAppend:
      Use(m, h.journal_appends).Increment();
      break;
    case TraceEventKind::kJournalReplay:
      Use(m, h.journal_replays).Increment();
      break;
    case TraceEventKind::kFsckFinding:
      Use(m, h.fsck_findings).Increment();
      m.counter("fsck.findings." + event.detail).Increment();  // rare: named per finding
      break;
    case TraceEventKind::kRecovery:
      Use(m, h.recoveries).Increment();
      if (power_cuts_pending_ > 0) {
        // Every cut since the previous recovery is its own crash point; a
        // recovery that had to ride out two back-to-back cuts survived two.
        Use(m, h.crash_points_survived).Increment(power_cuts_pending_);
        power_cuts_pending_ = 0;
      }
      break;
    case TraceEventKind::kRoundPlanned:
      Use(m, h.plan_rounds).Increment();
      Use(m, h.read_transfers).Increment(event.transfers);
      Use(m, h.data_blocks).Increment(event.blocks);
      Use(m, h.coalesced_blocks).Increment(event.coalesced_blocks);
      Use(m, h.deduped_blocks).Increment(event.deduped_blocks);
      Use(m, h.transfers_per_round).Record(static_cast<double>(event.transfers));
      if (event.cache_lookups > 0) {
        Use(m, h.cache_lookups).Increment(event.cache_lookups);
        Use(m, h.cache_hits).Increment(event.cache_hits);
      }
      Use(m, h.cache_resident_bytes).Set(static_cast<double>(event.cache_resident_bytes));
      Use(m, h.cache_pinned_entries).Set(static_cast<double>(event.cache_pinned_entries));
      Use(m, h.cache_evictions).Set(static_cast<double>(event.cache_evictions));
      Use(m, h.cache_hit_rate_recent).Set(event.cache_hit_rate);
      Use(m, h.pool_outstanding).Set(static_cast<double>(event.pool_outstanding));
      Use(m, h.pool_recycled).Set(static_cast<double>(event.pool_recycled));
      break;
    case TraceEventKind::kSeekAccounting:
      Use(m, h.seek_measured).Record(static_cast<double>(event.seek_cylinders));
      Use(m, h.seek_worst).Record(static_cast<double>(event.seek_cylinders_worst));
      if (event.seek_cylinders_worst > event.seek_cylinders) {
        Use(m, h.seek_saved).Increment(event.seek_cylinders_worst - event.seek_cylinders);
      }
      break;
    case TraceEventKind::kCacheAdmit:
      Use(m, h.cache_admits).Increment();
      break;
    case TraceEventKind::kCacheAdmitRevoked:
      Use(m, h.cache_admit_revocations).Increment();
      break;
    case TraceEventKind::kCacheInvalidate:
      Use(m, h.cache_invalidations).Increment();
      Use(m, h.cache_invalidated_entries).Increment(event.blocks);
      break;
    case TraceEventKind::kSessionBatched:
      Use(m, h.sessions_batched).Increment();
      break;
    case TraceEventKind::kSessionPatched:
      Use(m, h.sessions_patched).Increment();
      Use(m, h.patch_gap_blocks).Record(static_cast<double>(event.gap_blocks));
      break;
    case TraceEventKind::kSessionMerged:
      Use(m, h.sessions_merged).Increment();
      Use(m, h.merge_runway_blocks).Record(static_cast<double>(event.runway_blocks));
      break;
    case TraceEventKind::kNodeDown:
      Use(m, h.nodes_down).Increment();
      break;
    case TraceEventKind::kNodeUp:
      Use(m, h.nodes_up).Increment();
      break;
    case TraceEventKind::kFailover:
      Use(m, h.failovers).Increment();
      Use(m, h.failover_interruption_usec).Record(static_cast<double>(event.duration));
      break;
    case TraceEventKind::kReReplicate:
      Use(m, h.re_replications).Increment();
      Use(m, h.repair_blocks).Increment(event.blocks);
      break;
    case TraceEventKind::kShedLoad:
      Use(m, h.viewers_shed).Increment();
      break;
    case TraceEventKind::kSpan:
      // Spans are structural (the analyzer consumes them); only the volume
      // is worth a counter here.
      Use(m, h.spans_emitted).Increment();
      break;
    case TraceEventKind::kCriticalPath:
      Use(m, h.critical_path_rounds).Increment();
      if (event.anomalous) {
        Use(m, h.critical_path_anomalies).Increment();
      }
      if (event.span_stage >= 0) {
        const auto dominant_counter = [&] {
          return &m.counter(std::string("critical_path.dominant.") +
                            SpanStageName(static_cast<SpanStage>(event.span_stage)));
        };
        if (static_cast<size_t>(event.span_stage) < kSpanStages) {
          Counter*& dominant = h.dominant[event.span_stage];
          if (dominant == nullptr) {
            dominant = dominant_counter();
          }
          dominant->Increment();
        } else {
          dominant_counter()->Increment();
        }
      }
      Use(m, h.queue_usec).Record(static_cast<double>(event.stages.queue));
      Use(m, h.seek_usec).Record(static_cast<double>(event.stages.seek));
      Use(m, h.transfer_usec).Record(static_cast<double>(event.stages.transfer));
      if (event.stages.retry > 0) {
        Use(m, h.retry_usec).Record(static_cast<double>(event.stages.retry));
      }
      if (event.stages.merge_patch > 0) {
        Use(m, h.merge_patch_usec).Record(static_cast<double>(event.stages.merge_patch));
      }
      if (event.stages.append > 0) {
        Use(m, h.append_usec).Record(static_cast<double>(event.stages.append));
      }
      break;
  }
}

}  // namespace obs
}  // namespace vafs
