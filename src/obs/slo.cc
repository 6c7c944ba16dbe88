#include "src/obs/slo.h"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace vafs {
namespace obs {

namespace {

// Breach descriptions are rendered into a buffer of this size, as by
// snprintf: longer text is cut to kDescriptionMax - 1 characters.
constexpr size_t kDescriptionMax = 160;

// Appends `value` in printf's "%.<precision>f" form (std::to_chars renders
// exactly as printf does in the C locale).
void AppendFixed(std::string* out, double value, int precision) {
  char buffer[kDescriptionMax];
  const std::to_chars_result result = std::to_chars(
      buffer, buffer + sizeof(buffer), value, std::chars_format::fixed, precision);
  out->append(buffer, result.ec == std::errc() ? result.ptr : buffer);
}

}  // namespace

SloTracker::SloTracker(SloOptions options) : options_(options) {
  char buffer[kDescriptionMax];
  std::snprintf(buffer, sizeof(buffer), " meeting %.0f%% slack (target %.4f)",
                options_.slack_target * 100.0, options_.slo_target);
  breach_suffix_ = buffer;
}

std::string SloTracker::BreachDescription(const StreamSlo& slo, int64_t round) const {
  // Every saturated stream can breach in the same overloaded round, so this
  // avoids snprintf's float conversions; the text is the same as
  // "stream %llu breached continuity SLO at round %lld: %.4f within budget,
  // %.4f meeting %.0f%% slack (target %.4f)" in a 160-byte buffer.
  std::string description = "stream " + std::to_string(slo.request) +
                            " breached continuity SLO at round " + std::to_string(round) + ": ";
  AppendFixed(&description, slo.WithinBudgetFraction(), 4);
  description += " within budget, ";
  AppendFixed(&description, slo.MeetingSlackFraction(), 4);
  description += breach_suffix_;
  if (description.size() >= kDescriptionMax) {
    description.resize(kDescriptionMax - 1);
  }
  return description;
}

void SloTracker::OnEvent(const TraceEvent& event) {
  switch (event.kind) {
    case TraceEventKind::kSubmitAccepted: {
      const auto [index, inserted] = index_.Insert(event.request, streams_.size());
      if (inserted) {
        if (!streams_.empty() && event.request < streams_.back().slo.request) {
          ids_ascending_ = false;
        }
        streams_.emplace_back();
      } else {
        SettleServices();  // pending startup latencies count from the old stamp
      }
      StreamState& state = streams_[index];
      state.slo.request = event.request;
      state.slo.submit_time = event.time;
      break;
    }
    case TraceEventKind::kRoundStart:
      SettleServices();  // the previous round never ended: deliver, do not account
      round_services_.clear();
      settled_ = 0;
      round_open_ = true;
      round_k_ = event.k;
      round_start_time_ = event.time;
      break;
    case TraceEventKind::kRequestServiced: {
      if (!round_open_) {
        break;
      }
      const size_t* index = index_.Find(event.request);
      if (index == nullptr) {
        break;  // stream submitted before this tracker attached
      }
      round_services_.push_back(
          RoundService{*index, event.blocks, event.block_playback, event.time});
      break;
    }
    case TraceEventKind::kRoundEnd:
      ++rounds_total_;
      if (round_open_) {
        AccountRound(event);
      }
      round_open_ = false;
      break;
    case TraceEventKind::kBlockSkipped:
      if (StreamState* state = Find(event.request)) {
        ++state->slo.blocks_skipped;
      }
      break;
    case TraceEventKind::kBlockRetried:
      if (StreamState* state = Find(event.request)) {
        ++state->slo.blocks_retried;
      }
      break;
    case TraceEventKind::kCompleted:
      if (StreamState* state = Find(event.request)) {
        state->slo.completed = true;
      }
      break;
    case TraceEventKind::kSessionBatched:
      ++sessions_batched_;
      if (StreamState* leader = Find(event.leader)) {
        leader->slo.session = event.session;
        ++leader->slo.session_riders;
      }
      break;
    case TraceEventKind::kSessionPatched:
      ++sessions_patched_;
      if (StreamState* leader = Find(event.leader)) {
        leader->slo.session = event.session;
      }
      if (StreamState* patch = Find(event.request)) {
        patch->slo.session = event.session;
        patch->slo.session_leader = event.leader;
        patch->slo.session_patch = true;
      }
      break;
    case TraceEventKind::kSessionMerged:
      ++sessions_merged_;
      if (StreamState* patch = Find(event.request)) {
        patch->slo.session_merged = true;
      }
      if (StreamState* leader = Find(event.leader)) {
        // The merged rider now consumes from the leader's deliveries.
        ++leader->slo.session_riders;
      }
      break;
    default:
      break;
  }
}

const size_t* SloTracker::StreamIndex::Find(uint64_t id) const {
  if (slots_.empty()) {
    return nullptr;
  }
  const size_t mask = slots_.size() - 1;
  for (size_t s = Home(id);; s = (s + 1) & mask) {
    const Slot& slot = slots_[s];
    if (slot.index == kEmpty) {
      return nullptr;
    }
    if (slot.id == id) {
      return &slot.index;
    }
  }
}

std::pair<size_t, bool> SloTracker::StreamIndex::Insert(uint64_t id, size_t index) {
  if (const size_t* found = Find(id)) {
    return {*found, false};
  }
  if (2 * (size_ + 1) > slots_.size()) {
    Grow();
  }
  const size_t mask = slots_.size() - 1;
  size_t s = Home(id);
  while (slots_[s].index != kEmpty) {
    s = (s + 1) & mask;
  }
  slots_[s] = Slot{id, index};
  ++size_;
  return {index, true};
}

void SloTracker::StreamIndex::Grow() {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(old.empty() ? 64 : 2 * old.size(), Slot{});
  shift_ = 64 - std::countr_zero(slots_.size());
  const size_t mask = slots_.size() - 1;
  for (const Slot& slot : old) {
    if (slot.index != kEmpty) {
      size_t s = Home(slot.id);
      while (slots_[s].index != kEmpty) {
        s = (s + 1) & mask;
      }
      slots_[s] = slot;
    }
  }
}

SloTracker::StreamState* SloTracker::Find(uint64_t request) {
  const size_t* index = index_.Find(request);
  return index != nullptr ? &streams_[*index] : nullptr;
}

void SloTracker::Deliver(const RoundService& service, StreamSlo* slo) {
  slo->blocks_transferred += service.blocks;
  if (slo->startup_latency < 0) {
    slo->startup_latency = service.completion - slo->submit_time;
  }
}

void SloTracker::SettleServices() {
  for (; settled_ < round_services_.size(); ++settled_) {
    const RoundService& service = round_services_[settled_];
    Deliver(service, &streams_[service.stream].slo);
  }
}

void SloTracker::AccountRound(const TraceEvent& round_end) {
  const SimDuration round_duration = round_end.duration;
  const int64_t round_index = round_end.round;
  // Services arrive in disk order, so their entries are scattered over the
  // table: fetch the lines a stream's accounting touches a few services
  // ahead, and the memory latency overlaps the work on the current one.
  constexpr size_t kPrefetchAhead = 8;
  for (size_t i = 0; i < round_services_.size(); ++i) {
    if (i + kPrefetchAhead < round_services_.size()) {
      const StreamState& ahead = streams_[round_services_[i + kPrefetchAhead].stream];
      const char* base = reinterpret_cast<const char*>(&ahead);
      for (size_t line = 0; line < 3 * 64; line += 64) {
        __builtin_prefetch(base + line);  // tracker fields, StreamSlo scalars, slack_pct head
      }
      __builtin_prefetch(&ahead.slo.jitter_usec);
    }
    const RoundService& service = round_services_[i];
    StreamState& state = streams_[service.stream];
    StreamSlo& slo = state.slo;
    if (i == settled_) {
      Deliver(service, &slo);
      ++settled_;
    }
    const SimDuration budget = service.blocks * service.block_playback;

    // Jitter: spacing of service completions between adjacent rounds,
    // against the contract period of the earlier round.
    if (state.last_round == round_index - 1 && state.last_period > 0) {
      const SimDuration spacing = service.completion - state.last_completion;
      slo.jitter_usec.Record(std::abs(static_cast<double>(spacing - state.last_period)));
    }
    state.last_round = round_index;
    state.last_completion = service.completion;
    state.last_period = budget;

    if (service.blocks != round_k_ || budget <= 0) {
      ++slo.rounds_exempt;  // unsaturated: buffered runway, no deadline
      continue;
    }
    const double slack_fraction =
        static_cast<double>(budget - round_duration) / static_cast<double>(budget);
    if (slo.rounds_accounted == 0 || slack_fraction < slo.min_slack_fraction) {
      slo.min_slack_fraction = slack_fraction;
    }
    ++slo.rounds_accounted;
    slo.budget_utilization_sum_pct +=
        100.0 * static_cast<double>(round_duration) / static_cast<double>(budget);
    slo.slack_pct.Record(100.0 * slack_fraction);
    if (round_duration <= budget) {
      ++slo.rounds_within_budget;
    }
    if (slack_fraction >= options_.slack_target) {
      ++slo.rounds_meeting_slack;
    }
    if (!state.breached && !slo.ContinuityMet(options_)) {
      state.breached = true;
      if (breach_handler_) {
        breach_handler_(slo.request, BreachDescription(slo, round_index));
      }
    }
  }
  round_services_.clear();
  settled_ = 0;
}

SloReport SloTracker::Report() const {
  SloReport report;
  report.options = options_;
  report.rounds_total = rounds_total_;
  report.sessions_batched = sessions_batched_;
  report.sessions_patched = sessions_patched_;
  report.sessions_merged = sessions_merged_;
  report.streams.reserve(streams_.size());
  for (const StreamState& state : streams_) {
    report.streams.push_back(state.slo);
  }
  for (size_t i = settled_; i < round_services_.size(); ++i) {
    Deliver(round_services_[i], &report.streams[round_services_[i].stream]);
  }
  if (!ids_ascending_) {
    std::sort(report.streams.begin(), report.streams.end(),
              [](const StreamSlo& a, const StreamSlo& b) { return a.request < b.request; });
  }
  return report;
}

bool SloTracker::AllStreamsMeetSlo() const {
  return std::all_of(streams_.begin(), streams_.end(), [this](const StreamState& state) {
    return state.slo.ContinuityMet(options_);
  });
}

int64_t SloReport::BreachedStreams() const {
  return static_cast<int64_t>(
      std::count_if(streams.begin(), streams.end(),
                    [this](const StreamSlo& slo) { return !slo.ContinuityMet(options); }));
}

namespace {

void AppendDouble(std::string* out, double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.9g", value);
  out->append(buffer);
}

void AppendField(std::string* out, const char* name, double value, bool* first) {
  if (!*first) {
    *out += ", ";
  }
  *first = false;
  *out += "\"";
  *out += name;
  *out += "\": ";
  AppendDouble(out, value);
}

}  // namespace

std::string SloReport::ToJson() const {
  std::string json = "{\"version\": 1, \"kind\": \"vafs.slo.report\", \"slack_target\": ";
  AppendDouble(&json, options.slack_target);
  json += ", \"slo_target\": ";
  AppendDouble(&json, options.slo_target);
  json += ", \"rounds_total\": " + std::to_string(rounds_total);
  json += ", \"breached_streams\": " + std::to_string(BreachedStreams());
  json += ", \"sessions_batched\": " + std::to_string(sessions_batched);
  json += ", \"sessions_patched\": " + std::to_string(sessions_patched);
  json += ", \"sessions_merged\": " + std::to_string(sessions_merged);
  json += ", \"streams\": [";
  bool first_stream = true;
  for (const StreamSlo& slo : streams) {
    if (!first_stream) {
      json += ", ";
    }
    first_stream = false;
    json += "{";
    bool first = true;
    AppendField(&json, "request", static_cast<double>(slo.request), &first);
    AppendField(&json, "completed", slo.completed ? 1.0 : 0.0, &first);
    AppendField(&json, "startup_latency_usec", static_cast<double>(slo.startup_latency), &first);
    AppendField(&json, "rounds_accounted", static_cast<double>(slo.rounds_accounted), &first);
    AppendField(&json, "rounds_exempt", static_cast<double>(slo.rounds_exempt), &first);
    AppendField(&json, "within_budget_fraction", slo.WithinBudgetFraction(), &first);
    AppendField(&json, "meeting_slack_fraction", slo.MeetingSlackFraction(), &first);
    AppendField(&json, "min_slack_fraction",
                slo.rounds_accounted > 0 ? slo.min_slack_fraction : 0.0, &first);
    AppendField(&json, "mean_budget_utilization_pct", slo.MeanBudgetUtilizationPct(), &first);
    AppendField(&json, "slack_pct_p50", slo.slack_pct.Quantile(0.50), &first);
    AppendField(&json, "slack_pct_p99", slo.slack_pct.Quantile(0.99), &first);
    AppendField(&json, "jitter_usec_p50", slo.jitter_usec.Quantile(0.50), &first);
    AppendField(&json, "jitter_usec_p99", slo.jitter_usec.Quantile(0.99), &first);
    AppendField(&json, "blocks_transferred", static_cast<double>(slo.blocks_transferred), &first);
    AppendField(&json, "blocks_skipped", static_cast<double>(slo.blocks_skipped), &first);
    AppendField(&json, "blocks_retried", static_cast<double>(slo.blocks_retried), &first);
    AppendField(&json, "degraded_ratio", slo.DegradedRatio(), &first);
    AppendField(&json, "continuity_met", slo.ContinuityMet(options) ? 1.0 : 0.0, &first);
    AppendField(&json, "session", static_cast<double>(slo.session), &first);
    AppendField(&json, "session_leader", static_cast<double>(slo.session_leader), &first);
    AppendField(&json, "session_riders", static_cast<double>(slo.session_riders), &first);
    AppendField(&json, "session_patch", slo.session_patch ? 1.0 : 0.0, &first);
    AppendField(&json, "session_merged", slo.session_merged ? 1.0 : 0.0, &first);
    json += "}";
  }
  json += "]}";
  return json;
}

}  // namespace obs
}  // namespace vafs
