// The three workloads. Each batch: set-up (timed as setup_s), one or more
// streaming loops in simulated time (each round timed from outside by
// stepping the simulator), and the catalog script (rope edits, checkpoints,
// power cut -> Recover -> RunFsck cycles, read-back checks).
//
// Working sets against the 8 MiB block cache: 64 titles x 4 s of UVC video
// (12 KB frames) is about 92 MB of media, so every workload streams a
// catalog eleven times the cache; Zipf(1.0) puts about a fifth of the
// requests on the most popular title (1.4 MB), which fits.
#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/disk/disk_array.h"
#include "src/media/media.h"
#include "src/media/sources.h"
#include "src/msm/service_scheduler.h"
#include "src/sim/workload.h"
#include "src/util/checksum.h"
#include "src/util/prng.h"
#include "src/util/worker_pool.h"
#include "src/vafs/file_system.h"
#include "vafsbench/bench.h"
#include "vafsbench/ledger.h"

namespace vafsbench {

int64_t g_excluded_ns = 0;

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double Median(const std::vector<double>& values) { return Quantile(values, 0.5); }

uint64_t FoldText(uint64_t digest, const std::string& text) {
  for (const char c : text) {
    digest = (digest ^ static_cast<uint8_t>(c)) * 1099511628211ULL;
  }
  return digest;
}

void BatchResult::Fail(const std::string& what) {
  ++failed;
  if (failures.size() < 8) {
    failures.push_back(what);
  }
}

bool KnownWorkload(const std::string& name) {
  return name == "vod_flash" || name == "vod_array" || name == "studio_mixed";
}

int ArrayWorkers() {
  const unsigned n = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp<unsigned>(n, 1, 4));
}

namespace {

using namespace vafs;

constexpr int kTitles = 64;
constexpr double kTitleSec = 4.0;
constexpr char kUser[] = "bench";
// Viewers arrive inside a short window so the whole population is
// concurrent; the horizon is fixed simulated time, so the round count does
// not depend on how fast the host is. Titles outlast the horizon, so after
// the activation round every timed round carries the full population.
constexpr double kArrivalWindowSec = 0.2;
constexpr double kVodHorizonSec = 16.0;
constexpr int64_t kFlashViewers = 20000;
constexpr int64_t kArrayViewers = 8000;
constexpr int kArrayMembers = 4;
// studio_mixed: per cycle, one streaming slice then the catalog script.
// Eq. 17 admits five such streams on the bench disk: three viewers and two
// recordings, interleaved at fixed offsets, fill it without a rejection.
constexpr int kStudioCycles = 12;
constexpr int64_t kStudioViewers = 3;
constexpr int64_t kStudioRecordings = 2;
constexpr double kStudioArrivalGapSec = 0.08;
constexpr double kStudioRecordingSec = 1.0;
constexpr double kStudioSliceSec = 6.0;
constexpr int kStudioEditsPerCycle = 124;
// A cycle's edit count is not a multiple of this, so every crash cycle has
// journaled intents for Recover to replay.
constexpr int kEditsPerCheckpoint = 6;
// vod_*: the operator's catalog script after the streaming loop.
constexpr int kVodScriptCycles = 8;
constexpr int kVodEditsPerCycle = 124;
// Rope-edit bounds keep every edit's cost, and every journal generation,
// the same size through a run.
constexpr int kMinCuts = 3;
constexpr int64_t kMaxCutBlocks = 48;

DiskParameters BenchDisk() {
  DiskParameters params;
  params.cylinders = 2000;
  params.surfaces = 16;
  params.sectors_per_track = 128;
  params.bytes_per_sector = 512;
  params.rpm = 7200.0;
  params.min_seek_ms = 1.0;
  params.max_seek_ms = 8.0;
  return params;
}

FileSystemConfig BaseConfig(WorkerPool* pool) {
  FileSystemConfig config;
  config.disk = BenchDisk();
  config.video_device = DeviceProfile{UvcCompressedVideo().BitRate() * 3.0, 8};
  config.architecture = RetrievalArchitecture::kPipelined;
  config.scheduler.service_order = ServiceOrder::kPlanned;
  config.scheduler.worker_pool = pool;
  config.block_cache.capacity_bytes = 8 << 20;
  config.retain_data = true;
  return config;
}

// Times one of the benchmark's own calls into the library. The time also
// grows g_excluded_ns, which only a traced batch's ledger reads: it drops
// the call from the phase it lands in. Timed walls keep it, because the
// call is library work.
template <typename Fn>
auto OwnCall(std::vector<double>* us, Fn&& fn) {
  const int64_t start = NowNs();
  auto result = fn();
  const int64_t spent = NowNs() - start;
  g_excluded_ns += spent;
  if (us != nullptr) {
    us->push_back(static_cast<double>(spent) / 1e3);
  }
  return result;
}

// One scheduled submission of the open-loop arrival schedule.
struct Arrival {
  SimTime at;
  std::function<void()> submit;
};

// Steps the simulator to `horizon`, timing every round from outside: a
// step is a round when the scheduler's round counter moved. Arrivals are
// submitted between steps, as soon as the clock has reached their time:
// the schedule never waits for the system, and a round that overruns an
// arrival defers it to the round's end (the simulated generator lateness
// counts in the viewer's startup). A wake-up event at the next arrival
// time keeps an idle simulator moving. The loop wall includes the submit
// calls; a round's time is its simulator step alone.
void StreamLoop(Simulator& sim, SimTime horizon, std::vector<Arrival>& arrivals,
                const std::function<int64_t()>& rounds, BatchResult* out, Ledger* ledger,
                bool admitted) {
  bool reached = false;
  bool wake_pending = false;
  size_t next = 0;
  sim.ScheduleAt(horizon, [&reached] { reached = true; });
  if (ledger != nullptr) {
    ledger->BeginLoop(/*check_round_time=*/admitted);
  }
  const int64_t loop_start = NowNs();
  while (!reached) {
    for (; next < arrivals.size() && arrivals[next].at <= sim.Now(); ++next) {
      arrivals[next].submit();
    }
    if (!wake_pending && next < arrivals.size()) {
      wake_pending = true;
      sim.ScheduleAt(arrivals[next].at, [&wake_pending] { wake_pending = false; });
    }
    const int64_t before_rounds = rounds();
    const int64_t start = NowNs();
    if (!sim.Step()) {
      break;
    }
    // A Submit from inside a round (the session layer re-forming a group
    // on a completion) runs the next round nested in the same step; such
    // rounds share the step's time equally.
    const int64_t ran = rounds() - before_rounds;
    if (ran > 0) {
      const int64_t spent = NowNs() - start;
      for (int64_t r = 0; r < ran; ++r) {
        out->round_ms.push_back(static_cast<double>(spent) / 1e6 / static_cast<double>(ran));
      }
    }
  }
  out->loop_s += static_cast<double>(NowNs() - loop_start) / 1e9;
  if (ledger != nullptr) {
    ledger->EndLoop();
  }
}

// Physical streams with their scheduled arrival, appended inside the timed
// loop. Sorted() orders them by id, keeping each id's first arrival (a
// session leader also appears under the viewers it patched).
struct Requests {
  std::vector<std::pair<RequestId, SimTime>> list;

  void Add(RequestId id, SimTime at) { list.emplace_back(id, at); }
  const std::vector<std::pair<RequestId, SimTime>>& Sorted() {
    std::stable_sort(list.begin(), list.end(),
                     [](const auto& a, const auto& b) { return a.first < b.first; });
    list.erase(std::unique(list.begin(), list.end(),
                           [](const auto& a, const auto& b) { return a.first == b.first; }),
               list.end());
    return list;
  }
};

// Per-request RequestStats folded into the receipt and the sim metrics.
// Startup counts from the arrival's scheduled time, so it includes any wait
// for the round in progress to end.
struct StatsFold {
  uint64_t digest = kFnvBasis;
  int64_t completion = 0;

  void Add(const RequestStats& stats, SimTime scheduled, BatchResult* out) {
    for (int64_t v : {static_cast<int64_t>(stats.id), stats.blocks_done, stats.blocks_total,
                      stats.continuity_violations, stats.total_tardiness, stats.startup_latency,
                      stats.completion_time, stats.blocks_skipped, stats.capture_overflows,
                      static_cast<int64_t>(stats.completed)}) {
      digest = Fold(digest, static_cast<uint64_t>(v));
    }
    completion = std::max(completion, stats.completion_time);
    if (stats.is_recording) {
      return;
    }
    out->late_blocks += stats.continuity_violations;
    out->delivered_blocks += stats.blocks_done;
    if (stats.startup_latency != RequestStats::kUnsetLatency) {
      const SimTime first_played = stats.submit_time + stats.startup_latency;
      out->startup_ms.push_back(static_cast<double>(first_played - scheduled) / 1e3);
    }
  }
};

// The seeded catalog script: rope edits against a block-level model of
// every edited rope, periodic checkpoints, and power cut -> Recover ->
// RunFsck cycles whose read-back must match the model.
class Studio {
 public:
  Studio(MultimediaFileSystem* fs, const std::vector<RopeId>& titles,
         const std::vector<std::vector<uint64_t>>* title_crcs, int64_t granularity,
         double rate, uint64_t seed, BatchResult* out, Ledger* ledger)
      : fs_(fs),
        titles_(titles),
        title_crcs_(title_crcs),
        block_sec_(static_cast<double>(granularity) / rate),
        prng_(seed ^ 0x5d1f0c0ffeeULL),
        out_(out),
        ledger_(ledger) {
    for (size_t t = 0; t < titles.size(); ++t) {
      Model blocks;
      for (size_t b = 0; b < (*title_crcs)[t].size(); ++b) {
        blocks.push_back(Key{static_cast<int>(t), static_cast<int>(b)});
      }
      models_[titles[t]] = std::move(blocks);
    }
  }

  // `count` seeded edits; a checkpoint every kEditsPerCheckpoint of them.
  void Edits(int count) {
    for (int i = 0; i < count; ++i) {
      Edit();
      if ((i + 1) % kEditsPerCheckpoint == 0) {
        Checkpoint();
      }
    }
  }

  void Checkpoint() {
    ++out_->attempted;
    const int64_t before = fs_->disk().fault_injector().sectors_written();
    std::vector<double> us;
    const Status status = OwnCall(&us, [&] { return fs_->Checkpoint(); });
    out_->checkpoint_ms.push_back(us.back() / 1e3);
    if (!status.ok()) {
      out_->Fail("Checkpoint: " + status.ToString());
    } else if (ledger_ != nullptr) {
      ledger_->Add("persistence.checkpoint_sectors",
                   static_cast<double>(fs_->disk().fault_injector().sectors_written() - before));
    }
  }

  // Cuts power inside a checkpoint's writes, recovers, checks, and reads
  // every edited rope back. Whether the cut checkpoint committed or not,
  // the previous root plus the journal hold every edit, so the model is
  // the expected state either way.
  void CrashCycle() {
    const int64_t cut_after = static_cast<int64_t>(prng_.NextBelow(12));
    const bool torn = prng_.NextBelow(2) == 1;
    fs_->disk().fault_injector().ArmPowerCut(cut_after, torn);
    (void)fs_->Checkpoint();  // dies mid-write unless it needs fewer sectors
    if (!fs_->disk().powered_off()) {
      fs_->disk().fault_injector().PowerRestore();  // disarm the unused cut
    }
    ++out_->attempted;
    std::vector<double> us;
    const Status recovered = OwnCall(&us, [&] { return fs_->Recover(); });
    out_->recover_ms.push_back(us.back() / 1e3);
    if (!recovered.ok()) {
      out_->Fail("Recover: " + recovered.ToString());
      return;
    }
    if (ledger_ != nullptr) {
      // The rebuilt store starts without a sink; the disk keeps its own.
      fs_->storage_manager().set_trace_sink(ledger_);
    }
    ++out_->attempted;
    Result<FsckReport> report = OwnCall(&us, [&] { return fs_->RunFsck(); });
    out_->fsck_ms.push_back(us.back() / 1e3);
    if (!report.ok()) {
      out_->Fail("RunFsck: " + report.status().ToString());
    } else {
      CheckFindings(*report);
    }
    Verify();
  }

  // The armed cut may tear a root slot or the journal's tail; fsck then
  // reports that and falls back to the other slot or the valid prefix. Any
  // other finding (a lost catalog, a leaked, doubly-claimed or unreadable
  // extent) means recovery left the file system damaged.
  void CheckFindings(const FsckReport& report) {
    for (const FsckFinding& finding : report.findings) {
      if (finding.kind == FsckFindingKind::kCorruptRoot ||
          finding.kind == FsckFindingKind::kTornJournalEntry) {
        continue;
      }
      ++out_->attempted;
      out_->Fail(std::string("fsck finding ") + FsckFindingKindName(finding.kind) + ": " +
                 finding.detail);
    }
    if (report.used_scavenger) {
      ++out_->attempted;
      out_->Fail("fsck lost the catalog and scavenged the disk");
    }
  }

  void Verify() {
    for (const auto& [rope, model] : models_) {
      if (IsTitle(rope)) {
        continue;
      }
      ++out_->attempted;
      Result<std::vector<std::vector<uint8_t>>> blocks = fs_->ReadRopeBlocks(
          kUser, rope, Medium::kVideo, TimeInterval{0.0, Seconds(model.size())});
      if (!blocks.ok()) {
        out_->Fail("ReadRopeBlocks: " + blocks.status().ToString());
        continue;
      }
      bool same = blocks->size() == model.size();
      for (size_t b = 0; same && b < model.size(); ++b) {
        const uint64_t crc = Crc64((*blocks)[b]);
        same = crc == (*title_crcs_)[static_cast<size_t>(model[b].title)]
                                    [static_cast<size_t>(model[b].block)];
        out_->receipts.ropes = Fold(out_->receipts.ropes, crc);
      }
      if (!same) {
        out_->Fail("rope " + std::to_string(rope) + " read back differs from its edits");
      }
    }
  }

  // Sectors allocated / sectors of media referenced by live ropes.
  double BytesStoredPerUserByte() const {
    StrandStore& store = fs_->storage_manager();
    std::set<StrandId> live;
    for (const Rope* rope : fs_->rope_server().AllRopes()) {
      for (const TrackSegment& segment : rope->video().segments) {
        if (!segment.IsGap()) {
          live.insert(segment.strand);
        }
      }
    }
    int64_t media_sectors = 0;
    for (StrandId id : live) {
      Result<const Strand*> strand = store.Get(id);
      if (!strand.ok()) {
        continue;
      }
      for (int64_t b = 0; b < (*strand)->block_count(); ++b) {
        Result<PrimaryEntry> entry = (*strand)->index().Lookup(b);
        if (entry.ok() && !entry->IsSilence()) {
          media_sectors += entry->sector_count;
        }
      }
    }
    const ConstrainedAllocator& allocator = store.allocator();
    const int64_t allocated = allocator.total_sectors() - allocator.free_sectors();
    return media_sectors > 0 ? static_cast<double>(allocated) / media_sectors : 0.0;
  }

 private:
  struct Key {
    int title;
    int block;
  };
  using Model = std::vector<Key>;

  bool IsTitle(RopeId rope) const {
    return std::find(titles_.begin(), titles_.end(), rope) != titles_.end();
  }
  double Seconds(size_t blocks) const { return static_cast<double>(blocks) * block_sec_; }
  TimeInterval Span(size_t start, size_t count) const {
    return TimeInterval{Seconds(start), Seconds(count)};
  }
  int64_t Pick(int64_t n) {
    return static_cast<int64_t>(prng_.NextBelow(static_cast<uint64_t>(n)));
  }

  std::vector<RopeId> Cuts() const {
    std::vector<RopeId> cuts;
    for (const auto& [rope, model] : models_) {
      if (!IsTitle(rope)) {
        cuts.push_back(rope);
      }
    }
    return cuts;
  }
  RopeId AnyRope() {
    std::vector<RopeId> cuts = Cuts();
    if (cuts.empty() || Pick(3) == 0) {
      return titles_[static_cast<size_t>(Pick(static_cast<int64_t>(titles_.size())))];
    }
    return cuts[static_cast<size_t>(Pick(static_cast<int64_t>(cuts.size())))];
  }

  // Runs one edit call, timed, counted under `kind`.
  template <typename Fn>
  auto Timed(const char* kind, Fn&& fn) {
    ++out_->attempted;
    ++out_->edits;
    std::vector<double>* samples = &out_->edit_us_by_kind[kind];
    auto result = OwnCall(samples, fn);
    out_->edit_us.push_back(samples->back());
    return result;
  }

  void Check(const Status& status, const char* what) {
    if (!status.ok()) {
      out_->Fail(std::string(what) + ": " + status.ToString());
    }
  }

  void Substring() {
    const RopeId source = AnyRope();
    const Model& from = models_[source];
    const size_t start = static_cast<size_t>(Pick(static_cast<int64_t>(from.size())));
    const size_t count = 1 + static_cast<size_t>(Pick(
                                 std::min<int64_t>(16, static_cast<int64_t>(from.size() - start))));
    Result<RopeId> made = Timed("substring", [&] {
      return fs_->rope_server().Substring(kUser, source, MediaSelector::kAudioVisual,
                                          Span(start, count));
    });
    if (!made.ok()) {
      Check(made.status(), "Substring");
      return;
    }
    models_[*made] = Model(from.begin() + static_cast<ptrdiff_t>(start),
                           from.begin() + static_cast<ptrdiff_t>(start + count));
  }

  bool Concat() {
    std::vector<RopeId> cuts = Cuts();
    const RopeId a = cuts[static_cast<size_t>(Pick(static_cast<int64_t>(cuts.size())))];
    const RopeId b = cuts[static_cast<size_t>(Pick(static_cast<int64_t>(cuts.size())))];
    if (models_[a].size() + models_[b].size() > static_cast<size_t>(kMaxCutBlocks)) {
      return false;
    }
    Result<RopeId> made = Timed("concat", [&] { return fs_->rope_server().Concat(kUser, a, b); });
    if (!made.ok()) {
      Check(made.status(), "Concat");
      return true;
    }
    Model joined = models_[a];
    joined.insert(joined.end(), models_[b].begin(), models_[b].end());
    models_[*made] = std::move(joined);
    Repair(*made);
    return true;
  }

  bool Insert(RopeId base) {
    Model& target = models_[base];
    const RopeId with = AnyRope();
    const Model source = models_[with];
    const int64_t room = kMaxCutBlocks - static_cast<int64_t>(target.size());
    if (room <= 0) {
      return false;
    }
    const size_t start = static_cast<size_t>(Pick(static_cast<int64_t>(source.size())));
    const size_t count = 1 + static_cast<size_t>(Pick(std::min<int64_t>(
                                 {8, room, static_cast<int64_t>(source.size() - start)})));
    const size_t at = static_cast<size_t>(Pick(static_cast<int64_t>(target.size()) + 1));
    const Status status = Timed("insert", [&] {
      return fs_->rope_server().Insert(kUser, base, Seconds(at), MediaSelector::kAudioVisual,
                                       with, Span(start, count));
    });
    if (!status.ok()) {
      Check(status, "Insert");
      return true;
    }
    target.insert(target.begin() + static_cast<ptrdiff_t>(at),
                  source.begin() + static_cast<ptrdiff_t>(start),
                  source.begin() + static_cast<ptrdiff_t>(start + count));
    Repair(base);
    return true;
  }

  void Replace(RopeId base) {
    Model& target = models_[base];
    const RopeId with = AnyRope();
    const Model source = models_[with];
    const size_t at = static_cast<size_t>(Pick(static_cast<int64_t>(target.size())));
    const size_t erase = 1 + static_cast<size_t>(Pick(static_cast<int64_t>(target.size() - at)));
    const size_t start = static_cast<size_t>(Pick(static_cast<int64_t>(source.size())));
    const int64_t room = kMaxCutBlocks - static_cast<int64_t>(target.size() - erase);
    const size_t count = 1 + static_cast<size_t>(Pick(std::min<int64_t>(
                                 {8, room, static_cast<int64_t>(source.size() - start)})));
    const Status status = Timed("replace", [&] {
      return fs_->rope_server().Replace(kUser, base, MediaSelector::kAudioVisual,
                                        Span(at, erase), with, Span(start, count));
    });
    if (!status.ok()) {
      Check(status, "Replace");
      return;
    }
    target.erase(target.begin() + static_cast<ptrdiff_t>(at),
                 target.begin() + static_cast<ptrdiff_t>(at + erase));
    target.insert(target.begin() + static_cast<ptrdiff_t>(at),
                  source.begin() + static_cast<ptrdiff_t>(start),
                  source.begin() + static_cast<ptrdiff_t>(start + count));
    Repair(base);
  }

  bool Delete(RopeId base) {
    Model& target = models_[base];
    if (target.size() < 2) {
      return false;
    }
    const size_t at = static_cast<size_t>(Pick(static_cast<int64_t>(target.size())));
    const size_t count =
        1 + static_cast<size_t>(Pick(std::min<int64_t>(static_cast<int64_t>(target.size() - at),
                                                       static_cast<int64_t>(target.size()) - 1)));
    const Status status = Timed("delete", [&] {
      return fs_->rope_server().Delete(kUser, base, MediaSelector::kAudioVisual,
                                       Span(at, count));
    });
    if (!status.ok()) {
      Check(status, "Delete");
      return true;
    }
    target.erase(target.begin() + static_cast<ptrdiff_t>(at),
                 target.begin() + static_cast<ptrdiff_t>(at + count));
    return true;
  }

  // Eq. 19/20 seam repair after a splice: copies at most the bounded
  // number of blocks so every seam meets the scattering bound.
  void Repair(RopeId rope) {
    Result<RopeServer::RopeRepairStats> stats =
        Timed("repair", [&] { return fs_->rope_server().RepairRope(rope, Medium::kVideo); });
    if (!stats.ok()) {
      Check(stats.status(), "RepairRope");
      return;
    }
    out_->copy_blocks += stats->blocks_copied;
  }

  // Drops one cut and collects the strands nothing references any more.
  void Collect() {
    std::vector<RopeId> cuts = Cuts();
    const RopeId victim = cuts[static_cast<size_t>(Pick(static_cast<int64_t>(cuts.size())))];
    const Status status = Timed("gc", [&] {
      Status deleted = fs_->rope_server().DeleteRope(kUser, victim);
      fs_->rope_server().CollectGarbage();
      return deleted;
    });
    Check(status, "DeleteRope");
    models_.erase(victim);
  }

  // The edit kinds run in a fixed rotation, so every seed runs the same
  // mix and only the operands are seeded. A rotation adds two cuts and
  // collects two, so the catalog stays the same size.
  void Edit() {
    std::vector<RopeId> cuts = Cuts();
    if (static_cast<int64_t>(cuts.size()) < kMinCuts) {
      Substring();
      return;
    }
    const RopeId base = cuts[static_cast<size_t>(Pick(static_cast<int64_t>(cuts.size())))];
    switch (rotation_++ % 7) {
      case 0:
        Substring();
        break;
      case 1:
        if (!Insert(base)) {
          Delete(base);  // the cut is full
        }
        break;
      case 2:
        Replace(base);
        break;
      case 3:
        if (!Concat()) {
          Substring();  // the pair would exceed the cut bound
        }
        break;
      case 4:
        if (!Delete(base)) {
          Insert(base);  // a one-block cut
        }
        break;
      default:
        Collect();
        break;
    }
  }

  MultimediaFileSystem* fs_;
  std::vector<RopeId> titles_;
  const std::vector<std::vector<uint64_t>>* title_crcs_;
  double block_sec_;
  Prng prng_;
  BatchResult* out_;
  Ledger* ledger_;
  std::map<RopeId, Model> models_;
  int64_t rotation_ = 0;
};

// Records the catalog and reads it back once for the per-block CRCs the
// edit checks compare against.
struct Catalog {
  std::vector<RopeId> titles;
  std::vector<std::vector<uint64_t>> crcs;
  int64_t granularity = 1;
  double rate = 30.0;
};

Catalog RecordCatalog(MultimediaFileSystem& fs, uint64_t seed, BatchResult* out) {
  Catalog catalog;
  for (int t = 0; t < kTitles; ++t) {
    ++out->attempted;
    VideoSource source(UvcCompressedVideo(), seed * 131 + static_cast<uint64_t>(t));
    Result<MultimediaFileSystem::RecordResult> recorded =
        fs.Record(kUser, &source, nullptr, kTitleSec);
    if (!recorded.ok()) {
      out->Fail("Record: " + recorded.status().ToString());
      continue;
    }
    Result<std::vector<std::vector<uint8_t>>> blocks = fs.ReadRopeBlocks(
        kUser, recorded->rope, Medium::kVideo, TimeInterval{0.0, kTitleSec});
    if (!blocks.ok() || blocks->empty()) {
      out->Fail("ReadRopeBlocks of a fresh title: " + blocks.status().ToString());
      continue;
    }
    std::vector<uint64_t> crcs;
    for (const std::vector<uint8_t>& block : *blocks) {
      crcs.push_back(Crc64(block));
    }
    catalog.titles.push_back(recorded->rope);
    catalog.crcs.push_back(std::move(crcs));
  }
  if (!catalog.titles.empty()) {
    const Track& track = (*fs.rope_server().Find(catalog.titles.front()))->video();
    catalog.granularity = track.granularity;
    catalog.rate = track.rate;
  }
  return catalog;
}

sim::WorkloadOptions ZipfArrivals(uint64_t seed, bool flash) {
  sim::WorkloadOptions options;
  options.titles = kTitles;
  options.zipf_exponent = 1.0;
  options.duration_sec = kArrivalWindowSec;
  if (flash) {
    // ~20% of the window redirects to title 0; those viewers open sessions.
    options.flash_start_sec = 0.4 * kArrivalWindowSec;
    options.flash_duration_sec = 0.2 * kArrivalWindowSec;
    options.flash_title_bias = 1.0;
    options.flash_title = 0;
  }
  options.seed = seed;
  return options;
}

void FinishBatch(MultimediaFileSystem& fs, Studio& studio, BatchResult* out, Ledger* ledger) {
  out->bytes_stored_per_user_byte = studio.BytesStoredPerUserByte();
  if (ledger == nullptr) {
    return;
  }
  if (BlockCache* cache = fs.block_cache(); cache != nullptr) {
    ledger->Add("cache.hits", static_cast<double>(cache->stats().hits));
    ledger->Add("cache.misses", static_cast<double>(cache->stats().misses));
    ledger->Add("cache.evictions", static_cast<double>(cache->stats().evictions));
    ledger->Add("cache.invalidations", static_cast<double>(cache->stats().invalidated_entries));
    ledger->Add("cache.pool_created", static_cast<double>(cache->page_pool().pages_created()));
    ledger->Add("cache.pool_recycled", static_cast<double>(cache->page_pool().pages_recycled()));
  }
  const ConstrainedAllocator& allocator = fs.storage_manager().allocator();
  ledger->Set("store.live_sectors",
              static_cast<double>(allocator.total_sectors() - allocator.free_sectors()));
}

BatchResult RunVodFlash(uint64_t seed, Ledger* ledger) {
  BatchResult out;
  const int64_t setup_start = NowNs();
  WorkerPool pool(1);
  FileSystemConfig config = BaseConfig(&pool);
  config.scheduler.bypass_admission = true;
  config.scheduler.forced_k = 1;
  config.scheduler.batch_activation = true;
  config.scheduler.trace = ledger;
  config.sessions.enabled = true;
  config.sessions.batch_window_sec = 1.0;
  config.sessions.max_patch_blocks = 1 << 20;
  config.sessions.runway_margin_blocks = 0;
  config.telemetry.enabled = true;
  MultimediaFileSystem fs(config);
  Catalog catalog = RecordCatalog(fs, seed, &out);
  if (Status status = fs.Checkpoint(); !status.ok()) {
    out.Fail("Checkpoint: " + status.ToString());
  }
  const std::vector<sim::WorkloadArrival> arrivals =
      sim::WorkloadEngine(ZipfArrivals(seed, /*flash=*/true)).GenerateCount(kFlashViewers);
  out.setup_s = static_cast<double>(NowNs() - setup_start) / 1e9;
  if (catalog.titles.size() != static_cast<size_t>(kTitles)) {
    return out;
  }

  Requests requests;
  const SimTime base = fs.simulator().Now();
  std::vector<Arrival> schedule;
  for (const sim::WorkloadArrival& arrival : arrivals) {
    const RopeId rope = catalog.titles[static_cast<size_t>(arrival.title) % kTitles];
    const bool session = arrival.flash;
    const SimTime at = base + SecondsToUsec(arrival.time_sec);
    schedule.push_back({at, [&, rope, session, at] {
      ++out.attempted;
      const TimeInterval interval{0.0, kTitleSec};
      if (session) {
        Result<SessionTicket> ticket = OwnCall(&out.open_us, [&] {
          return fs.OpenSession(kUser, rope, Medium::kVideo, interval);
        });
        if (!ticket.ok()) {
          out.Fail("OpenSession: " + ticket.status().ToString());
          return;
        }
        if (ticket->mode != SessionTicket::Mode::kBatched) {
          requests.Add(ticket->request, at);
        }
        if (ticket->patch_request != 0) {
          requests.Add(ticket->patch_request, at);
        }
      } else {
        Result<RequestId> id = OwnCall(
            &out.play_us, [&] { return fs.Play(kUser, rope, Medium::kVideo, interval); });
        if (!id.ok()) {
          out.Fail("Play: " + id.status().ToString());
          return;
        }
        requests.Add(*id, at);
      }
    }});
  }
  StreamLoop(
      fs.simulator(), base + SecondsToUsec(kVodHorizonSec), schedule,
      [&] { return fs.scheduler().rounds_executed(); }, &out, ledger, /*admitted=*/false);

  StatsFold fold;
  for (const auto& [id, at] : requests.Sorted()) {
    Result<RequestStats> stats = fs.Stats(id);
    if (stats.ok()) {
      fold.Add(*stats, at, &out);
    }
  }
  out.receipts.requests = fold.digest;
  out.receipts.completion = fold.completion;
  out.receipts.slo = FoldText(kFnvBasis, fs.SloSnapshot().ToJson());
  out.receipts.payload = fs.scheduler().payload_digest();
  if (ledger != nullptr && fs.session_manager() != nullptr) {
    const SessionCensus& census = fs.session_manager()->census();
    ledger->Set("session.batched", static_cast<double>(census.batched));
    ledger->Set("session.patched", static_cast<double>(census.patched));
    ledger->Set("session.merged", static_cast<double>(census.merged));
    const int64_t streams = census.leaders + census.patched;
    ledger->Set("session.viewers_per_stream",
                streams > 0 ? static_cast<double>(census.viewers) / streams : 0.0);
  }

  Studio studio(&fs, catalog.titles, &catalog.crcs, catalog.granularity, catalog.rate, seed, &out,
                ledger);
  for (int cycle = 0; cycle < kVodScriptCycles; ++cycle) {
    studio.Edits(kVodEditsPerCycle);
    studio.CrashCycle();
  }
  FinishBatch(fs, studio, &out, ledger);
  return out;
}

BatchResult RunVodArray(uint64_t seed, Ledger* ledger, int workers) {
  BatchResult out;
  const int64_t setup_start = NowNs();
  WorkerPool pool(workers > 0 ? workers : ArrayWorkers());
  FileSystemConfig config = BaseConfig(&pool);
  MultimediaFileSystem fs(config);
  if (ledger != nullptr) {
    fs.disk().set_trace_sink(ledger);
    fs.storage_manager().set_trace_sink(ledger);
  }
  Catalog catalog = RecordCatalog(fs, seed, &out);
  if (Status status = fs.Checkpoint(); !status.ok()) {
    out.Fail("Checkpoint: " + status.ToString());
  }
  DiskArray array(BenchDisk(), kArrayMembers);
  if (ledger != nullptr) {
    for (int m = 0; m < array.members(); ++m) {
      array.member(m).set_trace_sink(ledger);
    }
  }
  const std::vector<sim::WorkloadArrival> arrivals =
      sim::WorkloadEngine(ZipfArrivals(seed, /*flash=*/false)).GenerateCount(kArrayViewers);
  out.setup_s = static_cast<double>(NowNs() - setup_start) / 1e9;
  if (catalog.titles.size() != static_cast<size_t>(kTitles)) {
    return out;
  }

  {
    // The facade cannot carry an array: a bare scheduler plays the
    // facade's strands through the array's members.
    SchedulerOptions options;
    options.service_order = ServiceOrder::kPlanned;
    options.disk_array = &array;
    options.worker_pool = &pool;
    options.verify_payloads = true;
    options.bypass_admission = true;
    options.forced_k = 1;
    options.batch_activation = true;
    options.block_cache = fs.block_cache();
    options.trace = ledger;
    ServiceScheduler scheduler(&fs.storage_manager(), &fs.simulator(), fs.admission(), options);
    const MediaProfile video = UvcCompressedVideo();
    const SimDuration block_duration =
        SecondsToUsec(static_cast<double>(catalog.granularity) / catalog.rate);

    Requests requests;
    const SimTime base = fs.simulator().Now();
    std::vector<Arrival> schedule;
    for (const sim::WorkloadArrival& arrival : arrivals) {
      const RopeId rope = catalog.titles[static_cast<size_t>(arrival.title) % kTitles];
      const SimTime at = base + SecondsToUsec(arrival.time_sec);
      schedule.push_back({at, [&, rope, at] {
        ++out.attempted;
        Result<RequestId> id = OwnCall(&out.play_us, [&]() -> Result<RequestId> {
          Result<std::vector<PrimaryEntry>> blocks = fs.rope_server().ResolveBlocks(
              kUser, rope, Medium::kVideo, TimeInterval{0.0, kTitleSec});
          if (!blocks.ok()) {
            return blocks.status();
          }
          PlaybackRequest request;
          request.blocks = std::move(*blocks);
          request.block_duration = block_duration;
          request.spec = RequestSpec{video, catalog.granularity};
          return scheduler.SubmitPlayback(std::move(request));
        });
        if (!id.ok()) {
          out.Fail("SubmitPlayback: " + id.status().ToString());
          return;
        }
        requests.Add(*id, at);
      }});
    }
    StreamLoop(
        fs.simulator(), base + SecondsToUsec(kVodHorizonSec), schedule,
        [&] { return scheduler.rounds_executed(); }, &out, ledger, /*admitted=*/false);
    // Drop the bare scheduler's pending rounds before it goes away.
    fs.simulator().Clear();

    StatsFold fold;
    for (const auto& [id, at] : requests.Sorted()) {
      Result<RequestStats> stats = scheduler.stats(id);
      if (stats.ok()) {
        fold.Add(*stats, at, &out);
      }
    }
    out.receipts.requests = fold.digest;
    out.receipts.completion = fold.completion;
    out.receipts.payload = scheduler.payload_digest();
  }
  if (ledger != nullptr) {
    ledger->Set("util.crc_mb", ledger->sectors_read() * 512.0 / 1e6);
  }

  Studio studio(&fs, catalog.titles, &catalog.crcs, catalog.granularity, catalog.rate, seed, &out,
                ledger);
  for (int cycle = 0; cycle < kVodScriptCycles; ++cycle) {
    studio.Edits(kVodEditsPerCycle);
    studio.CrashCycle();
  }
  FinishBatch(fs, studio, &out, ledger);
  return out;
}

BatchResult RunStudioMixed(uint64_t seed, Ledger* ledger) {
  BatchResult out;
  const int64_t setup_start = NowNs();
  WorkerPool pool(1);
  FileSystemConfig config = BaseConfig(&pool);
  config.scheduler.trace = ledger;
  MultimediaFileSystem fs(config);
  if (ledger != nullptr) {
    fs.disk().set_trace_sink(ledger);
    fs.storage_manager().set_trace_sink(ledger);
  }
  Catalog catalog = RecordCatalog(fs, seed, &out);
  if (Status status = fs.Checkpoint(); !status.ok()) {
    out.Fail("Checkpoint: " + status.ToString());
  }
  sim::ZipfPopularity popularity(kTitles, 1.0);
  Prng arrivals_prng(seed);
  out.setup_s = static_cast<double>(NowNs() - setup_start) / 1e9;
  if (catalog.titles.size() != static_cast<size_t>(kTitles)) {
    return out;
  }

  Studio studio(&fs, catalog.titles, &catalog.crcs, catalog.granularity, catalog.rate, seed, &out,
                ledger);
  StatsFold fold;
  for (int cycle = 0; cycle < kStudioCycles; ++cycle) {
    // Streaming slice: viewers of seeded titles and timed recordings share
    // planned rounds under real admission, arriving at fixed offsets. The
    // slice outlasts every request, so the scheduler is idle when the
    // catalog script runs.
    Requests requests;
    const SimTime base = fs.simulator().Now();
    std::vector<Arrival> schedule;
    for (int64_t v = 0; v < kStudioViewers + kStudioRecordings; ++v) {
      const SimTime at = base + SecondsToUsec(kStudioArrivalGapSec * static_cast<double>(v));
      if (v % 2 == 1 && v / 2 < kStudioRecordings) {
        schedule.push_back({at, [&, at] {
          ++out.attempted;
          Result<RequestId> id = OwnCall(nullptr, [&] {
            return fs.StartTimedRecording(UvcCompressedVideo(), kStudioRecordingSec);
          });
          if (!id.ok()) {
            out.Fail("StartTimedRecording: " + id.status().ToString());
            return;
          }
          requests.Add(*id, at);
        }});
        continue;
      }
      const RopeId rope =
          catalog.titles[static_cast<size_t>(popularity.Sample(&arrivals_prng)) % kTitles];
      schedule.push_back({at, [&, rope, at] {
        ++out.attempted;
        Result<RequestId> id = OwnCall(&out.play_us, [&] {
          return fs.Play(kUser, rope, Medium::kVideo, TimeInterval{0.0, kTitleSec});
        });
        if (!id.ok()) {
          out.Fail("Play: " + id.status().ToString());
          return;
        }
        requests.Add(*id, at);
      }});
    }
    StreamLoop(
        fs.simulator(), base + SecondsToUsec(kStudioSliceSec), schedule,
        [&] { return fs.scheduler().rounds_executed(); }, &out, ledger, /*admitted=*/true);
    for (const auto& [id, at] : requests.Sorted()) {
      Result<RequestStats> stats = fs.Stats(id);
      if (!stats.ok() || !stats->completed) {
        out.Fail("request " + std::to_string(id) + " did not complete within its slice");
      }
      if (stats.ok()) {
        fold.Add(*stats, at, &out);
      }
    }

    studio.Edits(kStudioEditsPerCycle);
    studio.CrashCycle();
  }
  out.receipts.requests = fold.digest;
  out.receipts.completion = fold.completion;
  out.receipts.payload = fs.scheduler().payload_digest();
  FinishBatch(fs, studio, &out, ledger);
  return out;
}

}  // namespace

BatchResult RunBatch(const std::string& workload, uint64_t seed, Ledger* ledger, int workers) {
  if (workload == "vod_flash") {
    return RunVodFlash(seed, ledger);
  }
  if (workload == "vod_array") {
    return RunVodArray(seed, ledger, workers);
  }
  return RunStudioMixed(seed, ledger);
}

}  // namespace vafsbench
