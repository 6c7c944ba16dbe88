#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/msm/recorder.h"
#include "src/msm/round_planner.h"
#include "src/msm/service_scheduler.h"
#include "src/obs/auditor.h"
#include "src/obs/trace.h"
#include "tests/test_support.h"

namespace vafs {
namespace {

// --- BuildRoundPlan (pure planner) --------------------------------------

class RoundPlannerTest : public ::testing::Test {
 protected:
  RoundPlannerTest() : model_(TestDiskParameters()) {}

  // A candidate whose extent starts at the first sector of `cylinder`.
  PlanCandidate AtCylinder(int64_t ordinal, int64_t cylinder, int64_t sectors = 4) {
    PlanCandidate candidate;
    candidate.ordinal = ordinal;
    candidate.sector = cylinder * model_.params().SectorsPerCylinder();
    candidate.sectors = sectors;
    return candidate;
  }

  PlanCandidate AtSector(int64_t ordinal, int64_t sector, int64_t sectors) {
    PlanCandidate candidate;
    candidate.ordinal = ordinal;
    candidate.sector = sector;
    candidate.sectors = sectors;
    return candidate;
  }

  PlanCandidate Silence(int64_t ordinal) {
    PlanCandidate candidate;
    candidate.ordinal = ordinal;
    candidate.silence = true;
    return candidate;
  }

  int64_t CylinderOf(const PlannedTransfer& transfer) const {
    return model_.SectorToCylinder(transfer.start_sector);
  }

  DiskModel model_;
};

TEST_F(RoundPlannerTest, CScanWrapsPastTheOutermostCylinder) {
  // Head at cylinder 40; wants at 50, 10 and 90. The elevator sweeps up
  // from the arm (50, then 90) and wraps for the one behind it (10).
  PlanInput input;
  input.request = 1;
  input.blocks = {AtCylinder(0, 50), AtCylinder(1, 10), AtCylinder(2, 90)};
  const RoundPlan plan = BuildRoundPlan(model_, {40}, 1, {input});
  ASSERT_EQ(plan.transfers.size(), 3u);
  EXPECT_EQ(CylinderOf(plan.transfers[0]), 50);
  EXPECT_EQ(CylinderOf(plan.transfers[1]), 90);
  EXPECT_EQ(CylinderOf(plan.transfers[2]), 10);
  EXPECT_EQ(plan.read_transfers, 3);
  EXPECT_EQ(plan.data_blocks, 3);
  EXPECT_EQ(plan.coalesced_blocks, 0);
}

TEST_F(RoundPlannerTest, SingleTransferRound) {
  PlanInput input;
  input.request = 1;
  input.blocks = {AtCylinder(0, 7)};
  const RoundPlan plan = BuildRoundPlan(model_, {100}, 1, {input});
  ASSERT_EQ(plan.transfers.size(), 1u);
  EXPECT_EQ(plan.read_transfers, 1);
  EXPECT_EQ(plan.data_blocks, 1);
  ASSERT_EQ(plan.riders_of(plan.transfers[0]).size(), 1u);
  EXPECT_EQ(plan.riders_of(plan.transfers[0])[0].request, 1u);
}

TEST_F(RoundPlannerTest, ContiguousBlocksCoalesceIntoOneTransfer) {
  PlanInput input;
  input.request = 1;
  input.blocks = {AtSector(0, 100, 4), AtSector(1, 104, 4), AtSector(2, 108, 4)};
  const RoundPlan plan = BuildRoundPlan(model_, {0}, 1, {input});
  ASSERT_EQ(plan.transfers.size(), 1u);
  EXPECT_EQ(plan.transfers[0].start_sector, 100);
  EXPECT_EQ(plan.transfers[0].sectors, 12);
  EXPECT_EQ(plan.riders_of(plan.transfers[0]).size(), 3u);
  EXPECT_EQ(plan.coalesced_blocks, 2);
  EXPECT_EQ(plan.read_transfers, 1);
}

TEST_F(RoundPlannerTest, SilenceGapBreaksCoalescingEvenWhenExtentsAbut) {
  // An eliminated-silence entry sits between two physically adjacent
  // extents: a timeline boundary, so they must stay separate transfers.
  PlanInput input;
  input.request = 1;
  input.blocks = {AtSector(0, 100, 4), Silence(1), AtSector(2, 104, 4)};
  const RoundPlan plan = BuildRoundPlan(model_, {0}, 1, {input});
  ASSERT_EQ(plan.transfers.size(), 2u);
  EXPECT_EQ(plan.coalesced_blocks, 0);
  EXPECT_EQ(plan.read_transfers, 2);
  EXPECT_EQ(plan.data_blocks, 2);  // silence is not a data block
}

TEST_F(RoundPlannerTest, NonAdjacentBlocksOfOneRequestDoNotCoalesce) {
  PlanInput input;
  input.request = 1;
  input.blocks = {AtSector(0, 100, 4), AtSector(1, 112, 4)};
  const RoundPlan plan = BuildRoundPlan(model_, {0}, 1, {input});
  EXPECT_EQ(plan.transfers.size(), 2u);
  EXPECT_EQ(plan.coalesced_blocks, 0);
}

TEST_F(RoundPlannerTest, SharedExtentDedupsAcrossRequests) {
  PlanInput a;
  a.request = 1;
  a.blocks = {AtSector(0, 100, 4)};
  PlanInput b;
  b.request = 2;
  b.blocks = {AtSector(5, 100, 4)};
  const RoundPlan plan = BuildRoundPlan(model_, {0}, 1, {a, b});
  ASSERT_EQ(plan.transfers.size(), 1u);
  EXPECT_EQ(plan.riders_of(plan.transfers[0]).size(), 2u);
  EXPECT_EQ(plan.deduped_blocks, 1);
  EXPECT_EQ(plan.read_transfers, 1);
  EXPECT_EQ(plan.data_blocks, 2);
}

TEST_F(RoundPlannerTest, CacheHitsPlanNoTransfer) {
  PlanInput input;
  input.request = 1;
  PlanCandidate hit = AtSector(0, 100, 4);
  hit.cache_hit = true;
  input.blocks = {hit, AtSector(1, 104, 4)};
  const RoundPlan plan = BuildRoundPlan(model_, {0}, 1, {input});
  ASSERT_EQ(plan.transfers.size(), 1u);
  EXPECT_EQ(plan.transfers[0].start_sector, 104);
  EXPECT_EQ(plan.cache_hits, 1);
  EXPECT_EQ(plan.data_blocks, 2);
}

// Reference planner: the straightforward form of the planning rules —
// per-input coalescing into transfers with their own rider lists, an
// ordered-map dedup by extent, and a stable C-SCAN sort. RoundPlanner must
// emit exactly this program.
RoundPlan ReferencePlan(const DiskModel& model, const std::vector<int64_t>& head_cylinders,
                        int array_members, const std::vector<PlanInput>& inputs) {
  RoundPlan out;
  const int members = std::max(array_members, 1);
  struct Build {
    PlannedTransfer transfer;
    std::vector<PlannedBlock> riders;
  };
  std::vector<Build> reads;
  int32_t slot = 0;
  for (const PlanInput& input : inputs) {
    Build* run = nullptr;
    bool run_broken = true;
    for (const PlanCandidate& candidate : input.blocks) {
      const int32_t this_slot = slot++;
      if (candidate.silence) {
        run_broken = true;
        continue;
      }
      ++out.data_blocks;
      if (candidate.cache_hit) {
        ++out.cache_hits;
        run_broken = true;
        continue;
      }
      const int member = members > 1 ? static_cast<int>(candidate.ordinal % members) : 0;
      PlannedBlock block{input.request, candidate.ordinal, candidate.sector, candidate.sectors,
                         this_slot};
      if (!run_broken && run != nullptr && run->transfer.member == member &&
          run->transfer.start_sector + run->transfer.sectors == candidate.sector) {
        run->transfer.sectors += candidate.sectors;
        run->riders.push_back(block);
        ++out.coalesced_blocks;
        continue;
      }
      Build build;
      build.transfer.start_sector = candidate.sector;
      build.transfer.sectors = candidate.sectors;
      build.transfer.member = member;
      build.riders.push_back(block);
      reads.push_back(std::move(build));
      run = &reads.back();
      run_broken = false;
    }
    if (input.append_blocks > 0) {
      Build append;
      append.transfer.is_append = true;
      append.transfer.append_request = input.request;
      append.transfer.append_blocks = input.append_blocks;
      append.transfer.start_sector = std::max<int64_t>(input.append_position_sector, 0);
      reads.push_back(std::move(append));
    }
  }
  std::map<std::pair<int64_t, int64_t>, size_t> by_extent;
  std::vector<Build> unique;
  for (Build& build : reads) {
    if (build.transfer.is_append) {
      unique.push_back(std::move(build));
      continue;
    }
    const auto key = std::make_pair(build.transfer.start_sector, build.transfer.sectors);
    auto found = by_extent.find(key);
    if (found != by_extent.end()) {
      Build& host = unique[found->second];
      out.deduped_blocks += static_cast<int64_t>(build.riders.size());
      host.riders.insert(host.riders.end(), build.riders.begin(), build.riders.end());
      continue;
    }
    by_extent.emplace(key, unique.size());
    unique.push_back(std::move(build));
  }
  const auto scan_key = [&](const PlannedTransfer& transfer) {
    const int64_t head = transfer.member < static_cast<int>(head_cylinders.size())
                             ? head_cylinders[static_cast<size_t>(transfer.member)]
                             : 0;
    const int64_t cylinder = model.SectorToCylinder(transfer.start_sector);
    return std::make_tuple(cylinder >= head ? 0 : 1, cylinder, transfer.start_sector);
  };
  std::stable_sort(unique.begin(), unique.end(), [&](const Build& a, const Build& b) {
    if (a.transfer.member != b.transfer.member) {
      return a.transfer.member < b.transfer.member;
    }
    return scan_key(a.transfer) < scan_key(b.transfer);
  });
  for (Build& build : unique) {
    PlannedTransfer transfer = build.transfer;
    transfer.rider_begin = static_cast<uint32_t>(out.riders.size());
    transfer.rider_count = static_cast<uint32_t>(build.riders.size());
    out.riders.insert(out.riders.end(), build.riders.begin(), build.riders.end());
    if (!transfer.is_append) {
      ++out.read_transfers;
    }
    out.transfers.push_back(transfer);
  }
  return out;
}

// The first field where two plans differ, or "" when they are identical.
std::string FirstDifference(const RoundPlan& expected, const RoundPlan& actual) {
  std::ostringstream diff;
  const auto check = [&diff](const char* what, int64_t want, int64_t got) {
    if (diff.tellp() == 0 && want != got) {
      diff << what << ": expected " << want << ", got " << got;
    }
  };
  check("data_blocks", expected.data_blocks, actual.data_blocks);
  check("cache_hits", expected.cache_hits, actual.cache_hits);
  check("read_transfers", expected.read_transfers, actual.read_transfers);
  check("coalesced_blocks", expected.coalesced_blocks, actual.coalesced_blocks);
  check("deduped_blocks", expected.deduped_blocks, actual.deduped_blocks);
  check("transfers", static_cast<int64_t>(expected.transfers.size()),
        static_cast<int64_t>(actual.transfers.size()));
  check("riders", static_cast<int64_t>(expected.riders.size()),
        static_cast<int64_t>(actual.riders.size()));
  for (size_t t = 0; diff.tellp() == 0 && t < expected.transfers.size(); ++t) {
    const PlannedTransfer& e = expected.transfers[t];
    const PlannedTransfer& a = actual.transfers[t];
    check("is_append", e.is_append, a.is_append);
    check("start_sector", e.start_sector, a.start_sector);
    check("sectors", e.sectors, a.sectors);
    check("member", e.member, a.member);
    check("rider_begin", e.rider_begin, a.rider_begin);
    check("rider_count", e.rider_count, a.rider_count);
    check("append_request", static_cast<int64_t>(e.append_request),
          static_cast<int64_t>(a.append_request));
    check("append_blocks", e.append_blocks, a.append_blocks);
    if (diff.tellp() != 0) {
      diff << " (transfer " << t << ")";
    }
  }
  for (size_t r = 0; diff.tellp() == 0 && r < expected.riders.size(); ++r) {
    const PlannedBlock& e = expected.riders[r];
    const PlannedBlock& a = actual.riders[r];
    check("rider request", static_cast<int64_t>(e.request), static_cast<int64_t>(a.request));
    check("rider ordinal", e.ordinal, a.ordinal);
    check("rider sector", e.sector, a.sector);
    check("rider sectors", e.sectors, a.sectors);
    check("rider slot", e.slot, a.slot);
    if (diff.tellp() != 0) {
      diff << " (rider " << r << ")";
    }
  }
  return diff.str();
}

TEST_F(RoundPlannerTest, ReusedPlannerMatchesReferenceOnRandomRounds) {
  // Seeded random rounds through one reused planner: 1-4 members, silence,
  // cache hits, abutting runs (ordinal steps of one or of the member count,
  // so runs coalesce on arrays too), extents drawn from a small pool and
  // lockstep copies of earlier inputs (cross-input dedup, including one
  // start sector under two lengths), and appends at negative positions.
  // Every 500th round is wide enough to grow the extent index, and the
  // next one narrow again, so its sizing from the previous round is run.
  const int64_t per_cylinder = model_.params().SectorsPerCylinder();
  const int64_t cylinders = model_.params().cylinders;
  std::mt19937_64 rng(20261019);
  const auto uniform = [&rng](int64_t lo, int64_t hi) {  // [lo, hi]
    return std::uniform_int_distribution<int64_t>(lo, hi)(rng);
  };
  RoundPlanner planner;
  constexpr int kRounds = 100000;
  for (int round = 0; round < kRounds; ++round) {
    const int members = static_cast<int>(uniform(1, 4));
    const bool wide = round % 500 == 499;
    const int64_t input_count = wide ? uniform(150, 300) : uniform(1, 10);
    // Extent starts come from a pool of this many 4-sector positions spread
    // over the disk; a small pool makes inputs collide.
    const int64_t pool = std::vector<int64_t>{8, 64, 1024}[static_cast<size_t>(uniform(0, 2))];
    const int64_t stride = std::max<int64_t>(4, (cylinders * per_cylinder / pool) / 4 * 4);
    std::vector<PlanInput> inputs;
    for (int64_t i = 0; i < input_count; ++i) {
      PlanInput input;
      input.request = static_cast<uint64_t>(1000 + i);
      if (!inputs.empty() && uniform(0, 5) == 0) {
        // A lockstep viewer: another input's exact candidates.
        input.blocks = inputs[static_cast<size_t>(uniform(0, i - 1))].blocks;
      } else {
        int64_t ordinal = uniform(0, 20);
        int64_t next_sector = uniform(0, pool - 1) * stride;
        const int64_t blocks = uniform(0, 6);
        for (int64_t b = 0; b < blocks; ++b) {
          PlanCandidate candidate;
          candidate.ordinal = ordinal;
          const int64_t kind = uniform(0, 9);
          if (kind == 0) {
            candidate.silence = true;
          } else {
            candidate.cache_hit = kind == 1;
            candidate.sector = uniform(0, 2) == 0 ? uniform(0, pool - 1) * stride : next_sector;
            candidate.sectors = uniform(0, 3) == 0 ? 8 : 4;
            next_sector = candidate.sector + candidate.sectors;
          }
          input.blocks.push_back(candidate);
          ordinal += uniform(0, 1) == 0 ? 1 : members;
        }
      }
      if (uniform(0, 7) == 0) {
        input.append_blocks = uniform(1, 3);
        input.append_position_sector = uniform(-2 * per_cylinder, cylinders * per_cylinder - 1);
      }
      inputs.push_back(std::move(input));
    }
    std::vector<int64_t> heads;
    for (int m = 0; m < members; ++m) {
      heads.push_back(uniform(0, cylinders - 1));
    }
    const RoundPlan& actual = planner.Plan(model_, heads, members, inputs);
    const std::string diff = FirstDifference(ReferencePlan(model_, heads, members, inputs), actual);
    ASSERT_EQ(diff, "") << "round " << round << " (" << members << " members, " << input_count
                        << " inputs)";
  }
}

TEST_F(RoundPlannerTest, ArrayMembersGetIndependentCScanQueues) {
  // Two members: block ordinals alternate members; each member's queue
  // must be elevator-ordered on its own.
  PlanInput input;
  input.request = 1;
  input.blocks = {AtCylinder(0, 80), AtCylinder(1, 60), AtCylinder(2, 20),
                  AtCylinder(3, 90)};
  const RoundPlan plan = BuildRoundPlan(model_, {50, 50}, 2, {input});
  ASSERT_EQ(plan.transfers.size(), 4u);
  std::vector<int64_t> member0;
  std::vector<int64_t> member1;
  for (const PlannedTransfer& transfer : plan.transfers) {
    (transfer.member == 0 ? member0 : member1).push_back(CylinderOf(transfer));
  }
  // Member 0 holds ordinals 0 and 2 (cylinders 80, 20): sweep from 50
  // takes 80 first, wraps to 20. Member 1 holds 60 then 90, in sweep order.
  EXPECT_EQ(member0, (std::vector<int64_t>{80, 20}));
  EXPECT_EQ(member1, (std::vector<int64_t>{60, 90}));
}

// SCAN (seek-ordered) servicing, the paper's Section 6.2 optimization.
class ScanOrderTest : public ::testing::Test {
 protected:
  ScanOrderTest() : disk_(TestDiskParameters()), store_(&disk_) {}

  StrandPlacement VideoPlacement() {
    ContinuityModel model(TestStorage(), TestVideoDevice());
    return *model.DerivePlacement(RetrievalArchitecture::kPipelined, TestVideo());
  }

  PlaybackRequest MakePlayback(double duration_sec, uint64_t seed) {
    VideoSource source(TestVideo(), seed);
    const StrandPlacement placement = VideoPlacement();
    RecordingResult recorded = *RecordVideo(&store_, &source, placement, duration_sec);
    const Strand* strand = *store_.Get(recorded.strand);
    PlaybackRequest request;
    for (int64_t b = 0; b < strand->block_count(); ++b) {
      request.blocks.push_back(*strand->index().Lookup(b));
    }
    request.block_duration = strand->info().BlockDuration();
    request.spec = RequestSpec{TestVideo(), placement.granularity};
    return request;
  }

  // Runs n identical streams under the given order; returns total disk
  // busy time (positioning + transfer actually paid).
  struct RunOutcome {
    SimDuration busy_time = 0;
    int64_t violations = 0;
    bool all_admitted = true;
  };
  RunOutcome Run(ServiceOrder order, int n, bool bypass) {
    Simulator sim;
    AdmissionControl admission(TestStorage(), std::max(store_.AverageScatteringSec(), 1e-4));
    SchedulerOptions options;
    options.service_order = order;
    options.bypass_admission = bypass;
    options.forced_k = bypass ? 4 : 0;
    ServiceScheduler scheduler(&store_, &sim, admission, options);
    const SimDuration busy_before = disk_.busy_time();
    std::vector<RequestId> ids;
    RunOutcome outcome;
    for (int i = 0; i < n; ++i) {
      Result<RequestId> id = scheduler.SubmitPlayback(MakePlayback(3.0, 100 + i));
      if (!id.ok()) {
        outcome.all_admitted = false;
        break;
      }
      ids.push_back(*id);
    }
    scheduler.RunUntilIdle();
    for (RequestId id : ids) {
      outcome.violations += scheduler.stats(id)->continuity_violations;
    }
    outcome.busy_time = disk_.busy_time() - busy_before;
    return outcome;
  }

  Disk disk_;
  StrandStore store_;
};

TEST_F(ScanOrderTest, ScanCompletesCleanly) {
  const RunOutcome outcome = Run(ServiceOrder::kSeekScan, 2, false);
  EXPECT_TRUE(outcome.all_admitted);
  EXPECT_EQ(outcome.violations, 0);
}

TEST_F(ScanOrderTest, ScanSpendsNoMoreDiskTimeThanFifo) {
  // Same workload, same admission: SCAN's sorted service order can only
  // shrink the inter-request repositioning cost.
  const RunOutcome fifo = Run(ServiceOrder::kRoundRobin, 2, true);
  const RunOutcome scan = Run(ServiceOrder::kSeekScan, 2, true);
  EXPECT_LE(scan.busy_time, fifo.busy_time);
}

TEST_F(ScanOrderTest, BypassAdmissionAdmitsBeyondCeiling) {
  AdmissionControl admission(TestStorage(), std::max(store_.AverageScatteringSec(), 1e-4));
  const int64_t n_max =
      admission.Analyze({RequestSpec{TestVideo(), VideoPlacement().granularity}}).n_max;
  const RunOutcome overloaded =
      Run(ServiceOrder::kRoundRobin, static_cast<int>(n_max) + 2, true);
  EXPECT_TRUE(overloaded.all_admitted);  // nothing was rejected
}

// Planned rounds (block-level C-SCAN + coalescing + dedup) through the
// full scheduler, replayed strict through the continuity auditor.
class PlannedOrderTest : public ScanOrderTest {
 protected:
  PlannedOrderTest() {
    tee_.Add(&log_);
    tee_.Add(&auditor_);
  }

  void TearDown() override { EXPECT_TRUE(auditor_.Clean()) << auditor_.Report(); }

  RunOutcome RunTraced(ServiceOrder order, int n, bool bypass, BlockCache* cache) {
    Simulator sim;
    AdmissionControl admission(TestStorage(), std::max(store_.AverageScatteringSec(), 1e-4));
    SchedulerOptions options;
    options.service_order = order;
    options.bypass_admission = bypass;
    options.forced_k = bypass ? 4 : 0;
    options.block_cache = cache;
    options.trace = &tee_;
    ServiceScheduler scheduler(&store_, &sim, admission, options);
    const SimDuration busy_before = disk_.busy_time();
    std::vector<RequestId> ids;
    RunOutcome outcome;
    for (int i = 0; i < n; ++i) {
      Result<RequestId> id = scheduler.SubmitPlayback(MakePlayback(3.0, 300 + i));
      if (!id.ok()) {
        outcome.all_admitted = false;
        break;
      }
      ids.push_back(*id);
    }
    scheduler.RunUntilIdle();
    for (RequestId id : ids) {
      outcome.violations += scheduler.stats(id)->continuity_violations;
    }
    outcome.busy_time = disk_.busy_time() - busy_before;
    return outcome;
  }

  obs::TraceLog log_;
  obs::ContinuityAuditor auditor_{obs::AuditorOptions{.round_time_slack = 0.05}};
  obs::TeeSink tee_;
};

TEST_F(PlannedOrderTest, PlannedCompletesCleanlyUnderStrictAudit) {
  const RunOutcome outcome = RunTraced(ServiceOrder::kPlanned, 2, false, nullptr);
  EXPECT_TRUE(outcome.all_admitted);
  EXPECT_EQ(outcome.violations, 0);
}

TEST_F(PlannedOrderTest, PlannedSpendsNoMoreDiskTimeThanPerRequestScan) {
  // Same admitted workload: ordering per transfer (and coalescing
  // contiguous blocks) can only shrink the arm travel the per-request
  // SCAN sort pays.
  const RunOutcome scan = Run(ServiceOrder::kSeekScan, 2, true);
  const RunOutcome planned = RunTraced(ServiceOrder::kPlanned, 2, true, nullptr);
  EXPECT_LE(planned.busy_time, scan.busy_time);
  EXPECT_EQ(planned.violations, 0);
}

TEST_F(PlannedOrderTest, PlannedRoundsEmitSeekAccounting) {
  BlockCache cache(BlockCacheOptions{.capacity_bytes = 1 << 22});
  const RunOutcome outcome = RunTraced(ServiceOrder::kPlanned, 2, false, &cache);
  EXPECT_EQ(outcome.violations, 0);
  int64_t planned_rounds = 0;
  int64_t seek_events = 0;
  for (const obs::TraceEvent& event : log_.events()) {
    if (event.kind == obs::TraceEventKind::kRoundPlanned) {
      ++planned_rounds;
      EXPECT_GE(event.transfers, 0);
      EXPECT_LE(event.transfers + event.cache_hits + event.coalesced_blocks +
                    event.deduped_blocks,
                event.blocks + event.transfers);
    }
    if (event.kind == obs::TraceEventKind::kSeekAccounting) {
      ++seek_events;
      // Measured arm travel never exceeds the alpha-model worst case the
      // admission math charged (the auditor enforces this too).
      EXPECT_LE(event.seek_cylinders, event.seek_cylinders_worst);
    }
  }
  EXPECT_GT(planned_rounds, 0);
  EXPECT_GT(seek_events, 0);
}

TEST_F(ScanOrderTest, ScanToleratesOverloadBetterThanFifo) {
  // Slightly past the (pessimistic) ceiling, SCAN's cheaper switches keep
  // more deadlines than FIFO order does.
  AdmissionControl admission(TestStorage(), std::max(store_.AverageScatteringSec(), 1e-4));
  const int64_t n_max =
      admission.Analyze({RequestSpec{TestVideo(), VideoPlacement().granularity}}).n_max;
  const int n = static_cast<int>(n_max) + 1;
  const RunOutcome fifo = Run(ServiceOrder::kRoundRobin, n, true);
  const RunOutcome scan = Run(ServiceOrder::kSeekScan, n, true);
  EXPECT_LE(scan.violations, fifo.violations);
}

}  // namespace
}  // namespace vafs
