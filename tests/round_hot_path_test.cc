// Round hot path: once the rotation is warm a round allocates nothing —
// planned (ServiceScheduler::ExecutePlannedRound), round-robin, seek-scan
// and array rounds alike, with or without payload passes — and the
// per-request disk time a planned round reports in kRequestServiced is
// pinned: a shared transfer splits evenly between its riders, a recording
// is charged its append time.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "src/disk/disk_array.h"
#include "src/msm/block_cache.h"
#include "src/msm/recorder.h"
#include "src/msm/service_scheduler.h"
#include "src/obs/trace.h"
#include "src/sim/simulator.h"
#include "src/util/worker_pool.h"
#include "tests/test_support.h"

// Counting replacement of the global allocator for this test binary (the
// array and nothrow forms forward to these by default).
namespace {
std::atomic<int64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* block = std::malloc(size == 0 ? 1 : size)) {
    return block;
  }
  throw std::bad_alloc();
}
void operator delete(void* block) noexcept { std::free(block); }
void operator delete(void* block, std::size_t) noexcept { std::free(block); }

namespace vafs {
namespace {

// Keeps the kRequestServiced events of the rounds it is told to watch, in
// storage reserved up front, so observing a round does not allocate.
class ServicedSink : public obs::TraceSink {
 public:
  struct Serviced {
    int64_t round = 0;
    uint64_t request = 0;
    int64_t blocks = 0;
    SimDuration duration = 0;
  };

  ServicedSink() { serviced_.reserve(4096); }

  void OnEvent(const obs::TraceEvent& event) override {
    ++events_;
    if (event.kind == obs::TraceEventKind::kRoundPlanned) {
      cache_hits_ += event.cache_hits;
      deduped_blocks_ += event.deduped_blocks;
    }
    if (event.kind == obs::TraceEventKind::kRequestServiced &&
        serviced_.size() < serviced_.capacity()) {
      serviced_.push_back(Serviced{event.round, event.request, event.blocks, event.duration});
    }
  }

  const std::vector<Serviced>& serviced() const { return serviced_; }
  void Clear() {
    serviced_.clear();
    cache_hits_ = 0;
    deduped_blocks_ = 0;
  }
  int64_t events() const { return events_; }
  int64_t cache_hits() const { return cache_hits_; }
  int64_t deduped_blocks() const { return deduped_blocks_; }

 private:
  std::vector<Serviced> serviced_;
  int64_t events_ = 0;
  int64_t cache_hits_ = 0;
  int64_t deduped_blocks_ = 0;
};

// The test geometry with four times the cylinders: room for 62 titles.
DiskParameters HotPathDisk() {
  DiskParameters params = TestDiskParameters();
  params.cylinders = 800;
  return params;
}

StorageTimings HotPathStorage() { return StorageTimings::FromDiskModel(DiskModel(HotPathDisk())); }

// Allocations and page-pool traffic of one warm planned round of 24
// viewers on a 4-member array: 24 pages per round with verify_payloads, so
// one payload pass runs mid-round and one after the last wave.
struct ArrayRound {
  int64_t allocations = 0;
  int64_t pages_created = 0;
  int64_t pages_acquired = 0;
};

class RoundHotPathTest : public ::testing::Test {
 protected:
  RoundHotPathTest() : disk_(HotPathDisk(), DiskOptions{.retain_data = false}), store_(&disk_) {}

  StrandPlacement VideoPlacement() {
    ContinuityModel model(HotPathStorage(), TestVideoDevice());
    Result<StrandPlacement> placement =
        model.DerivePlacement(RetrievalArchitecture::kPipelined, TestVideo());
    EXPECT_TRUE(placement.ok());
    return *placement;
  }

  // Records a title and returns a playback request over all its blocks.
  PlaybackRequest MakePlayback(double duration_sec, uint64_t seed) {
    VideoSource source(TestVideo(), seed);
    const StrandPlacement placement = VideoPlacement();
    Result<RecordingResult> recorded = RecordVideo(&store_, &source, placement, duration_sec);
    EXPECT_TRUE(recorded.ok());
    const Strand* strand = *store_.Get(recorded->strand);
    PlaybackRequest request;
    for (int64_t b = 0; b < strand->block_count(); ++b) {
      request.blocks.push_back(*strand->index().Lookup(b));
    }
    request.block_duration = strand->info().BlockDuration();
    request.spec = RequestSpec{TestVideo(), placement.granularity};
    return request;
  }

  AdmissionControl MakeAdmission() {
    return AdmissionControl(HotPathStorage(), std::max(store_.AverageScatteringSec(), 1e-4));
  }

  // Planned rounds at k = 1 for every submitted stream, joining together.
  SchedulerOptions PlannedOptions(BlockCache* cache) {
    SchedulerOptions options;
    options.service_order = ServiceOrder::kPlanned;
    options.block_cache = cache;
    options.bypass_admission = true;
    options.forced_k = 1;
    options.batch_activation = true;
    options.trace = &sink_;
    return options;
  }

  // Runs 20 warm-up rounds and measures the 21st.
  ArrayRound MeasureWarmArrayRound(bool verify) {
    std::vector<PlaybackRequest> titles;
    for (int t = 0; t < 24; ++t) {
      titles.push_back(MakePlayback(4.0, 900 + t));
    }
    Simulator sim;
    DiskArray array(HotPathDisk(), 4);
    WorkerPool pool(1);
    BlockCache pages(BlockCacheOptions{.capacity_bytes = 0});  // a page pool, no caching
    SchedulerOptions options = PlannedOptions(&pages);
    options.disk_array = &array;
    options.worker_pool = &pool;
    options.verify_payloads = verify;
    ServiceScheduler scheduler(&store_, &sim, MakeAdmission(), options);
    for (const PlaybackRequest& title : titles) {
      EXPECT_TRUE(scheduler.SubmitPlayback(title).ok());
    }
    for (int round = 0; round < 20; ++round) {
      EXPECT_TRUE(sim.Step());
    }
    const PagePool& pool_pages = pages.page_pool();
    const int64_t created = pool_pages.pages_created();
    const int64_t acquired = created + pool_pages.pages_recycled();
    const int64_t before = g_allocations.load();
    EXPECT_TRUE(sim.Step());
    ArrayRound measured;
    measured.allocations = g_allocations.load() - before;
    measured.pages_created = pool_pages.pages_created() - created;
    measured.pages_acquired = pool_pages.pages_created() + pool_pages.pages_recycled() - acquired;
    EXPECT_EQ(pool_pages.pages_outstanding(), 0);
    return measured;
  }

  Disk disk_;
  StrandStore store_;
  Simulator sim_;
  ServicedSink sink_;
};

TEST_F(RoundHotPathTest, WarmPlannedRoundAllocatesNothing) {
  // 61 solo viewers, a lockstep pair on one title (one shared transfer per
  // round) and a viewer trailing that pair by three blocks (cache hits on
  // the pair's biased entries). The cache holds 24 blocks, so every round
  // evicts and re-inserts.
  std::vector<PlaybackRequest> titles;
  for (int t = 0; t < 62; ++t) {
    titles.push_back(MakePlayback(4.0, 900 + t));
  }
  const int64_t block_bytes = titles[0].blocks[0].sector_count * disk_.bytes_per_sector();
  BlockCache cache(BlockCacheOptions{.capacity_bytes = 24 * block_bytes});
  ServiceScheduler scheduler(&store_, &sim_, MakeAdmission(), PlannedOptions(&cache));
  for (const PlaybackRequest& title : titles) {
    ASSERT_TRUE(scheduler.SubmitPlayback(title).ok());
  }
  ASSERT_TRUE(scheduler.SubmitPlayback(titles[0]).ok());
  for (int round = 0; round < 3; ++round) {
    ASSERT_TRUE(sim_.Step());
  }
  ASSERT_TRUE(scheduler.SubmitPlayback(titles[0]).ok());

  // Warm up: the trailer joins, the cache fills and starts recycling, and
  // every scratch vector reaches its working size. The measured round is
  // chosen so that no consumer's play-out log crosses a power-of-two size.
  for (int round = 0; round < 20; ++round) {
    ASSERT_TRUE(sim_.Step());
  }
  sink_.Clear();
  const int64_t events_before = sink_.events();
  const int64_t rounds_before = scheduler.rounds_executed();
  const int64_t before = g_allocations.load();
  ASSERT_TRUE(sim_.Step());
  const int64_t allocations = g_allocations.load() - before;
  EXPECT_EQ(allocations, 0);

  // The measured round really was a full, shared, cache-hitting round.
  EXPECT_EQ(scheduler.rounds_executed(), rounds_before + 1);
  EXPECT_GT(sink_.events(), events_before);
  EXPECT_EQ(sink_.serviced().size(), 64u);
  EXPECT_GT(sink_.cache_hits(), 0);
  EXPECT_GT(sink_.deduped_blocks(), 0);
  EXPECT_GT(cache.stats().evictions, 0);
  EXPECT_EQ(scheduler.active_request_count(), 64);
}

class LegacyOrderHotPathTest : public RoundHotPathTest,
                               public ::testing::WithParamInterface<ServiceOrder> {};

TEST_P(LegacyOrderHotPathTest, WarmRoundAllocatesNothing) {
  // 62 solo viewers served per request, one block each per round: a warm
  // round copies the rotation into reused scratch, and each block read's
  // retry closures fit std::function's inline storage.
  std::vector<PlaybackRequest> titles;
  for (int t = 0; t < 62; ++t) {
    titles.push_back(MakePlayback(4.0, 900 + t));
  }
  SchedulerOptions options = PlannedOptions(nullptr);
  options.service_order = GetParam();
  ServiceScheduler scheduler(&store_, &sim_, MakeAdmission(), options);
  for (const PlaybackRequest& title : titles) {
    ASSERT_TRUE(scheduler.SubmitPlayback(title).ok());
  }
  // The measured round is chosen so that no consumer's play-out log
  // crosses a power-of-two size.
  for (int round = 0; round < 20; ++round) {
    ASSERT_TRUE(sim_.Step());
  }
  sink_.Clear();
  const int64_t before = g_allocations.load();
  ASSERT_TRUE(sim_.Step());
  const int64_t allocations = g_allocations.load() - before;
  EXPECT_EQ(allocations, 0);
  EXPECT_EQ(sink_.serviced().size(), 62u);
  EXPECT_EQ(scheduler.active_request_count(), 62);
}

INSTANTIATE_TEST_SUITE_P(Orders, LegacyOrderHotPathTest,
                         ::testing::Values(ServiceOrder::kRoundRobin, ServiceOrder::kSeekScan),
                         [](const ::testing::TestParamInfo<ServiceOrder>& order) {
                           return order.param == ServiceOrder::kRoundRobin ? "RoundRobin"
                                                                          : "SeekScan";
                         });

TEST_F(RoundHotPathTest, WarmArrayRoundAllocatesNothing) {
  // Serial member waves: the batch, its outcome and the member queues are
  // scratch the scheduler keeps, and dispatch captures nothing that spills
  // out of std::function.
  const ArrayRound plain = MeasureWarmArrayRound(false);
  EXPECT_EQ(plain.pages_acquired, 0);
  EXPECT_EQ(plain.allocations, 0);
}

TEST_F(RoundHotPathTest, PayloadPassesAddNoAllocationToAWarmArrayRound) {
  // The same warm array round with payload verification: every page is
  // recycled once warm, the pool keeps no per-acquire bookkeeping node and
  // the passes reuse their task storage, so verification allocates
  // nothing either.
  const ArrayRound verified = MeasureWarmArrayRound(true);
  EXPECT_GT(verified.pages_acquired, static_cast<int64_t>(ServiceScheduler::kPayloadPassPages));
  EXPECT_EQ(verified.pages_created, 0);
  EXPECT_EQ(verified.allocations, 0);
}

// Renders the kept kRequestServiced events as "round:request:blocks:duration"
// lines, the form the expectations below are pinned in.
std::vector<std::string> Render(const std::vector<ServicedSink::Serviced>& serviced) {
  std::vector<std::string> lines;
  for (const ServicedSink::Serviced& s : serviced) {
    lines.push_back(std::to_string(s.round) + ":" + std::to_string(s.request) + ":" +
                    std::to_string(s.blocks) + ":" + std::to_string(s.duration));
  }
  return lines;
}

TEST_F(RoundHotPathTest, SharedTransferTimeSplitsEvenlyBetweenRiders) {
  // Requests 1 and 2 watch one title in lockstep and ride one transfer per
  // round; request 3 watches another title alone. No cache: every block is
  // read from the platter.
  const PlaybackRequest shared = MakePlayback(2.0, 31);
  const PlaybackRequest solo = MakePlayback(2.0, 32);
  ServiceScheduler scheduler(&store_, &sim_, MakeAdmission(), PlannedOptions(nullptr));
  ASSERT_TRUE(scheduler.SubmitPlayback(shared).ok());
  ASSERT_TRUE(scheduler.SubmitPlayback(shared).ok());
  ASSERT_TRUE(scheduler.SubmitPlayback(solo).ok());
  for (int round = 0; round < 4; ++round) {
    ASSERT_TRUE(sim_.Step());
  }
  // Each shared read is charged half to each rider; the solo viewer pays
  // its whole read. Rounds with full device buffers move nothing.
  const std::vector<std::string> expected = {
      "1:1:1:9568", "1:2:1:9568", "1:3:1:18653",  //
      "2:1:1:9463", "2:2:1:9463", "2:3:1:16653",  //
      "3:1:0:0",    "3:2:0:0",    "3:3:0:0",      //
      "4:1:1:8326", "4:2:1:8326", "4:3:0:0",
  };
  EXPECT_EQ(Render(sink_.serviced()), expected);
}

TEST_F(RoundHotPathTest, RecordingIsChargedItsAppendTimeInPlannedRounds) {
  // A studio-style planned round: two viewers and a recording whose blocks
  // are appended inside the round at the writer's arm position.
  const PlaybackRequest first = MakePlayback(2.0, 41);
  const PlaybackRequest second = MakePlayback(2.0, 42);
  ServiceScheduler scheduler(&store_, &sim_, MakeAdmission(), PlannedOptions(nullptr));
  ASSERT_TRUE(scheduler.SubmitPlayback(first).ok());
  RecordingRequest recording;
  recording.profile = TestVideo();
  recording.placement = VideoPlacement();
  recording.total_blocks = 12;
  ASSERT_TRUE(scheduler.SubmitRecording(recording).ok());
  ASSERT_TRUE(scheduler.SubmitPlayback(second).ok());
  for (int round = 0; round < 10; ++round) {
    ASSERT_TRUE(sim_.Step());
  }
  // Request 2, the recording, is charged the time of its appends (rounds 4
  // and 8, once its capture device has finished a block).
  const std::vector<std::string> expected = {
      "1:1:1:19136", "1:2:0:0",     "1:3:1:18653",  //
      "2:1:1:18926", "2:2:0:0",     "2:3:1:16653",  //
      "3:1:0:0",     "3:2:0:0",     "3:3:0:0",      //
      "4:1:0:0",     "4:2:1:19136", "4:3:0:0",      //
      "5:1:1:19136", "5:2:0:0",     "5:3:0:0",      //
      "6:1:0:0",     "6:2:0:0",     "6:3:1:18926",  //
      "7:1:0:0",     "7:2:0:0",     "7:3:0:0",      //
      "8:1:0:0",     "8:2:1:18653", "8:3:0:0",      //
      "9:1:0:0",     "9:2:0:0",     "9:3:0:0",      //
      "10:1:1:19313", "10:2:0:0",   "10:3:0:0",
  };
  EXPECT_EQ(Render(sink_.serviced()), expected);
}

}  // namespace
}  // namespace vafs
