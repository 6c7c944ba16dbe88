#include <gtest/gtest.h>

#include <numeric>

#include "src/media/vbr_source.h"
#include "src/msm/recorder.h"
#include "src/msm/service_scheduler.h"
#include "src/util/checksum.h"
#include "tests/test_support.h"

namespace vafs {
namespace {

VbrProfile TestVbr() {
  VbrProfile vbr;
  vbr.group_of_pictures = 10;
  vbr.delta_mean_fraction = 0.25;
  vbr.scene_change_per_sec = 0.5;
  return vbr;
}

TEST(VbrSourceTest, IntraFramesAtGopBoundaries) {
  VbrVideoSource source(TestVideo(), TestVbr(), 1);
  EXPECT_EQ(source.FrameBytes(0), source.peak_frame_bytes());
  EXPECT_EQ(source.FrameBytes(10), source.peak_frame_bytes());
  EXPECT_EQ(source.FrameBytes(20), source.peak_frame_bytes());
  for (int64_t i = 1; i < 10; ++i) {
    EXPECT_LT(source.FrameBytes(i), source.peak_frame_bytes()) << "frame " << i;
    EXPECT_GE(source.FrameBytes(i), 1);
  }
}

TEST(VbrSourceTest, DeterministicPayloads) {
  VbrVideoSource a(TestVideo(), TestVbr(), 7);
  VbrVideoSource b(TestVideo(), TestVbr(), 7);
  for (int i = 0; i < 25; ++i) {
    const VideoFrame frame = a.NextFrame();
    EXPECT_EQ(frame.payload, b.FramePayload(i));
    EXPECT_EQ(static_cast<int64_t>(frame.payload.size()), a.FrameBytes(i));
  }
}

// Payload bytes are pinned (sizes and CRC-64s): intra frames are whole
// words, delta frames end in word tails of every length.
TEST(VbrSourceTest, FramePayloadBytesArePinned) {
  struct Case {
    uint64_t seed;
    int64_t index;
    int64_t bytes;
    uint64_t crc;
  };
  const Case cases[] = {
      {7, 0, 2048, 0xBB15D6743B97A74CULL},
      {7, 1, 736, 0x6F35D23C5F79FB08ULL},
      {7, 2, 745, 0x21A17C6116AC5B5EULL},
      {7, 13, 884, 0x27C132EC7D27DBDFULL},
      {20261017, 4, 580, 0x24CD6CBE16E75E16ULL},
      {20261017, 999, 397, 0xA267D9BB935825A2ULL},
  };
  for (const Case& c : cases) {
    const VbrVideoSource source(TestVideo(), TestVbr(), c.seed);
    const std::vector<uint8_t> payload = source.FramePayload(c.index);
    EXPECT_EQ(static_cast<int64_t>(payload.size()), c.bytes)
        << "seed " << c.seed << " index " << c.index;
    EXPECT_EQ(Crc64(payload), c.crc) << "seed " << c.seed << " index " << c.index;
  }
}

TEST(VbrSourceTest, MeanWellBelowPeak) {
  VbrVideoSource source(TestVideo(), TestVbr(), 3);
  const double mean = source.MeanFrameBytes(300);
  EXPECT_LT(mean, 0.6 * static_cast<double>(source.peak_frame_bytes()));
  EXPECT_GT(mean, 0.05 * static_cast<double>(source.peak_frame_bytes()));
}

TEST(VbrSourceTest, ActivityVariesAcrossScenes) {
  // Different scenes should produce visibly different delta sizes.
  VbrVideoSource source(TestVideo(), TestVbr(), 9);
  const double early = source.MeanFrameBytes(30);
  double late = 0;
  for (int64_t i = 3000; i < 3030; ++i) {
    late += static_cast<double>(source.FrameBytes(i));
  }
  late /= 30.0;
  EXPECT_NE(early, late);
}

TEST(VbrStatsTest, AnalyzeBlocksComputesMeanPeakBurst) {
  const std::vector<int64_t> blocks = {100, 100, 300, 300, 100, 100};
  const VbrStrandStats stats = AnalyzeVbrBlocks(blocks);
  EXPECT_DOUBLE_EQ(stats.mean_block_bits, 1000.0 / 6.0);
  EXPECT_EQ(stats.peak_block_bits, 300);
  // Worst burst: the two 300s in a row exceed the mean by 2*(300-166.67).
  EXPECT_NEAR(stats.worst_burst_excess_bits, 2 * (300 - 1000.0 / 6.0), 1e-9);
}

TEST(VbrStatsTest, ConstantBlocksNeedMinimalReadAhead) {
  const VbrStrandStats stats = AnalyzeVbrBlocks({500, 500, 500, 500});
  EXPECT_DOUBLE_EQ(stats.worst_burst_excess_bits, 0.0);
  EXPECT_EQ(stats.RequiredReadAhead(1e6, 0.1), 1);
}

TEST(VbrStatsTest, BurstierStreamsNeedMoreReadAhead) {
  const VbrStrandStats calm = AnalyzeVbrBlocks({90, 110, 90, 110, 90, 110});
  std::vector<int64_t> bursty = {10, 10, 10, 290, 290, 290};  // same mean (150? no)
  const VbrStrandStats rough = AnalyzeVbrBlocks(bursty);
  EXPECT_GE(rough.RequiredReadAhead(1e3, 0.05), calm.RequiredReadAhead(1e3, 0.05));
}

TEST(VbrStatsTest, EmptyIsHarmless) {
  const VbrStrandStats stats = AnalyzeVbrBlocks({});
  EXPECT_EQ(stats.peak_block_bits, 0);
}

class VbrRecordingTest : public ::testing::Test {
 protected:
  VbrRecordingTest() : disk_(TestDiskParameters()), store_(&disk_) {}

  Disk disk_;
  StrandStore store_;
};

TEST_F(VbrRecordingTest, VbrUsesLessSpaceThanCbr) {
  const StrandPlacement placement{4, 0.0, 0.05};
  const int64_t free_start = store_.allocator().free_sectors();
  VbrVideoSource vbr_source(TestVideo(), TestVbr(), 11);
  Result<RecordingResult> vbr = RecordVbrVideo(&store_, &vbr_source, placement, 5.0);
  ASSERT_TRUE(vbr.ok());
  const int64_t vbr_sectors = free_start - store_.allocator().free_sectors();

  const int64_t free_mid = store_.allocator().free_sectors();
  VideoSource cbr_source(TestVideo(), 11);
  Result<RecordingResult> cbr = RecordVideo(&store_, &cbr_source, placement, 5.0);
  ASSERT_TRUE(cbr.ok());
  const int64_t cbr_sectors = free_mid - store_.allocator().free_sectors();

  EXPECT_LT(vbr_sectors, cbr_sectors);
  EXPECT_EQ(vbr->blocks_total, cbr->blocks_total);  // same frame count, same q
  EXPECT_EQ(static_cast<int64_t>(vbr->block_bits.size()), vbr->blocks_total);
}

TEST_F(VbrRecordingTest, VariableBlocksHaveVariableSectorCounts) {
  const StrandPlacement placement{4, 0.0, 0.05};
  VbrVideoSource source(TestVideo(), TestVbr(), 13);
  Result<RecordingResult> result = RecordVbrVideo(&store_, &source, placement, 5.0);
  ASSERT_TRUE(result.ok());
  Result<const Strand*> strand = store_.Get(result->strand);
  ASSERT_TRUE(strand.ok());
  int64_t min_sectors = 1 << 30;
  int64_t max_sectors = 0;
  for (const PrimaryEntry& entry : (*strand)->index().entries()) {
    min_sectors = std::min(min_sectors, entry.sector_count);
    max_sectors = std::max(max_sectors, entry.sector_count);
  }
  EXPECT_LT(min_sectors, max_sectors);
}

TEST_F(VbrRecordingTest, VbrContentSurvivesRoundTrip) {
  const StrandPlacement placement{4, 0.0, 0.05};
  VbrVideoSource source(TestVideo(), TestVbr(), 17);
  Result<RecordingResult> result = RecordVbrVideo(&store_, &source, placement, 2.0);
  ASSERT_TRUE(result.ok());
  Result<const Strand*> strand = store_.Get(result->strand);
  ASSERT_TRUE(strand.ok());
  // Block 0 holds frames 0..3 back to back.
  std::vector<uint8_t> payload;
  ASSERT_TRUE(store_.ReadBlock(result->strand, 0, &payload).ok());
  size_t offset = 0;
  for (int64_t f = 0; f < 4; ++f) {
    const std::vector<uint8_t> expected = source.FramePayload(f);
    ASSERT_LE(offset + expected.size(), payload.size());
    EXPECT_TRUE(std::equal(expected.begin(), expected.end(),
                           payload.begin() + static_cast<ptrdiff_t>(offset)))
        << "frame " << f;
    offset += expected.size();
  }
}

TEST_F(VbrRecordingTest, PlaybackWithComputedReadAheadIsClean) {
  const StrandPlacement placement{4, 0.0, 0.05};
  VbrVideoSource source(TestVideo(), TestVbr(), 19);
  Result<RecordingResult> result = RecordVbrVideo(&store_, &source, placement, 10.0);
  ASSERT_TRUE(result.ok());
  const VbrStrandStats stats = AnalyzeVbrBlocks(result->block_bits);
  const double block_duration_sec = 4.0 / 30.0;
  const int64_t read_ahead = stats.RequiredReadAhead(
      TestStorage().transfer_rate_bits_per_sec, block_duration_sec);
  EXPECT_GE(read_ahead, 1);

  Result<const Strand*> strand = store_.Get(result->strand);
  ASSERT_TRUE(strand.ok());
  Simulator sim;
  AdmissionControl admission(TestStorage(), std::max(store_.AverageScatteringSec(), 1e-4));
  ServiceScheduler scheduler(&store_, &sim, admission);
  PlaybackRequest request;
  for (int64_t b = 0; b < (*strand)->block_count(); ++b) {
    request.blocks.push_back(*(*strand)->index().Lookup(b));
  }
  request.block_duration = (*strand)->info().BlockDuration();
  // Admission sees the mean-rate stream; read-ahead covers the bursts.
  MediaProfile mean_profile = TestVideo();
  mean_profile.bits_per_unit = static_cast<int64_t>(stats.mean_block_bits / 4.0);
  request.spec = RequestSpec{mean_profile, 4};
  request.read_ahead_blocks = read_ahead;
  Result<RequestId> id = scheduler.SubmitPlayback(std::move(request));
  ASSERT_TRUE(id.ok());
  scheduler.RunUntilIdle();
  EXPECT_TRUE(scheduler.stats(*id)->completed);
  EXPECT_EQ(scheduler.stats(*id)->continuity_violations, 0);
}

}  // namespace
}  // namespace vafs
