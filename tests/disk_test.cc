#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <random>
#include <vector>

#include "src/disk/disk.h"
#include "src/disk/disk_array.h"
#include "src/disk/disk_model.h"
#include "tests/test_support.h"

namespace vafs {
namespace {

TEST(DiskModelTest, GeometryDerivedQuantities) {
  DiskModel model(TestDiskParameters());
  EXPECT_EQ(model.params().TotalSectors(), 200 * 4 * 32);
  EXPECT_EQ(model.params().SectorsPerCylinder(), 128);
  EXPECT_EQ(model.params().CapacityBytes(), 200LL * 4 * 32 * 512);
}

TEST(DiskModelTest, SectorToChsRoundTrips) {
  DiskModel model(TestDiskParameters());
  const Chs chs = model.SectorToChs(128 * 3 + 32 * 2 + 7);
  EXPECT_EQ(chs.cylinder, 3);
  EXPECT_EQ(chs.surface, 2);
  EXPECT_EQ(chs.sector, 7);
  EXPECT_EQ(model.SectorToCylinder(128 * 3), 3);
}

TEST(DiskModelTest, SeekTimeCalibration) {
  DiskModel model(TestDiskParameters());
  EXPECT_EQ(model.SeekTimeForDistance(0), 0);
  // seek(1) == min_seek, seek(full stroke) == max_seek.
  EXPECT_NEAR(model.SeekTimeForDistance(1), 2000, 1);
  EXPECT_NEAR(model.SeekTimeForDistance(199), 20000, 1);
}

TEST(DiskModelTest, SeekTimeMonotone) {
  DiskModel model(TestDiskParameters());
  SimDuration previous = -1;
  for (int64_t d = 0; d < 200; ++d) {
    const SimDuration seek = model.SeekTimeForDistance(d);
    EXPECT_GE(seek, previous) << "distance " << d;
    previous = seek;
  }
}

TEST(DiskModelTest, SeekConcavity) {
  // sqrt model: marginal cost of extra distance decreases.
  DiskModel model(TestDiskParameters());
  const SimDuration d10 = model.SeekTimeForDistance(10) - model.SeekTimeForDistance(5);
  const SimDuration d100 = model.SeekTimeForDistance(105) - model.SeekTimeForDistance(100);
  EXPECT_GT(d10, d100);
}

TEST(DiskModelTest, RotationAndTransfer) {
  DiskModel model(TestDiskParameters());
  // 3600 rpm = 60 rotations/sec -> 16667 usec per rotation.
  EXPECT_NEAR(model.RotationTime(), 16667, 2);
  EXPECT_EQ(model.AverageRotationalLatency(), model.RotationTime() / 2);
  // One track of 32 sectors transfers in one rotation.
  EXPECT_NEAR(model.TransferTime(32), model.RotationTime(), 40);
  // Transfer rate: 32 sectors * 512 B * 60 rot/s * 8 bits.
  EXPECT_NEAR(model.TransferRateBitsPerSec(), 32.0 * 512 * 60 * 8, 1.0);
}

TEST(DiskModelTest, MaxAccessGapIsFullStrokePlusRotation) {
  DiskModel model(TestDiskParameters());
  EXPECT_EQ(model.MaxAccessGap(),
            model.SeekTimeForDistance(199) + model.WorstRotationalLatency());
}

TEST(DiskModelTest, MaxCylinderDistanceForGapInvertsSeek) {
  DiskModel model(TestDiskParameters());
  for (int64_t d : {1, 5, 50, 150, 199}) {
    const SimDuration gap = model.SeekTimeForDistance(d) + model.AverageRotationalLatency();
    EXPECT_EQ(model.MaxCylinderDistanceForGap(gap), d) << "distance " << d;
    // One microsecond less cannot cover distance d.
    EXPECT_LT(model.MaxCylinderDistanceForGap(gap - 1), d);
  }
  // Gap smaller than rotational latency: not even distance 0 fits.
  EXPECT_EQ(model.MaxCylinderDistanceForGap(model.AverageRotationalLatency() - 1), -1);
}

TEST(DiskTest, WriteReadRoundTrip) {
  Disk disk(TestDiskParameters());
  std::vector<uint8_t> payload(512 * 3);
  std::iota(payload.begin(), payload.end(), 0);
  ASSERT_TRUE(disk.Write(100, 3, payload).ok());
  std::vector<uint8_t> read_back;
  ASSERT_TRUE(disk.Read(100, 3, &read_back).ok());
  EXPECT_EQ(read_back, payload);
}

TEST(DiskTest, UnwrittenSectorsReadZero) {
  Disk disk(TestDiskParameters());
  std::vector<uint8_t> data;
  ASSERT_TRUE(disk.Read(5, 2, &data).ok());
  EXPECT_EQ(data.size(), 1024u);
  EXPECT_TRUE(std::all_of(data.begin(), data.end(), [](uint8_t b) { return b == 0; }));
}

TEST(DiskTest, RejectsOutOfRangeExtents) {
  Disk disk(TestDiskParameters());
  std::vector<uint8_t> out;
  EXPECT_EQ(disk.Read(-1, 1, &out).status().code(), ErrorCode::kOutOfRange);
  EXPECT_EQ(disk.Read(disk.total_sectors(), 1, &out).status().code(), ErrorCode::kOutOfRange);
  EXPECT_EQ(disk.Read(disk.total_sectors() - 1, 2, &out).status().code(),
            ErrorCode::kOutOfRange);
  EXPECT_EQ(disk.Write(0, 0, {}).status().code(), ErrorCode::kOutOfRange);
}

TEST(DiskTest, RejectsMisSizedWrite) {
  Disk disk(TestDiskParameters());
  std::vector<uint8_t> payload(100);  // not 512
  EXPECT_EQ(disk.Write(0, 1, payload).status().code(), ErrorCode::kInvalidArgument);
}

TEST(DiskTest, ServiceTimeIncludesSeekLatencyTransfer) {
  Disk disk(TestDiskParameters());
  const DiskModel& model = disk.model();
  disk.MoveHeadToCylinder(0);
  std::vector<uint8_t> out;
  // Read on cylinder 50 (sector 50*128), 4 sectors.
  Result<SimDuration> service = disk.Read(50 * 128, 4, &out);
  ASSERT_TRUE(service.ok());
  EXPECT_EQ(*service, model.SeekTime(0, 50) + model.AverageRotationalLatency() +
                          model.TransferTime(4));
  // Head is now at cylinder 50: a re-read pays no seek.
  Result<SimDuration> again = disk.Read(50 * 128, 4, &out);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, model.AverageRotationalLatency() + model.TransferTime(4));
}

TEST(DiskTest, PeekMatchesRead) {
  Disk disk(TestDiskParameters());
  const SimDuration peek = disk.PeekServiceTime(1000, 8);
  std::vector<uint8_t> out;
  Result<SimDuration> service = disk.Read(1000, 8, &out);
  ASSERT_TRUE(service.ok());
  EXPECT_EQ(peek, *service);
}

TEST(DiskTest, CountersAccumulate) {
  Disk disk(TestDiskParameters());
  std::vector<uint8_t> out;
  ASSERT_TRUE(disk.Read(0, 1, &out).ok());
  ASSERT_TRUE(disk.Write(10, 1, std::vector<uint8_t>(512, 1)).ok());
  EXPECT_EQ(disk.reads(), 1);
  EXPECT_EQ(disk.writes(), 1);
  EXPECT_GT(disk.busy_time(), 0);
}

TEST(DiskTest, TimingOnlyModeSkipsData) {
  Disk disk(TestDiskParameters(), DiskOptions{.retain_data = false});
  ASSERT_TRUE(disk.Write(0, 2, {}).ok());
  std::vector<uint8_t> out{1, 2, 3};
  ASSERT_TRUE(disk.Read(0, 2, &out).ok());
  EXPECT_TRUE(out.empty());
}

// Reference model of the in-memory sector store: one map entry per written
// sector, unwritten sectors read as zeros.
class SectorMapReference {
 public:
  void Persist(int64_t sector, const uint8_t* data) {
    sectors_[sector].assign(data, data + kSectorBytes);
  }
  void Write(int64_t start, int64_t count, const std::vector<uint8_t>& data) {
    for (int64_t i = 0; i < count; ++i) {
      Persist(start + i, data.data() + i * kSectorBytes);
    }
  }
  std::vector<uint8_t> Read(int64_t start, int64_t count) const {
    std::vector<uint8_t> out(static_cast<size_t>(count * kSectorBytes), 0);
    for (int64_t i = 0; i < count; ++i) {
      if (auto it = sectors_.find(start + i); it != sectors_.end()) {
        std::copy(it->second.begin(), it->second.end(), out.begin() + i * kSectorBytes);
      }
    }
    return out;
  }
  std::vector<int64_t> Populated() const {
    std::vector<int64_t> out;
    for (const auto& [sector, data] : sectors_) {
      out.push_back(sector);
    }
    return out;
  }

  static constexpr int64_t kSectorBytes = 512;

 private:
  std::map<int64_t, std::vector<uint8_t>> sectors_;
};

std::vector<uint8_t> RandomPayload(std::mt19937_64* rng, int64_t sectors) {
  std::vector<uint8_t> data(static_cast<size_t>(sectors * SectorMapReference::kSectorBytes));
  for (uint8_t& byte : data) {
    byte = static_cast<uint8_t>((*rng)() | 1);  // never zero: unwritten reads stand out
  }
  return data;
}

// Reads the whole disk back in extents of `chunk` sectors and compares with
// the reference, then compares the populated-sector lists.
void ExpectDiskMatchesReference(Disk* disk, const SectorMapReference& reference, int64_t chunk) {
  for (int64_t start = 0; start < disk->total_sectors(); start += chunk) {
    const int64_t count = std::min(chunk, disk->total_sectors() - start);
    std::vector<uint8_t> read_back;
    ASSERT_TRUE(disk->Read(start, count, &read_back).ok());
    ASSERT_EQ(read_back, reference.Read(start, count)) << "extent at " << start;
  }
  EXPECT_EQ(disk->PopulatedSectors(), reference.Populated());
}

TEST(DiskStoreTest, PagedStoreMatchesSectorMapUnderSeededRandomWrites) {
  Disk disk(TestDiskParameters());
  SectorMapReference reference;
  std::mt19937_64 rng(20261019);
  const int64_t total = disk.total_sectors();
  for (int op = 0; op < 1500; ++op) {
    // Up to 300 sectors: extents regularly straddle one or two page edges.
    const int64_t count = 1 + static_cast<int64_t>(rng() % 300);
    const int64_t start = static_cast<int64_t>(rng() % static_cast<uint64_t>(total - count + 1));
    if (op % 3 == 2) {
      std::vector<uint8_t> read_back;
      ASSERT_TRUE(disk.Read(start, count, &read_back).ok());
      ASSERT_EQ(read_back, reference.Read(start, count)) << "op " << op;
    } else {
      const std::vector<uint8_t> data = RandomPayload(&rng, count);
      ASSERT_TRUE(disk.Write(start, count, data).ok());
      reference.Write(start, count, data);
    }
  }
  ExpectDiskMatchesReference(&disk, reference, 97);
}

TEST(DiskStoreTest, PageStraddlingExtentsRoundTripAndGapsReadZero) {
  Disk disk(TestDiskParameters());
  SectorMapReference reference;
  std::mt19937_64 rng(7);
  // Extents ending on, starting at and spanning 128-sector page edges, with
  // never-written sectors between them inside the same pages.
  const std::pair<int64_t, int64_t> extents[] = {
      {120, 16}, {255, 2}, {384, 128}, {600, 300}, {1023, 1}, {25600 - 5, 5}};
  for (const auto& [start, count] : extents) {
    const std::vector<uint8_t> data = RandomPayload(&rng, count);
    ASSERT_TRUE(disk.Write(start, count, data).ok());
    reference.Write(start, count, data);
  }
  // A read spanning written, unwritten and absent pages.
  std::vector<uint8_t> read_back;
  ASSERT_TRUE(disk.Read(100, 1000, &read_back).ok());
  EXPECT_EQ(read_back, reference.Read(100, 1000));
  // A never-touched page reads as zeros into a buffer that held data.
  read_back.assign(read_back.size(), 0xEE);
  ASSERT_TRUE(disk.Read(5000, 200, &read_back).ok());
  ASSERT_EQ(read_back.size(), 200u * 512);
  EXPECT_TRUE(std::all_of(read_back.begin(), read_back.end(), [](uint8_t b) { return b == 0; }));
  ExpectDiskMatchesReference(&disk, reference, 128);
}

TEST(DiskStoreTest, PowerCutPersistsPrefixAndShredLikeTheReference) {
  for (const bool torn : {false, true}) {
    SCOPED_TRACE(torn ? "torn" : "clean");
    DiskOptions options;
    options.faults.seed = 11;
    Disk disk(TestDiskParameters(), options);
    // A twin injector with the same options rules the same verdicts; the
    // reference applies them the way the platter should.
    FaultInjector twin(options.faults);
    SectorMapReference reference;
    std::mt19937_64 rng(31);
    for (const int64_t cut_after : {int64_t{37}, int64_t{150}, int64_t{301}}) {
      disk.fault_injector().ArmPowerCut(cut_after, torn);
      twin.ArmPowerCut(cut_after, torn);
      for (int write = 0; write < 64; ++write) {
        const int64_t count = 1 + static_cast<int64_t>(rng() % 200);
        const int64_t start =
            static_cast<int64_t>(rng() % static_cast<uint64_t>(disk.total_sectors() - count));
        const std::vector<uint8_t> data = RandomPayload(&rng, count);
        const bool ok = disk.Write(start, count, data).ok();
        const CrashVerdict verdict = twin.OnWriteCrashCheck(count);
        ASSERT_EQ(ok, !verdict.power_cut);
        if (ok) {
          reference.Write(start, count, data);
          continue;
        }
        for (int64_t i = 0; i < verdict.prefix_sectors; ++i) {
          reference.Persist(start + i, data.data() + i * SectorMapReference::kSectorBytes);
        }
        for (size_t i = 0; i < verdict.shred.size(); ++i) {
          if (verdict.shred[i]) {
            const int64_t at = verdict.prefix_sectors + static_cast<int64_t>(i);
            reference.Persist(start + at, data.data() + at * SectorMapReference::kSectorBytes);
          }
        }
        break;
      }
      ASSERT_TRUE(disk.powered_off());
      disk.PowerCycle();
      twin.PowerRestore();
      ExpectDiskMatchesReference(&disk, reference, 200);
    }
  }
}

TEST(DiskArrayTest, StripesBlocksAcrossMembers) {
  DiskArray array(TestDiskParameters(), 4);
  EXPECT_EQ(array.members(), 4);
  EXPECT_EQ(array.MemberForBlock(0), 0);
  EXPECT_EQ(array.MemberForBlock(5), 1);
  EXPECT_EQ(array.MemberForBlock(7), 3);
}

TEST(DiskArrayTest, BatchCompletesWithSlowestMember) {
  DiskArray array(TestDiskParameters(), 2);
  // Member 0 reads near its head; member 1 must seek across the disk.
  array.member(0).MoveHeadToCylinder(0);
  array.member(1).MoveHeadToCylinder(0);
  std::vector<DiskArray::BatchRequest> batch = {
      {0, 0, 4},
      {1, 199 * 128, 4},
  };
  const SimDuration fast = array.member(0).PeekServiceTime(0, 4);
  const SimDuration slow = array.member(1).PeekServiceTime(199 * 128, 4);
  ASSERT_LT(fast, slow);
  std::vector<std::vector<uint8_t>> out;
  Result<DiskArray::BatchOutcome> outcome = array.ReadBatch(batch, &out);
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome->AllOk());
  EXPECT_EQ(outcome->completion_time, slow);
  ASSERT_EQ(outcome->per_request.size(), 2u);
  EXPECT_EQ(outcome->per_request[0].service, fast);
  EXPECT_EQ(outcome->per_request[1].service, slow);
  EXPECT_EQ(out.size(), 2u);
}

TEST(DiskArrayTest, RejectsTwoRequestsOnOneMember) {
  DiskArray array(TestDiskParameters(), 2);
  std::vector<DiskArray::BatchRequest> batch = {{0, 0, 1}, {0, 128, 1}};
  EXPECT_EQ(array.ReadBatch(batch, nullptr).status().code(), ErrorCode::kInvalidArgument);
}

TEST(DiskArrayTest, WriteReadRoundTripPerMember) {
  DiskArray array(TestDiskParameters(), 3);
  std::vector<DiskArray::BatchRequest> batch = {{0, 10, 1}, {1, 20, 1}, {2, 30, 1}};
  std::vector<std::vector<uint8_t>> payloads(3, std::vector<uint8_t>(512));
  payloads[0].assign(512, 0xaa);
  payloads[1].assign(512, 0xbb);
  payloads[2].assign(512, 0xcc);
  Result<DiskArray::BatchOutcome> written = array.WriteBatch(batch, payloads);
  ASSERT_TRUE(written.ok());
  EXPECT_TRUE(written->AllOk());
  std::vector<std::vector<uint8_t>> out;
  Result<DiskArray::BatchOutcome> read = array.ReadBatch(batch, &out);
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(read->AllOk());
  EXPECT_EQ(out, payloads);
}

TEST(DiskArrayTest, AggregateBandwidthScalesWithMembers) {
  DiskArray array(TestDiskParameters(), 8);
  EXPECT_DOUBLE_EQ(array.AggregateTransferRateBitsPerSec(),
                   8.0 * array.member_model().TransferRateBitsPerSec());
}

// Property sweep: the seek-model inversion holds across geometries.
class SeekInversionTest : public ::testing::TestWithParam<int64_t> {};

TEST_P(SeekInversionTest, InversionConsistent) {
  DiskParameters params = TestDiskParameters();
  params.cylinders = GetParam();
  DiskModel model(params);
  for (int64_t d = 0; d < params.cylinders; d += std::max<int64_t>(1, params.cylinders / 17)) {
    const SimDuration gap = model.SeekTimeForDistance(d) + model.AverageRotationalLatency();
    EXPECT_GE(model.MaxCylinderDistanceForGap(gap), d);
  }
}

INSTANTIATE_TEST_SUITE_P(Geometries, SeekInversionTest,
                         ::testing::Values<int64_t>(2, 10, 100, 1000, 5000));

}  // namespace
}  // namespace vafs
