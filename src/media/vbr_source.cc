#include "src/media/vbr_source.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "src/util/units.h"

namespace vafs {

VbrVideoSource::VbrVideoSource(const MediaProfile& profile, const VbrProfile& vbr, uint64_t seed)
    : profile_(profile),
      vbr_(vbr),
      seed_(seed),
      peak_frame_bytes_(BitsToBytesCeil(profile.bits_per_unit)) {
  assert(profile_.medium == Medium::kVideo);
  assert(vbr_.group_of_pictures >= 1);
  assert(vbr_.delta_mean_fraction > 0 && vbr_.delta_mean_fraction <= 1.0);
}

double VbrVideoSource::ActivityAt(int64_t index) const {
  // Scenes are fixed-length runs of frames; each scene draws a stable
  // activity level from its own hash, so content is regenerable.
  const double frames_per_scene =
      profile_.units_per_sec / std::max(vbr_.scene_change_per_sec, 1e-6);
  const int64_t scene = static_cast<int64_t>(static_cast<double>(index) / frames_per_scene);
  uint64_t state = seed_ ^ (0x9e3779b97f4a7c15ULL * static_cast<uint64_t>(scene + 1));
  const uint64_t word = SplitMix64(state);
  return static_cast<double>(word >> 11) * 0x1.0p-53;
}

int64_t VbrVideoSource::FrameBytes(int64_t index) const {
  if (index % vbr_.group_of_pictures == 0) {
    return peak_frame_bytes_;  // intra frame
  }
  // Delta frame: size scales with scene activity around the configured
  // mean fraction, plus per-frame jitter, clamped to [1, peak].
  const double activity = ActivityAt(index);
  uint64_t state = seed_ ^ (0xd1342543de82ef95ULL * static_cast<uint64_t>(index + 1));
  const double jitter =
      0.75 + 0.5 * (static_cast<double>(SplitMix64(state) >> 11) * 0x1.0p-53);
  const double fraction = vbr_.delta_mean_fraction * (0.25 + 1.5 * activity) * jitter;
  const int64_t bytes =
      static_cast<int64_t>(std::llround(fraction * static_cast<double>(peak_frame_bytes_)));
  return std::clamp<int64_t>(bytes, 1, peak_frame_bytes_);
}

std::vector<uint8_t> VbrVideoSource::FramePayload(int64_t index) const {
  return SyntheticFramePayload(seed_, index, static_cast<size_t>(FrameBytes(index)));
}

VideoFrame VbrVideoSource::NextFrame() {
  VideoFrame frame;
  frame.index = next_index_;
  frame.payload = FramePayload(next_index_);
  ++next_index_;
  return frame;
}

double VbrVideoSource::MeanFrameBytes(int64_t frames) const {
  assert(frames > 0);
  double total = 0.0;
  for (int64_t i = 0; i < frames; ++i) {
    total += static_cast<double>(FrameBytes(i));
  }
  return total / static_cast<double>(frames);
}

VbrStrandStats AnalyzeVbrBlocks(const std::vector<int64_t>& block_bits) {
  VbrStrandStats stats;
  if (block_bits.empty()) {
    return stats;
  }
  double total = 0.0;
  for (int64_t bits : block_bits) {
    total += static_cast<double>(bits);
    stats.peak_block_bits = std::max(stats.peak_block_bits, bits);
  }
  stats.mean_block_bits = total / static_cast<double>(block_bits.size());

  // Worst burst: maximum over windows of sum(actual - mean). Classic
  // maximum-subarray over the centered series.
  double running = 0.0;
  double worst = 0.0;
  for (int64_t bits : block_bits) {
    running += static_cast<double>(bits) - stats.mean_block_bits;
    if (running < 0) {
      running = 0;
    }
    worst = std::max(worst, running);
  }
  stats.worst_burst_excess_bits = worst;
  return stats;
}

int64_t VbrStrandStats::RequiredReadAhead(double transfer_rate_bits_per_sec,
                                          double block_duration_sec) const {
  // The burst delays transfer completion by excess/R_dt seconds relative
  // to the mean-rate budget; each buffered block buys one block duration.
  const double delay_sec = worst_burst_excess_bits / transfer_rate_bits_per_sec;
  return 1 + static_cast<int64_t>(std::ceil(delay_sec / block_duration_sec));
}

}  // namespace vafs
