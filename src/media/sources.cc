#include "src/media/sources.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "src/util/units.h"

namespace vafs {

VideoSource::VideoSource(const MediaProfile& profile, uint64_t seed)
    : profile_(profile), frame_bytes_(BitsToBytesCeil(profile.bits_per_unit)), seed_(seed) {
  assert(profile_.medium == Medium::kVideo);
  assert(frame_bytes_ > 0);
}

std::vector<uint8_t> SyntheticFramePayload(uint64_t seed, int64_t index, size_t bytes) {
  std::vector<uint8_t> payload(bytes);
  uint64_t state = seed ^ (0x632be59bd9b4e019ULL * static_cast<uint64_t>(index + 1));
  // Whole words first, unchecked: the compiler merges each word's eight
  // byte stores into one store on any host byte order.
  uint8_t* out = payload.data();
  for (size_t w = 0; w < bytes / 8; ++w, out += 8) {
    const uint64_t word = SplitMix64(state);
    out[0] = static_cast<uint8_t>(word);
    out[1] = static_cast<uint8_t>(word >> 8);
    out[2] = static_cast<uint8_t>(word >> 16);
    out[3] = static_cast<uint8_t>(word >> 24);
    out[4] = static_cast<uint8_t>(word >> 32);
    out[5] = static_cast<uint8_t>(word >> 40);
    out[6] = static_cast<uint8_t>(word >> 48);
    out[7] = static_cast<uint8_t>(word >> 56);
  }
  if (const size_t tail = bytes % 8; tail != 0) {
    const uint64_t word = SplitMix64(state);
    for (size_t b = 0; b < tail; ++b) {
      out[b] = static_cast<uint8_t>(word >> (8 * b));
    }
  }
  return payload;
}

std::vector<uint8_t> VideoSource::FramePayload(int64_t index) const {
  return SyntheticFramePayload(seed_, index, static_cast<size_t>(frame_bytes_));
}

VideoFrame VideoSource::NextFrame() {
  VideoFrame frame;
  frame.index = next_index_;
  frame.payload = FramePayload(next_index_);
  ++next_index_;
  return frame;
}

AudioSource::AudioSource(const MediaProfile& profile, const SpeechProfile& speech, uint64_t seed)
    : profile_(profile),
      speech_(speech),
      script_prng_(seed),
      jitter_prng_(seed ^ 0x5eed5eed5eed5eedULL) {
  assert(profile_.medium == Medium::kAudio);
}

void AudioSource::ExtendScriptTo(int64_t position) {
  while (segment_ends_.empty() || segment_ends_.back() <= position) {
    const bool next_is_silence = (segment_ends_.size() % 2) == 1;
    const double mean_sec =
        next_is_silence ? speech_.silence_mean_sec : speech_.talk_spurt_mean_sec;
    // Exponential duration with the configured mean, floored at 10 ms so
    // segments are never degenerate.
    const double u = std::max(script_prng_.NextDouble(), 1e-12);
    const double duration_sec = std::max(0.010, -mean_sec * std::log(u));
    const int64_t samples = std::max<int64_t>(
        1, static_cast<int64_t>(std::llround(duration_sec * profile_.units_per_sec)));
    const int64_t prev_end = segment_ends_.empty() ? 0 : segment_ends_.back();
    segment_ends_.push_back(prev_end + samples);
  }
}

bool AudioSource::IsScriptedSilence(int64_t position) const {
  assert(position >= 0);
  assert(!segment_ends_.empty() && position < segment_ends_.back());
  auto it = std::upper_bound(segment_ends_.begin(), segment_ends_.end(), position);
  const size_t segment = static_cast<size_t>(it - segment_ends_.begin());
  return (segment % 2) == 1;
}

std::vector<uint8_t> AudioSource::NextSamples(int64_t count) {
  assert(count > 0);
  ExtendScriptTo(next_index_ + count - 1);
  std::vector<uint8_t> samples(static_cast<size_t>(count));
  for (int64_t i = 0; i < count; ++i) {
    const int64_t position = next_index_ + i;
    const bool silent = IsScriptedSilence(position);
    const uint8_t amplitude = silent ? speech_.noise_amplitude : speech_.speech_amplitude;
    // Triangle-ish waveform plus jitter keeps the energy well separated
    // between speech and silence without needing floating-point audio.
    const int64_t phase = position % 64;
    const int64_t tri = phase < 32 ? phase : 64 - phase;  // 0..32
    const int64_t wave = (tri - 16) * amplitude / 16;
    const int64_t jitter =
        amplitude == 0 ? 0 : jitter_prng_.NextInRange(-amplitude / 8 - 1, amplitude / 8 + 1);
    const int64_t value = 128 + wave + jitter;
    samples[static_cast<size_t>(i)] = static_cast<uint8_t>(std::clamp<int64_t>(value, 0, 255));
  }
  next_index_ += count;
  return samples;
}

}  // namespace vafs
