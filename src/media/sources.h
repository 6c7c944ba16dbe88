// Synthetic media sources.
//
// The paper's testbed captured live NTSC video and telephone audio; we have
// no capture hardware, so these generators produce deterministic synthetic
// payloads with the same sizes and rates (DESIGN.md, substitution table).
// The audio source additionally scripts an energy profile alternating
// speech and silence so that silence detection has realistic material.

#ifndef VAFS_SRC_MEDIA_SOURCES_H_
#define VAFS_SRC_MEDIA_SOURCES_H_

#include <cstdint>
#include <vector>

#include "src/media/media.h"
#include "src/util/prng.h"

namespace vafs {

// One captured video frame.
struct VideoFrame {
  int64_t index = 0;
  std::vector<uint8_t> payload;
};

// Payload of frame `index` of a video source seeded with `seed`: `bytes`
// bytes of a SplitMix64 stream keyed by (seed, index), each word stored
// little-endian. Cheap, deterministic and unique per frame; shared by the
// fixed-rate and variable-rate sources.
std::vector<uint8_t> SyntheticFramePayload(uint64_t seed, int64_t index, size_t bytes);

// Produces fixed-size frames whose bytes are a deterministic function of
// (seed, frame index), so any frame can be regenerated for verification.
class VideoSource {
 public:
  VideoSource(const MediaProfile& profile, uint64_t seed);

  const MediaProfile& profile() const { return profile_; }
  int64_t frame_bytes() const { return frame_bytes_; }

  // Next frame in capture order.
  VideoFrame NextFrame();

  // Regenerates the payload of an arbitrary frame (for read-back checks).
  std::vector<uint8_t> FramePayload(int64_t index) const;

  int64_t frames_produced() const { return next_index_; }

 private:
  MediaProfile profile_;
  int64_t frame_bytes_;
  uint64_t seed_;
  int64_t next_index_ = 0;
};

// Scripted speech/silence alternation for the audio source.
struct SpeechProfile {
  double talk_spurt_mean_sec = 1.2;   // mean length of a speech burst
  double silence_mean_sec = 0.6;      // mean length of a pause
  uint8_t speech_amplitude = 90;      // peak deviation from the midpoint during speech
  uint8_t noise_amplitude = 2;        // residual noise during silence
};

// Produces 8-bit unsigned audio samples (midpoint 128) in caller-sized
// chunks, alternating speech bursts and silences with exponentially
// distributed durations.
class AudioSource {
 public:
  AudioSource(const MediaProfile& profile, const SpeechProfile& speech, uint64_t seed);

  const MediaProfile& profile() const { return profile_; }

  // Next `count` samples in capture order.
  std::vector<uint8_t> NextSamples(int64_t count);

  // True if the sample at `position` (absolute index) falls in a scripted
  // silence segment. Usable only for positions already generated.
  bool IsScriptedSilence(int64_t position) const;

  int64_t samples_produced() const { return next_index_; }

 private:
  void ExtendScriptTo(int64_t position);

  MediaProfile profile_;
  SpeechProfile speech_;
  // Separate generators for the segment script and the per-sample jitter:
  // content must not depend on how the caller chunks NextSamples.
  Prng script_prng_;
  Prng jitter_prng_;
  int64_t next_index_ = 0;
  // Script: alternating segment boundaries. segment_ends_[i] is the first
  // sample index NOT in segment i; segment i is silence iff i is odd
  // (scripts always start with speech).
  std::vector<int64_t> segment_ends_;
};

}  // namespace vafs

#endif  // VAFS_SRC_MEDIA_SOURCES_H_
