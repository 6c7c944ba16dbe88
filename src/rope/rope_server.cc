#include "src/rope/rope_server.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <string>
#include <vector>

#include "src/util/units.h"

namespace vafs {

RopeServer::RopeServer(StrandStore* store) : store_(store) {}

void RopeServer::NotifyChanged(RopeId id) {
  if (listener_ == nullptr) {
    return;
  }
  auto it = ropes_.find(id);
  if (it != ropes_.end()) {
    listener_->OnRopeChanged(*it->second);
  }
}

std::vector<Medium> RopeServer::SelectedMedia(MediaSelector media) {
  switch (media) {
    case MediaSelector::kVideo:
      return {Medium::kVideo};
    case MediaSelector::kAudio:
      return {Medium::kAudio};
    case MediaSelector::kAudioVisual:
      return {Medium::kVideo, Medium::kAudio};
  }
  return {};
}

Result<RopeId> RopeServer::CreateRope(const std::string& creator, StrandId video_strand,
                                      StrandId audio_strand) {
  if (video_strand == kNullStrand && audio_strand == kNullStrand) {
    return Status(ErrorCode::kInvalidArgument, "rope needs at least one strand");
  }
  auto rope = std::make_unique<Rope>(next_id_, creator);
  for (auto [medium, strand_id] :
       {std::pair{Medium::kVideo, video_strand}, std::pair{Medium::kAudio, audio_strand}}) {
    if (strand_id == kNullStrand) {
      continue;
    }
    Result<const Strand*> strand = store_->Get(strand_id);
    if (!strand.ok()) {
      return strand.status();
    }
    const StrandInfo& info = (*strand)->info();
    if (info.medium != medium) {
      return Status(ErrorCode::kInvalidArgument,
                    "strand " + std::to_string(strand_id) + " is not " + MediumName(medium));
    }
    Track& track = rope->TrackFor(medium);
    track.rate = info.recording_rate;
    track.granularity = info.granularity;
    track.segments.push_back(TrackSegment{strand_id, 0, info.unit_count});
  }
  const RopeId id = next_id_++;
  ropes_[id] = std::move(rope);
  NotifyChanged(id);
  return id;
}

Result<const Rope*> RopeServer::Find(RopeId id) const {
  auto it = ropes_.find(id);
  if (it == ropes_.end()) {
    return Status(ErrorCode::kNotFound, "rope " + std::to_string(id));
  }
  return const_cast<const Rope*>(it->second.get());
}

Result<Rope*> RopeServer::FindMutable(const std::string& user, RopeId id) {
  auto it = ropes_.find(id);
  if (it == ropes_.end()) {
    return Status(ErrorCode::kNotFound, "rope " + std::to_string(id));
  }
  if (!it->second->access().AllowsEdit(user, it->second->creator())) {
    return Status(ErrorCode::kPermissionDenied,
                  user + " may not edit rope " + std::to_string(id));
  }
  return it->second.get();
}

Status RopeServer::SetAccess(const std::string& user, RopeId id, AccessControl access) {
  Result<Rope*> rope = FindMutable(user, id);
  if (!rope.ok()) {
    return rope.status();
  }
  (*rope)->access() = std::move(access);
  NotifyChanged(id);
  return Status::Ok();
}

Status RopeServer::AddTrigger(const std::string& user, RopeId id, Trigger trigger) {
  Result<Rope*> rope = FindMutable(user, id);
  if (!rope.ok()) {
    return rope.status();
  }
  if (trigger.at_sec < 0 || trigger.at_sec > (*rope)->LengthSec()) {
    return Status(ErrorCode::kOutOfRange, "trigger outside rope");
  }
  (*rope)->triggers().push_back(std::move(trigger));
  std::sort((*rope)->triggers().begin(), (*rope)->triggers().end(),
            [](const Trigger& a, const Trigger& b) { return a.at_sec < b.at_sec; });
  NotifyChanged(id);
  return Status::Ok();
}

Status RopeServer::EnsureTrackCompatible(Rope* rope, Medium medium, const Track& reference,
                                         double pad_to_sec) {
  Track& track = rope->TrackFor(medium);
  if (track.rate <= 0) {
    track.rate = reference.rate;
    track.granularity = reference.granularity;
    const int64_t pad_units = pad_to_sec > 0 ? track.UnitsAt(pad_to_sec) : 0;
    if (pad_units > 0) {
      track.segments.push_back(TrackSegment{kNullStrand, 0, pad_units});
    }
    return Status::Ok();
  }
  if (std::abs(track.rate - reference.rate) > 1e-9 ||
      track.granularity != reference.granularity) {
    // Mixed-rate tracks would break the unit arithmetic of block-level
    // correspondence; vaFS requires re-encoding to combine them.
    return Status(ErrorCode::kInvalidArgument,
                  std::string("incompatible ") + MediumName(medium) + " recording parameters");
  }
  return Status::Ok();
}

Status RopeServer::Insert(const std::string& user, RopeId base, double position_sec,
                          MediaSelector media, RopeId with, TimeInterval with_interval) {
  Result<Rope*> base_rope = FindMutable(user, base);
  if (!base_rope.ok()) {
    return base_rope.status();
  }
  Result<const Rope*> with_rope = Find(with);
  if (!with_rope.ok()) {
    return with_rope.status();
  }
  if (!(*with_rope)->access().AllowsPlay(user, (*with_rope)->creator())) {
    return Status(ErrorCode::kPermissionDenied, "no play access to source rope");
  }
  if (position_sec < 0 || position_sec > (*base_rope)->LengthSec() + 1e-9) {
    return Status(ErrorCode::kOutOfRange, "insert position outside rope");
  }

  for (Medium medium : SelectedMedia(media)) {
    const Track& source = (*with_rope)->TrackFor(medium);
    Track& target = (*base_rope)->TrackFor(medium);
    if (source.rate <= 0 && target.rate <= 0) {
      continue;  // neither rope carries this medium
    }
    if (source.rate > 0) {
      if (Status status = EnsureTrackCompatible(*base_rope, medium, source, position_sec);
          !status.ok()) {
        return status;
      }
      const int64_t start = source.UnitsAt(with_interval.start_sec);
      const int64_t count = source.UnitsAt(with_interval.length_sec);
      if (start < 0 || start + count > source.TotalUnits()) {
        return Status(ErrorCode::kOutOfRange, "withInterval outside source rope");
      }
      InsertSegments(&target, target.UnitsAt(position_sec), SliceTrack(source, start, count));
    } else {
      // The source rope lacks this medium: keep the base's media aligned
      // by inserting an equal-duration gap.
      const int64_t position = target.UnitsAt(position_sec);
      const int64_t count = target.UnitsAt(with_interval.length_sec);
      InsertSegments(&target, position, {TrackSegment{kNullStrand, 0, count}});
    }
  }
  if (media == MediaSelector::kAudioVisual) {
    for (Trigger& trigger : (*base_rope)->triggers()) {
      if (trigger.at_sec >= position_sec) {
        trigger.at_sec += with_interval.length_sec;
      }
    }
  }
  NotifyChanged(base);
  return Status::Ok();
}

Status RopeServer::Replace(const std::string& user, RopeId base, MediaSelector media,
                           TimeInterval base_interval, RopeId with, TimeInterval with_interval) {
  Result<Rope*> base_rope = FindMutable(user, base);
  if (!base_rope.ok()) {
    return base_rope.status();
  }
  Result<const Rope*> with_rope = Find(with);
  if (!with_rope.ok()) {
    return with_rope.status();
  }
  if (!(*with_rope)->access().AllowsPlay(user, (*with_rope)->creator())) {
    return Status(ErrorCode::kPermissionDenied, "no play access to source rope");
  }

  for (Medium medium : SelectedMedia(media)) {
    const Track& source = (*with_rope)->TrackFor(medium);
    Track& target = (*base_rope)->TrackFor(medium);
    if (source.rate <= 0 && target.rate <= 0) {
      continue;
    }
    const Track& reference = source.rate > 0 ? source : target;
    if (Status status = EnsureTrackCompatible(
            *base_rope, medium, reference, base_interval.start_sec + base_interval.length_sec);
        !status.ok()) {
      return status;
    }
    const int64_t erase_start = target.UnitsAt(base_interval.start_sec);
    const int64_t erase_count =
        std::min(target.UnitsAt(base_interval.length_sec), target.TotalUnits() - erase_start);
    if (erase_start < 0 || erase_start > target.TotalUnits()) {
      return Status(ErrorCode::kOutOfRange, "baseInterval outside rope");
    }
    std::vector<TrackSegment> replacement;
    if (source.rate > 0) {
      const int64_t start = source.UnitsAt(with_interval.start_sec);
      const int64_t count = source.UnitsAt(with_interval.length_sec);
      if (start < 0 || start + count > source.TotalUnits()) {
        return Status(ErrorCode::kOutOfRange, "withInterval outside source rope");
      }
      replacement = SliceTrack(source, start, count);
    } else {
      replacement.push_back(TrackSegment{kNullStrand, 0, target.UnitsAt(with_interval.length_sec)});
    }
    EraseRange(&target, erase_start, erase_count);
    InsertSegments(&target, erase_start, replacement);
  }
  NotifyChanged(base);
  return Status::Ok();
}

Result<RopeId> RopeServer::Substring(const std::string& user, RopeId base, MediaSelector media,
                                     TimeInterval interval) {
  Result<const Rope*> base_rope = Find(base);
  if (!base_rope.ok()) {
    return base_rope.status();
  }
  if (!(*base_rope)->access().AllowsPlay(user, (*base_rope)->creator())) {
    return Status(ErrorCode::kPermissionDenied, "no play access");
  }
  auto result = std::make_unique<Rope>(next_id_, user);
  for (Medium medium : SelectedMedia(media)) {
    const Track& source = (*base_rope)->TrackFor(medium);
    if (source.rate <= 0) {
      continue;
    }
    Track& target = result->TrackFor(medium);
    target.rate = source.rate;
    target.granularity = source.granularity;
    const int64_t start = source.UnitsAt(interval.start_sec);
    const int64_t count =
        std::min(source.UnitsAt(interval.length_sec), source.TotalUnits() - start);
    if (start < 0 || start > source.TotalUnits()) {
      return Status(ErrorCode::kOutOfRange, "interval outside rope");
    }
    target.segments = SliceTrack(source, start, count);
  }
  // Synchronization info (triggers) in range is copied, re-based to the
  // substring's origin (Section 4: sync info is copied when strands are
  // shared between ropes).
  for (const Trigger& trigger : (*base_rope)->triggers()) {
    if (trigger.at_sec >= interval.start_sec &&
        trigger.at_sec < interval.start_sec + interval.length_sec) {
      result->triggers().push_back(Trigger{trigger.at_sec - interval.start_sec, trigger.text});
    }
  }
  const RopeId id = next_id_++;
  ropes_[id] = std::move(result);
  NotifyChanged(id);
  return id;
}

Result<RopeId> RopeServer::Concat(const std::string& user, RopeId first, RopeId second) {
  Result<const Rope*> first_rope = Find(first);
  if (!first_rope.ok()) {
    return first_rope.status();
  }
  Result<const Rope*> second_rope = Find(second);
  if (!second_rope.ok()) {
    return second_rope.status();
  }
  for (const Rope* rope : {*first_rope, *second_rope}) {
    if (!rope->access().AllowsPlay(user, rope->creator())) {
      return Status(ErrorCode::kPermissionDenied, "no play access");
    }
  }

  auto result = std::make_unique<Rope>(next_id_, user);
  const double first_length = (*first_rope)->LengthSec();
  for (Medium medium : {Medium::kVideo, Medium::kAudio}) {
    const Track& track_a = (*first_rope)->TrackFor(medium);
    const Track& track_b = (*second_rope)->TrackFor(medium);
    if (track_a.rate <= 0 && track_b.rate <= 0) {
      continue;
    }
    const Track& reference = track_a.rate > 0 ? track_a : track_b;
    if (track_a.rate > 0 && track_b.rate > 0 &&
        (std::abs(track_a.rate - track_b.rate) > 1e-9 ||
         track_a.granularity != track_b.granularity)) {
      return Status(ErrorCode::kInvalidArgument,
                    std::string("incompatible ") + MediumName(medium) + " tracks");
    }
    Track& target = result->TrackFor(medium);
    target.rate = reference.rate;
    target.granularity = reference.granularity;
    for (const TrackSegment& segment : track_a.segments) {
      AppendSegment(&target, segment);
    }
    // Align the seam to the end of the *rope* (both media start together
    // in the second part): pad the shorter track with a gap.
    const int64_t pad = target.UnitsAt(first_length) - target.TotalUnits();
    if (pad > 0) {
      AppendSegment(&target, TrackSegment{kNullStrand, 0, pad});
    }
    for (const TrackSegment& segment : track_b.segments) {
      AppendSegment(&target, segment);
    }
  }
  for (const Trigger& trigger : (*first_rope)->triggers()) {
    result->triggers().push_back(trigger);
  }
  for (const Trigger& trigger : (*second_rope)->triggers()) {
    result->triggers().push_back(Trigger{trigger.at_sec + first_length, trigger.text});
  }
  const RopeId id = next_id_++;
  ropes_[id] = std::move(result);
  NotifyChanged(id);
  return id;
}

Status RopeServer::Delete(const std::string& user, RopeId base, MediaSelector media,
                          TimeInterval interval) {
  Result<Rope*> rope = FindMutable(user, base);
  if (!rope.ok()) {
    return rope.status();
  }
  const bool all_media = media == MediaSelector::kAudioVisual;
  for (Medium medium : SelectedMedia(media)) {
    Track& track = (*rope)->TrackFor(medium);
    if (track.rate <= 0) {
      continue;
    }
    const int64_t start = track.UnitsAt(interval.start_sec);
    const int64_t count = std::min(track.UnitsAt(interval.length_sec),
                                   track.TotalUnits() - start);
    if (start < 0 || start > track.TotalUnits() || count < 0) {
      return Status(ErrorCode::kOutOfRange, "interval outside rope");
    }
    if (all_media) {
      EraseRange(&track, start, count);  // the rope shortens
    } else {
      BlankRange(&track, start, count);  // the other medium keeps its timeline
    }
  }
  if (all_media) {
    auto& triggers = (*rope)->triggers();
    std::erase_if(triggers, [&](const Trigger& trigger) {
      return trigger.at_sec >= interval.start_sec &&
             trigger.at_sec < interval.start_sec + interval.length_sec;
    });
    for (Trigger& trigger : triggers) {
      if (trigger.at_sec >= interval.start_sec + interval.length_sec) {
        trigger.at_sec -= interval.length_sec;
      }
    }
  }
  NotifyChanged(base);
  return Status::Ok();
}

Status RopeServer::DeleteRope(const std::string& user, RopeId id) {
  Result<Rope*> rope = FindMutable(user, id);
  if (!rope.ok()) {
    return rope.status();
  }
  ropes_.erase(id);
  if (listener_ != nullptr) {
    listener_->OnRopeDeleted(id);
  }
  return Status::Ok();
}

Result<std::vector<PrimaryEntry>> RopeServer::ResolveBlocks(const std::string& user, RopeId id,
                                                            Medium medium,
                                                            TimeInterval interval) const {
  Result<const Rope*> rope = Find(id);
  if (!rope.ok()) {
    return rope.status();
  }
  if (!(*rope)->access().AllowsPlay(user, (*rope)->creator())) {
    return Status(ErrorCode::kPermissionDenied,
                  user + " may not play rope " + std::to_string(id));
  }
  const Track& track = (*rope)->TrackFor(medium);
  if (track.rate <= 0) {
    return Status(ErrorCode::kNotFound,
                  std::string("rope has no ") + MediumName(medium) + " component");
  }
  const int64_t start = track.UnitsAt(interval.start_sec);
  const int64_t count = std::min(track.UnitsAt(interval.length_sec),
                                 track.TotalUnits() - start);
  if (start < 0 || start > track.TotalUnits()) {
    return Status(ErrorCode::kOutOfRange, "interval outside rope");
  }

  std::vector<PrimaryEntry> blocks;
  for (const TrackSegment& piece : SliceTrack(track, start, count)) {
    if (piece.IsGap()) {
      const int64_t gap_blocks = CeilDiv(piece.unit_count, track.granularity);
      blocks.insert(blocks.end(), static_cast<size_t>(gap_blocks),
                    PrimaryEntry{kSilenceSector, 0});
      continue;
    }
    Result<const Strand*> strand = store_->Get(piece.strand);
    if (!strand.ok()) {
      return strand.status();
    }
    const int64_t first_block = piece.start_unit / track.granularity;
    const int64_t last_block = (piece.start_unit + piece.unit_count - 1) / track.granularity;
    for (int64_t block = first_block; block <= last_block; ++block) {
      Result<PrimaryEntry> entry = (*strand)->index().Lookup(block);
      if (!entry.ok()) {
        return entry.status();
      }
      blocks.push_back(*entry);
    }
  }
  return blocks;
}

Result<RopeServer::RopeRepairStats> RopeServer::RepairRope(RopeId id, Medium medium) {
  auto it = ropes_.find(id);
  if (it == ropes_.end()) {
    return Status(ErrorCode::kNotFound, "rope " + std::to_string(id));
  }
  Track& track = it->second->TrackFor(medium);
  RopeRepairStats stats;
  if (track.rate <= 0) {
    return stats;
  }
  const int64_t q = track.granularity;

  for (size_t i = 1; i < track.segments.size(); ++i) {
    const TrackSegment& previous = track.segments[i - 1];
    TrackSegment current = track.segments[i];
    if (previous.IsGap() || current.IsGap()) {
      continue;  // a gap's playback duration absorbs any reposition
    }
    const int64_t previous_last_block =
        (previous.start_unit + previous.unit_count - 1) / q;
    const int64_t current_first_block = current.start_unit / q;
    const int64_t current_last_block = (current.start_unit + current.unit_count - 1) / q;
    ++stats.seams_checked;

    Result<RepairOutcome> outcome =
        RepairSeam(store_, previous.strand, previous_last_block, current.strand,
                   current_first_block, current_last_block - current_first_block + 1);
    if (!outcome.ok()) {
      return outcome.status();
    }
    if (outcome->already_continuous) {
      continue;
    }
    stats.blocks_copied += outcome->blocks_copied;
    stats.copy_time += outcome->copy_time;
    if (outcome->interrupted) {
      ++stats.seams_interrupted;
      stats.last_fault = outcome->fault;
      if (outcome->blocks_copied == 0) {
        continue;  // no progress; the seam stays for a later pass
      }
    } else {
      ++stats.seams_repaired;
    }

    // Splice: the first `blocks_copied` blocks of the current segment now
    // live (verbatim) in the copy strand.
    const int64_t copied_units_end = (current_first_block + outcome->blocks_copied) * q;
    const int64_t part_a_count =
        std::min(current.unit_count, copied_units_end - current.start_unit);
    TrackSegment part_a{outcome->copy_strand, current.start_unit - current_first_block * q,
                        part_a_count};
    TrackSegment part_b{current.strand, current.start_unit + part_a_count,
                        current.unit_count - part_a_count};
    track.segments[i] = part_a;
    if (part_b.unit_count > 0) {
      track.segments.insert(track.segments.begin() + static_cast<ptrdiff_t>(i) + 1, part_b);
      if (!outcome->interrupted) {
        // The copy chain ends exactly when part_b's first original block is
        // within the bound of the last copied block, so the part_a/part_b
        // seam needs no check; resume after part_b.
        ++i;
      }
      // An interrupted chain stopped short of reachability: leave `i` so
      // the next iteration re-checks the part_a/part_b seam. Every pass
      // splices at least one block, so the walk still terminates.
    }
  }
  if (stats.blocks_copied > 0) {
    NotifyChanged(id);
  }
  return stats;
}

void RopeServer::RebindStrand(StrandId from, StrandId to) {
  for (auto& [rope_id, rope] : ropes_) {
    for (Track* track : {&rope->video(), &rope->audio()}) {
      for (TrackSegment& segment : track->segments) {
        if (segment.strand == from) {
          segment.strand = to;
        }
      }
    }
  }
  if (pinned_.erase(from) > 0) {
    pinned_.insert(to);
  }
}

std::vector<StrandId> RopeServer::ReferencedStrands() const {
  std::set<StrandId> referenced = pinned_;
  for (const auto& [rope_id, rope] : ropes_) {
    for (const Track* track : {&rope->video(), &rope->audio()}) {
      for (const TrackSegment& segment : track->segments) {
        if (!segment.IsGap()) {
          referenced.insert(segment.strand);
        }
      }
    }
  }
  return std::vector<StrandId>(referenced.begin(), referenced.end());
}

Result<RopeServer::StorageReorgStats> RopeServer::ReorganizeStorage(double bound_override_sec) {
  StorageReorgStats stats;
  stats.largest_free_extent_before = store_->allocator().LargestFreeExtent();
  for (StrandId id : ReferencedStrands()) {
    Result<StrandHealth> health = AuditStrand(store_, id, bound_override_sec);
    if (!health.ok()) {
      return health.status();
    }
    ++stats.strands_audited;
    if (!health->NeedsRepair()) {
      continue;
    }
    Result<RelocationOutcome> outcome =
        RelocateStrand(store_, id, /*pack_hint_sector=*/-1, bound_override_sec);
    if (!outcome.ok()) {
      return outcome.status();
    }
    RebindStrand(id, outcome->new_strand);
    if (Status status = store_->Delete(id); !status.ok()) {
      return status;
    }
    ++stats.strands_relocated;
    stats.blocks_moved += outcome->blocks_moved;
    stats.copy_time += outcome->copy_time;
  }
  stats.largest_free_extent_after = store_->allocator().LargestFreeExtent();
  if (stats.strands_relocated > 0) {
    // Relocation rebinds strand ids inside rope tracks; report every rope's
    // post-rebind state so the journal reflects the new bindings.
    for (const auto& [rope_id, rope] : ropes_) {
      NotifyChanged(rope_id);
    }
  }
  return stats;
}

Result<RopeServer::StorageReorgStats> RopeServer::CompactStorage() {
  StorageReorgStats stats;
  stats.largest_free_extent_before = store_->allocator().LargestFreeExtent();
  int64_t pack_cursor = 0;
  for (StrandId id : ReferencedStrands()) {
    Result<RelocationOutcome> outcome = RelocateStrand(store_, id, pack_cursor);
    if (!outcome.ok()) {
      return outcome.status();
    }
    RebindStrand(id, outcome->new_strand);
    if (Status status = store_->Delete(id); !status.ok()) {
      return status;
    }
    ++stats.strands_audited;
    ++stats.strands_relocated;
    stats.blocks_moved += outcome->blocks_moved;
    stats.copy_time += outcome->copy_time;
    // Pack the next strand right behind this one.
    Result<const Strand*> relocated = store_->Get(outcome->new_strand);
    if (relocated.ok() && (*relocated)->block_count() > 0) {
      Result<PrimaryEntry> last =
          (*relocated)->index().Lookup((*relocated)->block_count() - 1);
      if (last.ok() && !last->IsSilence()) {
        pack_cursor = std::max(pack_cursor, last->sector + last->sector_count);
      }
    }
  }
  stats.largest_free_extent_after = store_->allocator().LargestFreeExtent();
  if (stats.strands_relocated > 0) {
    for (const auto& [rope_id, rope] : ropes_) {
      NotifyChanged(rope_id);
    }
  }
  return stats;
}

int64_t RopeServer::InterestCount(StrandId id) const {
  int64_t count = 0;
  for (const auto& [rope_id, rope] : ropes_) {
    for (const Track* track : {&rope->video(), &rope->audio()}) {
      for (const TrackSegment& segment : track->segments) {
        if (segment.strand == id) {
          ++count;
        }
      }
    }
  }
  return count;
}

std::vector<const Rope*> RopeServer::AllRopes() const {
  std::vector<const Rope*> ropes;
  for (const auto& [id, rope] : ropes_) {
    ropes.push_back(rope.get());
  }
  return ropes;
}

Status RopeServer::AdoptRope(std::unique_ptr<Rope> rope, bool replace_existing) {
  const RopeId id = rope->id();
  if (!replace_existing && ropes_.count(id) != 0) {
    return Status(ErrorCode::kAlreadyExists, "rope " + std::to_string(id));
  }
  ropes_[id] = std::move(rope);
  if (id >= next_id_) {
    next_id_ = id + 1;
  }
  return Status::Ok();
}

Status RopeServer::EraseRope(RopeId id) {
  if (ropes_.erase(id) == 0) {
    return Status(ErrorCode::kNotFound, "rope " + std::to_string(id));
  }
  return Status::Ok();
}

int64_t RopeServer::CollectGarbage() {
  // A sorted vector rather than a std::set: one node allocation per
  // reference made this call's tail hostage to the allocator's state.
  std::vector<StrandId> referenced(pinned_.begin(), pinned_.end());
  for (const auto& [rope_id, rope] : ropes_) {
    for (const Track* track : {&rope->video(), &rope->audio()}) {
      for (const TrackSegment& segment : track->segments) {
        if (!segment.IsGap()) {
          referenced.push_back(segment.strand);
        }
      }
    }
  }
  std::sort(referenced.begin(), referenced.end());
  int64_t collected = 0;
  for (StrandId id : store_->AllIds()) {
    if (!std::binary_search(referenced.begin(), referenced.end(), id)) {
      if (store_->Delete(id).ok()) {
        ++collected;
      }
    }
  }
  return collected;
}

}  // namespace vafs
