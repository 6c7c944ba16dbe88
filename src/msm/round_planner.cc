#include "src/msm/round_planner.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <map>
#include <tuple>
#include <utility>

namespace vafs {

namespace {

// C-SCAN key: cylinders at or past the arm sweep first in ascending
// order; the rest wait for the wrap and sweep ascending again.
std::pair<int, int64_t> ScanKey(int64_t cylinder, int64_t head_cylinder) {
  return {cylinder >= head_cylinder ? 0 : 1, cylinder};
}

int64_t HeadFor(const std::vector<int64_t>& head_cylinders, int member) {
  return member < static_cast<int>(head_cylinders.size())
             ? head_cylinders[static_cast<size_t>(member)]
             : 0;
}

bool SameGeometry(const PlanCandidate& a, const PlanCandidate& b) {
  return a.ordinal == b.ordinal && a.silence == b.silence && a.cache_hit == b.cache_hit &&
         a.sector == b.sector && a.sectors == b.sectors;
}

}  // namespace

RoundPlan BuildRoundPlan(const DiskModel& model, const std::vector<int64_t>& head_cylinders,
                         int array_members, const std::vector<PlanInput>& inputs) {
  RoundPlan plan;
  BuildRoundPlanInto(model, head_cylinders, array_members, inputs, &plan);
  return plan;
}

void BuildRoundPlanInto(const DiskModel& model, const std::vector<int64_t>& head_cylinders,
                        int array_members, const std::vector<PlanInput>& inputs, RoundPlan* out) {
  out->transfers.clear();
  out->riders.clear();
  out->data_blocks = 0;
  out->cache_hits = 0;
  out->read_transfers = 0;
  out->coalesced_blocks = 0;
  out->deduped_blocks = 0;
  const int members = std::max(array_members, 1);

  // Build-phase transfer: geometry plus its own rider list (the flat arena
  // is only filled once the dispatch order is final).
  struct Build {
    PlannedTransfer transfer;
    std::vector<PlannedBlock> riders;
  };

  // Per-request coalescing: a run of consecutive non-silence candidates
  // whose extents abut on the same member becomes one transfer. Silence
  // breaks the run even when the flanking extents are contiguous.
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
      ++out->data_blocks;
      if (candidate.cache_hit) {
        ++out->cache_hits;
        run_broken = true;  // the round skips this extent; the run ends
        continue;
      }
      const int member = members > 1 ? static_cast<int>(candidate.ordinal % members) : 0;
      PlannedBlock block{input.request, candidate.ordinal, candidate.sector, candidate.sectors,
                         this_slot};
      if (!run_broken && run != nullptr && run->transfer.member == member &&
          run->transfer.start_sector + run->transfer.sectors == candidate.sector) {
        run->transfer.sectors += candidate.sectors;
        run->riders.push_back(block);
        ++out->coalesced_blocks;
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
      append.transfer.member = 0;  // appends go to the primary spindle
      reads.push_back(std::move(append));
    }
  }

  // Dedup: identical extents wanted by several requests (lockstep viewers
  // of one strand) collapse into one transfer carrying all riders.
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
      out->deduped_blocks += static_cast<int64_t>(build.riders.size());
      host.riders.insert(host.riders.end(), build.riders.begin(), build.riders.end());
      continue;
    }
    by_extent.emplace(key, unique.size());
    unique.push_back(std::move(build));
  }

  // C-SCAN per member queue, from that member's current arm cylinder.
  std::stable_sort(unique.begin(), unique.end(), [&](const Build& a, const Build& b) {
    if (a.transfer.member != b.transfer.member) {
      return a.transfer.member < b.transfer.member;
    }
    const int64_t head = HeadFor(head_cylinders, a.transfer.member);
    const auto ka = ScanKey(model.SectorToCylinder(a.transfer.start_sector), head);
    const auto kb = ScanKey(model.SectorToCylinder(b.transfer.start_sector), head);
    if (ka != kb) {
      return ka < kb;
    }
    return a.transfer.start_sector < b.transfer.start_sector;
  });

  out->transfers.reserve(unique.size());
  for (Build& build : unique) {
    PlannedTransfer transfer = build.transfer;
    transfer.rider_begin = static_cast<uint32_t>(out->riders.size());
    transfer.rider_count = static_cast<uint32_t>(build.riders.size());
    out->riders.insert(out->riders.end(), build.riders.begin(), build.riders.end());
    if (!transfer.is_append) {
      ++out->read_transfers;
    }
    out->transfers.push_back(transfer);
  }
}

void IncrementalRoundPlanner::RebuildInput(const PlanInput& input, int members,
                                           CachedInput* cached) {
  cached->signature.assign(input.blocks.begin(), input.blocks.end());
  cached->members = members;
  cached->runs.clear();
  cached->riders.clear();
  cached->data_blocks = 0;
  cached->cache_hits = 0;
  cached->coalesced_blocks = 0;

  CachedRun* run = nullptr;
  bool run_broken = true;
  int32_t candidate_index = -1;
  for (const PlanCandidate& candidate : input.blocks) {
    ++candidate_index;
    if (candidate.silence) {
      run_broken = true;
      continue;
    }
    ++cached->data_blocks;
    if (candidate.cache_hit) {
      ++cached->cache_hits;
      run_broken = true;
      continue;
    }
    const int member = members > 1 ? static_cast<int>(candidate.ordinal % members) : 0;
    // Slot holds the candidate index within this input; Plan() rebases it
    // to the round-global slot when filling the arena.
    PlannedBlock block{input.request, candidate.ordinal, candidate.sector, candidate.sectors,
                      candidate_index};
    if (!run_broken && run != nullptr && run->member == member &&
        run->start_sector + run->sectors == candidate.sector) {
      run->sectors += candidate.sectors;
      cached->riders.push_back(block);
      ++run->rider_count;
      ++cached->coalesced_blocks;
      continue;
    }
    CachedRun next;
    next.start_sector = candidate.sector;
    next.sectors = candidate.sectors;
    next.member = member;
    next.rider_begin = static_cast<uint32_t>(cached->riders.size());
    next.rider_count = 1;
    cached->riders.push_back(block);
    cached->runs.push_back(next);
    run = &cached->runs.back();
    run_broken = false;
  }
}

const RoundPlan& IncrementalRoundPlanner::Plan(const DiskModel& model,
                                               const std::vector<int64_t>& head_cylinders,
                                               int array_members,
                                               const std::vector<PlanInput>& inputs) {
  const int members = std::max(array_members, 1);
  ++stats_.rounds;
  plan_.transfers.clear();
  plan_.riders.clear();
  plan_.data_blocks = 0;
  plan_.cache_hits = 0;
  plan_.read_transfers = 0;
  plan_.coalesced_blocks = 0;
  plan_.deduped_blocks = 0;
  groups_.clear();
  refs_.clear();
  ResetGroupIndex(2 * inputs.size());
  size_t read_groups = 0;

  // Phase 1: per-input runs (cached) grouped by extent in encounter order.
  int64_t slot_base = 0;
  for (const PlanInput& input : inputs) {
    CachedInput& cached = cache_[input.request];
    ++stats_.inputs_seen;
    const bool clean = cached.members == members &&
                       cached.signature.size() == input.blocks.size() &&
                       std::equal(cached.signature.begin(), cached.signature.end(),
                                  input.blocks.begin(), SameGeometry);
    if (clean) {
      ++stats_.inputs_reused;
    } else {
      RebuildInput(input, members, &cached);
    }
    plan_.data_blocks += cached.data_blocks;
    plan_.cache_hits += cached.cache_hits;
    plan_.coalesced_blocks += cached.coalesced_blocks;

    for (int32_t run_index = 0; run_index < static_cast<int32_t>(cached.runs.size());
         ++run_index) {
      const CachedRun& run = cached.runs[static_cast<size_t>(run_index)];
      const ExtentKey key{run.start_sector, run.sectors};
      GroupSlot* slot = &GroupSlotFor(key);
      if (slot->group < 0) {
        if (2 * (read_groups + 1) > group_index_.size()) {
          GrowGroupIndex();
          slot = &GroupSlotFor(key);
        }
        slot->key = key;
        slot->group = static_cast<int32_t>(groups_.size());
        ++read_groups;
        Group group;
        group.start_sector = run.start_sector;
        group.sectors = run.sectors;
        group.member = run.member;
        group.cylinder = model.SectorToCylinder(run.start_sector);
        group.seq = static_cast<int32_t>(groups_.size());
        groups_.push_back(group);
      } else {
        plan_.deduped_blocks += run.rider_count;
      }
      Group& group = groups_[static_cast<size_t>(slot->group)];
      const int32_t ref_index = static_cast<int32_t>(refs_.size());
      refs_.push_back(GroupRef{&cached, run_index, slot_base, -1});
      if (group.last_ref >= 0) {
        refs_[static_cast<size_t>(group.last_ref)].next = ref_index;
      } else {
        group.first_ref = ref_index;
      }
      group.last_ref = ref_index;
      group.rider_total += run.rider_count;
    }
    if (input.append_blocks > 0) {
      Group group;
      group.is_append = true;
      group.append_request = input.request;
      group.append_blocks = input.append_blocks;
      group.start_sector = std::max<int64_t>(input.append_position_sector, 0);
      group.member = 0;
      group.cylinder = model.SectorToCylinder(group.start_sector);
      group.seq = static_cast<int32_t>(groups_.size());
      groups_.push_back(group);
    }
    slot_base += static_cast<int64_t>(input.blocks.size());
  }
  stats_.groups_seen += static_cast<int64_t>(groups_.size());

  // Phase 2: order groups by the head-independent total key
  //   (member, start_sector, seq)
  // reusing the previous round's order for surviving read extents. The
  // clean sequence (survivors, in last round's relative order) is sorted by
  // construction unless two surviving extents share (member, start_sector)
  // — different lengths — in which case their tie-break seq may have
  // flipped; that rare case falls back to a full sort. Appends are always
  // "dirty": their position moves with the writer every round.
  const auto key_of = [this](int32_t index) {
    const Group& group = groups_[static_cast<size_t>(index)];
    return std::make_tuple(group.member, group.start_sector, group.seq);
  };
  group_clean_.assign(groups_.size(), 0);
  clean_order_.clear();
  for (const OrderedIdentity& identity : last_order_) {
    const int32_t index = GroupSlotFor(ExtentKey{identity.start_sector, identity.sectors}).group;
    if (index < 0) {
      continue;
    }
    const Group& group = groups_[static_cast<size_t>(index)];
    if (group.member != identity.member || group_clean_[static_cast<size_t>(index)]) {
      continue;
    }
    group_clean_[static_cast<size_t>(index)] = 1;
    clean_order_.push_back(index);
  }
  bool clean_sorted = true;
  for (size_t i = 1; i < clean_order_.size(); ++i) {
    if (!(key_of(clean_order_[i - 1]) < key_of(clean_order_[i]))) {
      clean_sorted = false;
      break;
    }
  }
  dirty_order_.clear();
  for (int32_t index = 0; index < static_cast<int32_t>(groups_.size()); ++index) {
    if (!group_clean_[static_cast<size_t>(index)]) {
      dirty_order_.push_back(index);
    }
  }
  merged_order_.clear();
  if (!clean_sorted) {
    ++stats_.full_sort_fallbacks;
    stats_.groups_resorted += static_cast<int64_t>(groups_.size());
    merged_order_.resize(groups_.size());
    for (int32_t index = 0; index < static_cast<int32_t>(groups_.size()); ++index) {
      merged_order_[static_cast<size_t>(index)] = index;
    }
    std::sort(merged_order_.begin(), merged_order_.end(),
              [&](int32_t a, int32_t b) { return key_of(a) < key_of(b); });
  } else {
    stats_.groups_resorted += static_cast<int64_t>(dirty_order_.size());
    std::sort(dirty_order_.begin(), dirty_order_.end(),
              [&](int32_t a, int32_t b) { return key_of(a) < key_of(b); });
    merged_order_.reserve(groups_.size());
    size_t ci = 0;
    size_t di = 0;
    while (ci < clean_order_.size() && di < dirty_order_.size()) {
      if (key_of(clean_order_[ci]) < key_of(dirty_order_[di])) {
        merged_order_.push_back(clean_order_[ci++]);
      } else {
        merged_order_.push_back(dirty_order_[di++]);
      }
    }
    merged_order_.insert(merged_order_.end(), clean_order_.begin() + static_cast<ptrdiff_t>(ci),
                         clean_order_.end());
    merged_order_.insert(merged_order_.end(), dirty_order_.begin() + static_cast<ptrdiff_t>(di),
                         dirty_order_.end());
  }

  // Remember this round's merged read order for the next round.
  next_order_.clear();
  for (int32_t index : merged_order_) {
    const Group& group = groups_[static_cast<size_t>(index)];
    if (!group.is_append) {
      next_order_.push_back(OrderedIdentity{group.member, group.start_sector, group.sectors});
    }
  }
  last_order_.swap(next_order_);

  // Phase 3: per-member C-SCAN rotation. Within a member the merged order
  // is ascending in start_sector, hence nondecreasing in cylinder; the
  // elevator dispatches [first cylinder >= arm .. end) then wraps.
  const auto emit = [&](int32_t index) {
    const Group& group = groups_[static_cast<size_t>(index)];
    PlannedTransfer transfer;
    transfer.is_append = group.is_append;
    transfer.start_sector = group.start_sector;
    transfer.sectors = group.is_append ? 0 : group.sectors;
    transfer.member = group.member;
    transfer.append_request = group.append_request;
    transfer.append_blocks = group.append_blocks;
    transfer.rider_begin = static_cast<uint32_t>(plan_.riders.size());
    for (int32_t ref_index = group.first_ref; ref_index >= 0;
         ref_index = refs_[static_cast<size_t>(ref_index)].next) {
      const GroupRef& ref = refs_[static_cast<size_t>(ref_index)];
      const CachedRun& run = ref.input->runs[static_cast<size_t>(ref.run)];
      for (uint32_t r = 0; r < run.rider_count; ++r) {
        PlannedBlock block = ref.input->riders[run.rider_begin + r];
        block.slot = static_cast<int32_t>(ref.slot_base + block.slot);
        plan_.riders.push_back(block);
      }
    }
    transfer.rider_count = static_cast<uint32_t>(plan_.riders.size()) - transfer.rider_begin;
    if (!transfer.is_append) {
      ++plan_.read_transfers;
    }
    plan_.transfers.push_back(transfer);
  };

  plan_.transfers.reserve(merged_order_.size());
  size_t segment_begin = 0;
  while (segment_begin < merged_order_.size()) {
    const int member = groups_[static_cast<size_t>(merged_order_[segment_begin])].member;
    size_t segment_end = segment_begin;
    while (segment_end < merged_order_.size() &&
           groups_[static_cast<size_t>(merged_order_[segment_end])].member == member) {
      ++segment_end;
    }
    const int64_t head = HeadFor(head_cylinders, member);
    const auto begin = merged_order_.begin() + static_cast<ptrdiff_t>(segment_begin);
    const auto end = merged_order_.begin() + static_cast<ptrdiff_t>(segment_end);
    const auto pivot = std::partition_point(begin, end, [&](int32_t index) {
      return groups_[static_cast<size_t>(index)].cylinder < head;
    });
    for (auto it = pivot; it != end; ++it) {
      emit(*it);
    }
    for (auto it = begin; it != pivot; ++it) {
      emit(*it);
    }
    segment_begin = segment_end;
  }
  return plan_;
}

void IncrementalRoundPlanner::ResetGroupIndex(size_t slots) {
  const size_t size = std::bit_ceil(std::max<size_t>(64, slots));
  group_index_.assign(size, GroupSlot{});
  group_shift_ = 64 - std::countr_zero(size);
}

void IncrementalRoundPlanner::GrowGroupIndex() {
  ResetGroupIndex(2 * group_index_.size());
  for (size_t index = 0; index < groups_.size(); ++index) {
    const Group& group = groups_[index];
    if (!group.is_append) {
      const ExtentKey key{group.start_sector, group.sectors};
      GroupSlot& slot = GroupSlotFor(key);
      slot.key = key;
      slot.group = static_cast<int32_t>(index);
    }
  }
}

IncrementalRoundPlanner::GroupSlot& IncrementalRoundPlanner::GroupSlotFor(const ExtentKey& key) {
  const size_t mask = group_index_.size() - 1;
  // Fibonacci hashing of the start sector with the length folded into the
  // high bits: the top bits of the product pick the home slot.
  const uint64_t mixed =
      (static_cast<uint64_t>(key.start) ^ (static_cast<uint64_t>(key.sectors) << 40)) *
      0x9E3779B97F4A7C15ull;
  for (size_t s = static_cast<size_t>(mixed >> group_shift_);; s = (s + 1) & mask) {
    GroupSlot& slot = group_index_[s];
    if (slot.group < 0 || slot.key == key) {
      return slot;
    }
  }
}

void IncrementalRoundPlanner::Forget(uint64_t request) { cache_.erase(request); }

void IncrementalRoundPlanner::Clear() {
  cache_.clear();
  last_order_.clear();
  plan_ = RoundPlan{};
}

}  // namespace vafs
