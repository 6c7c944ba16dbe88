#include "src/msm/round_planner.h"

#include <algorithm>
#include <bit>

namespace vafs {

namespace {

int64_t HeadFor(const std::vector<int64_t>& head_cylinders, int member) {
  return member < static_cast<int>(head_cylinders.size())
             ? head_cylinders[static_cast<size_t>(member)]
             : 0;
}

}  // namespace

RoundPlan BuildRoundPlan(const DiskModel& model, const std::vector<int64_t>& head_cylinders,
                         int array_members, const std::vector<PlanInput>& inputs) {
  RoundPlanner planner;
  return planner.Plan(model, head_cylinders, array_members, inputs);
}

const RoundPlan& RoundPlanner::Plan(const DiskModel& model,
                                    const std::vector<int64_t>& head_cylinders, int array_members,
                                    const std::vector<PlanInput>& inputs) {
  const int members = std::max(array_members, 1);
  plan_.transfers.clear();
  plan_.riders.clear();
  plan_.data_blocks = 0;
  plan_.cache_hits = 0;
  plan_.read_transfers = 0;
  plan_.coalesced_blocks = 0;
  plan_.deduped_blocks = 0;
  riders_.clear();
  runs_.clear();
  groups_.clear();
  ResetGroupIndex(2 * last_read_groups_);
  read_groups_ = 0;

  // Coalescing: a run of consecutive non-silence candidates whose extents
  // abut on the same member becomes one transfer. Silence and cache hits
  // end the run even when the flanking extents are contiguous. A run is
  // filed under its extent's group when it ends, so runs of one input (and
  // then its appends) reach the groups in playback order.
  int32_t slot = 0;
  for (const PlanInput& input : inputs) {
    bool open = false;
    int64_t run_start = 0;
    int64_t run_sectors = 0;
    int run_member = 0;
    uint32_t run_riders = 0;
    const auto end_run = [&] {
      if (open) {
        CloseRun(run_start, run_sectors, run_member, run_riders);
        open = false;
      }
    };
    for (const PlanCandidate& candidate : input.blocks) {
      const int32_t this_slot = slot++;
      if (candidate.silence) {
        end_run();
        continue;
      }
      ++plan_.data_blocks;
      if (candidate.cache_hit) {
        ++plan_.cache_hits;
        end_run();  // the round skips this extent; the run ends
        continue;
      }
      const int member = members > 1 ? static_cast<int>(candidate.ordinal % members) : 0;
      const PlannedBlock block{input.request, candidate.ordinal, candidate.sector,
                               candidate.sectors, this_slot};
      if (open && run_member == member && run_start + run_sectors == candidate.sector) {
        run_sectors += candidate.sectors;
        riders_.push_back(block);
        ++plan_.coalesced_blocks;
        continue;
      }
      end_run();
      open = true;
      run_start = candidate.sector;
      run_sectors = candidate.sectors;
      run_member = member;
      run_riders = static_cast<uint32_t>(riders_.size());
      riders_.push_back(block);
    }
    end_run();
    if (input.append_blocks > 0) {
      Group append;
      append.is_append = true;
      append.append_request = input.request;
      append.append_blocks = input.append_blocks;
      append.start_sector = std::max<int64_t>(input.append_position_sector, 0);
      append.member = 0;  // appends go to the primary spindle
      groups_.push_back(append);
    }
  }
  last_read_groups_ = read_groups_;

  // C-SCAN per member queue, from that member's current arm cylinder:
  // cylinders at or past the arm sweep first in ascending order, the rest
  // wait for the wrap. Encounter order breaks the remaining ties.
  order_.resize(groups_.size());
  for (size_t g = 0; g < groups_.size(); ++g) {
    const Group& group = groups_[g];
    const int64_t cylinder = model.SectorToCylinder(group.start_sector);
    const int64_t pass = cylinder >= HeadFor(head_cylinders, group.member) ? 0 : 1;
    order_[g] = OrderKey{2 * static_cast<int64_t>(group.member) + pass, cylinder,
                         group.start_sector, static_cast<int32_t>(g)};
  }
  std::sort(order_.begin(), order_.end(), [](const OrderKey& a, const OrderKey& b) {
    if (a.member_pass != b.member_pass) {
      return a.member_pass < b.member_pass;
    }
    if (a.cylinder != b.cylinder) {
      return a.cylinder < b.cylinder;
    }
    if (a.start_sector != b.start_sector) {
      return a.start_sector < b.start_sector;
    }
    return a.group < b.group;
  });

  for (const OrderKey& key : order_) {
    const Group& group = groups_[static_cast<size_t>(key.group)];
    PlannedTransfer transfer;
    transfer.is_append = group.is_append;
    transfer.start_sector = group.start_sector;
    transfer.sectors = group.sectors;
    transfer.member = group.member;
    transfer.append_request = group.append_request;
    transfer.append_blocks = group.append_blocks;
    transfer.rider_begin = static_cast<uint32_t>(plan_.riders.size());
    for (int32_t r = group.first_run; r >= 0; r = runs_[static_cast<size_t>(r)].next) {
      const Run& run = runs_[static_cast<size_t>(r)];
      const auto first = riders_.begin() + run.rider_begin;
      plan_.riders.insert(plan_.riders.end(), first, first + run.rider_count);
    }
    transfer.rider_count = static_cast<uint32_t>(plan_.riders.size()) - transfer.rider_begin;
    if (!transfer.is_append) {
      ++plan_.read_transfers;
    }
    plan_.transfers.push_back(transfer);
  }
  return plan_;
}

void RoundPlanner::CloseRun(int64_t start, int64_t sectors, int member, uint32_t rider_begin) {
  const uint32_t count = static_cast<uint32_t>(riders_.size()) - rider_begin;
  // Dedup: identical extents wanted by several requests (lockstep viewers
  // of one strand) collapse into one group carrying every run's riders.
  GroupSlot* slot = &GroupSlotFor(start, sectors);
  if (slot->group < 0) {
    if (2 * (read_groups_ + 1) > group_index_.size()) {
      GrowGroupIndex();
      slot = &GroupSlotFor(start, sectors);
    }
    slot->start = start;
    slot->sectors = sectors;
    slot->group = static_cast<int32_t>(groups_.size());
    ++read_groups_;
    Group group;
    group.start_sector = start;
    group.sectors = sectors;
    group.member = member;
    groups_.push_back(group);
  } else {
    plan_.deduped_blocks += count;
  }
  Group& group = groups_[static_cast<size_t>(slot->group)];
  const int32_t run = static_cast<int32_t>(runs_.size());
  runs_.push_back(Run{rider_begin, count, -1});
  if (group.last_run >= 0) {
    runs_[static_cast<size_t>(group.last_run)].next = run;
  } else {
    group.first_run = run;
  }
  group.last_run = run;
}

void RoundPlanner::ResetGroupIndex(size_t slots) {
  const size_t size = std::bit_ceil(std::max<size_t>(64, slots));
  group_index_.assign(size, GroupSlot{});
  group_shift_ = 64 - std::countr_zero(size);
}

void RoundPlanner::GrowGroupIndex() {
  ResetGroupIndex(2 * group_index_.size());
  for (size_t index = 0; index < groups_.size(); ++index) {
    const Group& group = groups_[index];
    if (!group.is_append) {
      GroupSlot& slot = GroupSlotFor(group.start_sector, group.sectors);
      slot.start = group.start_sector;
      slot.sectors = group.sectors;
      slot.group = static_cast<int32_t>(index);
    }
  }
}

RoundPlanner::GroupSlot& RoundPlanner::GroupSlotFor(int64_t start, int64_t sectors) {
  const size_t mask = group_index_.size() - 1;
  // Fibonacci hashing of the start sector with the length folded into the
  // high bits: the top bits of the product pick the home slot.
  const uint64_t mixed =
      (static_cast<uint64_t>(start) ^ (static_cast<uint64_t>(sectors) << 40)) *
      0x9E3779B97F4A7C15ull;
  for (size_t s = static_cast<size_t>(mixed >> group_shift_);; s = (s + 1) & mask) {
    GroupSlot& slot = group_index_[s];
    if (slot.group < 0 || (slot.start == start && slot.sectors == sectors)) {
      return slot;
    }
  }
}

}  // namespace vafs
