#include "src/disk/disk_array.h"

#include <algorithm>
#include <cassert>
#include <string>

namespace vafs {

DiskArray::DiskArray(const DiskParameters& member_params, int members, DiskOptions options) {
  assert(members > 0);
  disks_.reserve(static_cast<size_t>(members));
  for (int i = 0; i < members; ++i) {
    // Decorrelate member fault schedules: identical seeds would make every
    // member fault on the same ops, turning a 1% rate into a 1% whole-batch
    // loss rate.
    DiskOptions member_options = options;
    member_options.faults.seed = options.faults.seed + static_cast<uint64_t>(i);
    // One image file per member: a shared mapping would let two arms
    // clobber each other's sectors.
    if (!member_options.image_path.empty()) {
      member_options.image_path += ".m" + std::to_string(i);
    }
    disks_.push_back(std::make_unique<Disk>(member_params, member_options));
  }
}

Status DiskArray::ValidateBatch(const std::vector<BatchRequest>& batch) const {
  for (size_t i = 0; i < batch.size(); ++i) {
    const int member = batch[i].member;
    if (member < 0 || member >= members()) {
      return Status(ErrorCode::kInvalidArgument,
                    "batch names member " + std::to_string(member) + " of " +
                        std::to_string(members()));
    }
    // A batch holds at most one request per member, so this scan is over
    // a handful of entries and needs no scratch.
    for (size_t j = 0; j < i; ++j) {
      if (batch[j].member == member) {
        // Two requests on one member cannot proceed concurrently; callers
        // must split such work across batches.
        return Status(ErrorCode::kInvalidArgument,
                      "batch has two requests for member " + std::to_string(member));
      }
    }
  }
  return Status::Ok();
}

template <typename Op>
void DiskArray::DispatchBatch(const std::vector<BatchRequest>& batch, Op op,
                              BatchOutcome* outcome) {
  outcome->completion_time = 0;
  outcome->per_request.resize(batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    Disk& disk = *disks_[static_cast<size_t>(batch[i].member)];
    Result<SimDuration> service = op(disk, batch[i], i);
    MemberOutcome& fate = outcome->per_request[i];
    if (service.ok()) {
      fate.status = Status::Ok();
      fate.service = *service;
    } else {
      fate.status = service.status();
      fate.service = disk.last_fault_service();
    }
    outcome->completion_time = std::max(outcome->completion_time, fate.service);
  }
}

Result<DiskArray::BatchOutcome> DiskArray::ReadBatch(const std::vector<BatchRequest>& batch,
                                                     std::vector<std::vector<uint8_t>>* out) {
  if (Status status = ValidateBatch(batch); !status.ok()) {
    return status;
  }
  if (out != nullptr) {
    out->assign(batch.size(), {});
  }
  BatchOutcome outcome;
  DispatchBatch(
      batch,
      [out](Disk& disk, const BatchRequest& request, size_t i) {
        std::vector<uint8_t>* slot = out != nullptr ? &(*out)[i] : nullptr;
        return disk.Read(request.start_sector, request.sectors, slot);
      },
      &outcome);
  return outcome;
}

Status DiskArray::ReadBatchInto(const std::vector<BatchRequest>& batch,
                                const std::vector<std::vector<uint8_t>*>& pages,
                                BatchOutcome* outcome) {
  if (Status status = ValidateBatch(batch); !status.ok()) {
    return status;
  }
  if (!pages.empty() && pages.size() != batch.size()) {
    return Status(ErrorCode::kInvalidArgument, "page count does not match batch size");
  }
  DispatchBatch(
      batch,
      [&pages](Disk& disk, const BatchRequest& request, size_t i) {
        return disk.Read(request.start_sector, request.sectors, pages.empty() ? nullptr : pages[i]);
      },
      outcome);
  return Status::Ok();
}

Result<DiskArray::BatchOutcome> DiskArray::WriteBatch(const std::vector<BatchRequest>& batch,
                                                      const std::vector<std::vector<uint8_t>>& data) {
  if (Status status = ValidateBatch(batch); !status.ok()) {
    return status;
  }
  if (!data.empty() && data.size() != batch.size()) {
    return Status(ErrorCode::kInvalidArgument, "payload count does not match batch size");
  }
  BatchOutcome outcome;
  DispatchBatch(
      batch,
      [&data](Disk& disk, const BatchRequest& request, size_t i) {
        std::span<const uint8_t> payload =
            data.empty() ? std::span<const uint8_t>() : std::span<const uint8_t>(data[i]);
        return disk.Write(request.start_sector, request.sectors, payload);
      },
      &outcome);
  return outcome;
}

double DiskArray::AggregateTransferRateBitsPerSec() const {
  return static_cast<double>(members()) * member_model().TransferRateBitsPerSec();
}

}  // namespace vafs
