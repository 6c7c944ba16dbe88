#include "src/disk/disk_array.h"

#include <algorithm>
#include <cassert>
#include <string>

#include "src/obs/trace.h"
#include "src/util/worker_pool.h"

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
  std::vector<bool> used(disks_.size(), false);
  for (const BatchRequest& request : batch) {
    if (request.member < 0 || request.member >= members()) {
      return Status(ErrorCode::kInvalidArgument,
                    "batch names member " + std::to_string(request.member) + " of " +
                        std::to_string(members()));
    }
    if (used[static_cast<size_t>(request.member)]) {
      // Two requests on one member cannot proceed concurrently; callers
      // must split such work across batches.
      return Status(ErrorCode::kInvalidArgument,
                    "batch has two requests for member " + std::to_string(request.member));
    }
    used[static_cast<size_t>(request.member)] = true;
  }
  return Status::Ok();
}

void DiskArray::DispatchBatch(const std::vector<BatchRequest>& batch,
                              const std::function<void(size_t)>& serve, BatchOutcome* outcome) {
  // Redirect each participating member's trace stream into a private
  // buffer, so parallel tasks cannot interleave emissions in the shared
  // sink graph. The swap happens before dispatch and the replay after the
  // join, both on the coordinating thread; inside the window each task
  // exclusively owns its member Disk and therefore its buffer.
  std::vector<obs::BufferedTraceSink> buffers(batch.size());
  std::vector<obs::TraceSink*> original(batch.size(), nullptr);
  for (size_t i = 0; i < batch.size(); ++i) {
    Disk& disk = *disks_[static_cast<size_t>(batch[i].member)];
    original[i] = disk.trace_sink();
    if (original[i] != nullptr) {
      disk.set_trace_sink(&buffers[i]);
    }
  }
  if (pool_ != nullptr && pool_->workers() > 1 && batch.size() > 1) {
    std::vector<WorkerPool::Task> tasks;
    tasks.reserve(batch.size());
    for (size_t i = 0; i < batch.size(); ++i) {
      tasks.push_back([&serve, i] { serve(i); });
    }
    pool_->RunAll(std::move(tasks));
  } else {
    for (size_t i = 0; i < batch.size(); ++i) {
      serve(i);
    }
  }
  // Barrier passed: replay traces in batch order. Serial execution emits
  // request 0's events, then request 1's, and so on — replaying the
  // buffers in that same order makes the downstream stream byte-identical
  // for any worker count.
  for (size_t i = 0; i < batch.size(); ++i) {
    Disk& disk = *disks_[static_cast<size_t>(batch[i].member)];
    if (original[i] != nullptr) {
      disk.set_trace_sink(original[i]);
      buffers[i].FlushTo(original[i]);
    }
  }
  for (const MemberOutcome& fate : outcome->per_request) {
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
  outcome.per_request.resize(batch.size());
  auto serve = [this, &batch, out, &outcome](size_t i) {
    const BatchRequest& request = batch[i];
    Disk& disk = *disks_[static_cast<size_t>(request.member)];
    std::vector<uint8_t>* slot = out != nullptr ? &(*out)[i] : nullptr;
    Result<SimDuration> service = disk.Read(request.start_sector, request.sectors, slot);
    MemberOutcome& fate = outcome.per_request[i];
    if (service.ok()) {
      fate.service = *service;
    } else {
      fate.status = service.status();
      fate.service = disk.last_fault_service();
    }
  };
  DispatchBatch(batch, serve, &outcome);
  return outcome;
}

Result<DiskArray::BatchOutcome> DiskArray::ReadBatchInto(
    const std::vector<BatchRequest>& batch, const std::vector<std::vector<uint8_t>*>& pages) {
  if (Status status = ValidateBatch(batch); !status.ok()) {
    return status;
  }
  if (!pages.empty() && pages.size() != batch.size()) {
    return Status(ErrorCode::kInvalidArgument, "page count does not match batch size");
  }
  BatchOutcome outcome;
  outcome.per_request.resize(batch.size());
  auto serve = [this, &batch, &pages, &outcome](size_t i) {
    const BatchRequest& request = batch[i];
    Disk& disk = *disks_[static_cast<size_t>(request.member)];
    std::vector<uint8_t>* slot = pages.empty() ? nullptr : pages[i];
    Result<SimDuration> service = disk.Read(request.start_sector, request.sectors, slot);
    MemberOutcome& fate = outcome.per_request[i];
    if (service.ok()) {
      fate.service = *service;
    } else {
      fate.status = service.status();
      fate.service = disk.last_fault_service();
    }
  };
  DispatchBatch(batch, serve, &outcome);
  return outcome;
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
  outcome.per_request.resize(batch.size());
  auto serve = [this, &batch, &data, &outcome](size_t i) {
    const BatchRequest& request = batch[i];
    Disk& disk = *disks_[static_cast<size_t>(request.member)];
    std::span<const uint8_t> payload =
        data.empty() ? std::span<const uint8_t>() : std::span<const uint8_t>(data[i]);
    Result<SimDuration> service = disk.Write(request.start_sector, request.sectors, payload);
    MemberOutcome& fate = outcome.per_request[i];
    if (service.ok()) {
      fate.service = *service;
    } else {
      fate.status = service.status();
      fate.service = disk.last_fault_service();
    }
  };
  DispatchBatch(batch, serve, &outcome);
  return outcome;
}

double DiskArray::AggregateTransferRateBitsPerSec() const {
  return static_cast<double>(members()) * member_model().TransferRateBitsPerSec();
}

}  // namespace vafs
