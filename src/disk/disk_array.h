// Multi-head disk array for the paper's concurrent retrieval architecture.
//
// Section 3.1 (Figure 3) analyzes retrieval with p concurrent disk
// accesses, as provided by a RAID-like array. DiskArray models p identical
// member disks; a batch of p block reads issued together is served in
// parallel and completes when the slowest member finishes. Consecutive
// blocks of a strand are assigned to members round-robin, so a group of p
// successive strand blocks always spans all members.
//
// Fault behaviour: a batch is issued to every member even when some of
// them fault — the members run in parallel, so one bad platter cannot call
// the others off. ReadBatch/WriteBatch therefore report a per-request
// BatchOutcome instead of aborting on the first member error; only
// malformed batches (unknown member, two requests on one member) fail the
// call as a whole. Member fault schedules are decorrelated by deriving
// each member's injector seed from the array seed and the member index.
//
// Execution: a batch's requests are served one after another on the
// calling thread, in batch order, and the batch completes at the max over
// members (Eq. 11) — the parallelism is in simulated time, not host time.
// Member trace events therefore reach the shared sink graph in batch
// order directly.

#ifndef VAFS_SRC_DISK_DISK_ARRAY_H_
#define VAFS_SRC_DISK_DISK_ARRAY_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/disk/disk.h"
#include "src/util/result.h"
#include "src/util/time.h"

namespace vafs {

class DiskArray {
 public:
  // An array of `members` disks, each with the given geometry.
  DiskArray(const DiskParameters& member_params, int members, DiskOptions options = DiskOptions());

  int members() const { return static_cast<int>(disks_.size()); }
  const DiskModel& member_model() const { return disks_.front()->model(); }
  Disk& member(int index) { return *disks_[static_cast<size_t>(index)]; }

  // Member disk that stores the `block_index`-th block of a strand.
  int MemberForBlock(int64_t block_index) const {
    return static_cast<int>(block_index % members());
  }

  struct BatchRequest {
    int member;            // which disk serves this block
    int64_t start_sector;  // extent on that member
    int64_t sectors;
  };

  // Fate of one request within a batch. A faulted request still consumed
  // its member's mechanism for `service` microseconds (0 when the member
  // was down and never moved).
  struct MemberOutcome {
    Status status = Status::Ok();
    SimDuration service = 0;
  };

  struct BatchOutcome {
    // Parallel completion: max over members of their service times,
    // including the mechanical time of faulted requests — the batch is not
    // done until the slowest arm stops, successful or not.
    SimDuration completion_time = 0;
    std::vector<MemberOutcome> per_request;  // one entry per batch request

    bool AllOk() const {
      for (const MemberOutcome& outcome : per_request) {
        if (!outcome.status.ok()) {
          return false;
        }
      }
      return true;
    }
    int64_t FailedCount() const {
      int64_t failed = 0;
      for (const MemberOutcome& outcome : per_request) {
        if (!outcome.status.ok()) {
          ++failed;
        }
      }
      return failed;
    }
  };

  // Issues the batch concurrently (at most one request per member). Every
  // request is attempted; per-request fates land in the outcome. The call
  // itself only fails on a malformed batch. Data is read into `out[i]` for
  // request i when non-null (left empty for faulted requests).
  Result<BatchOutcome> ReadBatch(const std::vector<BatchRequest>& batch,
                                 std::vector<std::vector<uint8_t>>* out);

  // Allocation-free variant for the scheduler's waves: request i's data
  // lands in `*pages[i]`, a caller-owned buffer (typically a PagePool
  // page), and the fates land in the caller's `*outcome`, whose storage is
  // reused. A buffer is resized to the transfer's byte count, which
  // allocates nothing when its capacity already suffices (DESIGN.md section
  // 15). An empty `pages` (or a null entry) skips the payload for all (or
  // that) request.
  Status ReadBatchInto(const std::vector<BatchRequest>& batch,
                       const std::vector<std::vector<uint8_t>*>& pages, BatchOutcome* outcome);

  // Parallel write counterpart; `data[i]` is the payload of request i.
  Result<BatchOutcome> WriteBatch(const std::vector<BatchRequest>& batch,
                                  const std::vector<std::vector<uint8_t>>& data);

  // Whole-member failure (e.g. a dead spindle). While failed, every
  // request routed to the member returns kIoError with zero service time.
  void FailMember(int index) { member(index).set_failed(true); }
  void ReviveMember(int index) { member(index).set_failed(false); }
  bool member_failed(int index) { return member(index).failed(); }

  // Aggregate transfer rate (members * per-member R_dt), the figure the
  // paper's HDTV feasibility argument sweeps.
  double AggregateTransferRateBitsPerSec() const;

 private:
  // One request per member: a member's arm cannot serve two transfers at
  // once. Callers with deeper queues (the scheduler's C-SCAN member
  // queues) issue one wave per queue depth instead.
  Status ValidateBatch(const std::vector<BatchRequest>& batch) const;

  // Serves every request in batch order through `op(disk, request, i)`,
  // which returns the member's service time or fault, records each fate in
  // `outcome` and folds completion_time = max over members.
  template <typename Op>
  void DispatchBatch(const std::vector<BatchRequest>& batch, Op op, BatchOutcome* outcome);

  std::vector<std::unique_ptr<Disk>> disks_;
};

}  // namespace vafs

#endif  // VAFS_SRC_DISK_DISK_ARRAY_H_
