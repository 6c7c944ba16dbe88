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
// Wall-clock execution (DESIGN.md section 12): with set_worker_pool, the
// requests of a batch run as real parallel tasks — one task per member —
// joined at a barrier before the call returns. The one-request-per-member
// rule that ValidateBatch enforces is what makes this safe without locks:
// each task exclusively owns its member Disk (arm state, sector store,
// fault injector are all per member), its own output slot and its own
// MemberOutcome, so tasks share no mutable state. Member trace emissions
// are buffered per request and replayed in batch order at the barrier, so
// the trace stream, completion_time (= max over members, Eq. 11) and all
// simulated-time results are byte-identical for any worker count.

#ifndef VAFS_SRC_DISK_DISK_ARRAY_H_
#define VAFS_SRC_DISK_DISK_ARRAY_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/disk/disk.h"
#include "src/util/result.h"
#include "src/util/time.h"

namespace vafs {

class WorkerPool;

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

  // Pooled-payload variant: request i's data lands in `*pages[i]`, a
  // caller-owned buffer (typically a PagePool page). The buffer is resized
  // to the transfer's byte count, which allocates nothing when its capacity
  // already suffices — the allocation-free read path of the 20k-stream
  // rounds (DESIGN.md section 15). An empty `pages` (or a null entry)
  // skips the payload for all (or that) request.
  Result<BatchOutcome> ReadBatchInto(const std::vector<BatchRequest>& batch,
                                     const std::vector<std::vector<uint8_t>*>& pages);

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

  // Wall-clock parallelism: when set (non-owning; must outlive the array),
  // batch requests run as one task per member on the pool, joined before
  // the call returns. Null (the default) or a 1-worker pool executes the
  // batch inline — the sequential reference every parallel run must match
  // byte for byte.
  void set_worker_pool(WorkerPool* pool) { pool_ = pool; }
  WorkerPool* worker_pool() const { return pool_; }

 private:
  // Rejecting two requests on one member is not a modeling nicety: it is
  // the data-ownership rule of the parallel engine. One request per member
  // means one task per Disk, so tasks never share arm state, stores or
  // fault injectors and the wave needs no locks. Callers with deeper
  // queues (the scheduler's C-SCAN member queues) issue one wave per queue
  // depth instead.
  Status ValidateBatch(const std::vector<BatchRequest>& batch) const;

  // Shared execution engine for Read/WriteBatch: redirects member traces
  // into per-request buffers, runs `serve(i)` for every request (on the
  // pool when configured, inline otherwise), then at the barrier restores
  // the sinks, replays the buffers in batch order and folds
  // completion_time = max over members.
  void DispatchBatch(const std::vector<BatchRequest>& batch,
                     const std::function<void(size_t)>& serve, BatchOutcome* outcome);

  std::vector<std::unique_ptr<Disk>> disks_;
  WorkerPool* pool_ = nullptr;
};

}  // namespace vafs

#endif  // VAFS_SRC_DISK_DISK_ARRAY_H_
