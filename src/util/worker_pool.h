// Fixed-size worker pool for wall-clock parallelism inside one simulated
// round.
//
// The simulator's timing semantics are single-threaded and deterministic:
// one thread runs the simulation and is the only writer of its state
// (DESIGN.md section 12). The pool exists only to spend real CPU faster on
// work that is already independent — today the scheduler's payload passes
// (ServiceScheduler::VerifyHeldPayloads), which CRC pages each task owns.
// RunAll is a parallel-for with a join barrier: the caller runs tasks too,
// and the call returns only when every task has finished, so the caller
// merges per-task results in a fixed order afterwards; determinism is the
// merger's job, not the pool's.
//
// A pool of one worker never spawns a thread: tasks run inline on the
// caller in index order, giving the exact sequential reference semantics
// that multi-worker runs are tested against (tests/wallclock_test.cc).
// The pool size comes from the caller or the VAFS_WORKERS environment
// knob (see README).

#ifndef VAFS_SRC_UTIL_WORKER_POOL_H_
#define VAFS_SRC_UTIL_WORKER_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

namespace vafs {

class WorkerPool {
 public:
  using Task = std::function<void()>;

  // A pool of `workers` threads; values < 1 clamp to 1, and a one-worker
  // pool runs everything inline (no threads are created at all).
  explicit WorkerPool(int workers);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  int workers() const { return workers_; }

  // Runs every task and returns when all of them have completed (the
  // barrier). The calling thread runs the first task and then any
  // still-queued ones, so tasks may run on the caller or on a worker.
  // Tasks must be independent: they may not use this pool, and any shared
  // state they touch must be their own. The storage is the caller's, so a
  // caller that runs passes every round can reuse its task vector; the
  // tasks are left valid but unspecified (possibly moved-from): reassign
  // them before the next pass.
  void RunAll(std::span<Task> tasks);

  // VAFS_WORKERS environment value, clamped to [1, 64]; 1 when unset or
  // unparsable. The deterministic default: parallelism is opt-in.
  static int WorkersFromEnv();

 private:
  void WorkerLoop();

  const int workers_;
  std::mutex mutex_;
  std::condition_variable work_ready_;
  std::condition_variable work_done_;
  std::deque<Task> queue_;
  int64_t in_flight_ = 0;  // queued + currently executing tasks
  bool stopping_ = false;
  std::vector<std::thread> threads_;
};

}  // namespace vafs

#endif  // VAFS_SRC_UTIL_WORKER_POOL_H_
