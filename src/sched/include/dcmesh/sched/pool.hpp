#pragma once
// pool.hpp — persistent work-stealing thread pool (the QD step executor's
// worker team).
//
// One pool is spawned per process (or per test) and reused across every
// step: no per-GEMM or per-step thread creation, ever.  Each worker owns a
// deque; a worker pushes/pops its own deque at the back and steals from
// other workers (and the external submission queue) at the front.  The
// deques are mutex-guarded — at the granularity this repo schedules
// (panel packs, ic-block sweeps, whole BLAS calls) the lock is nanoseconds
// against microsecond tasks, and the straightforward locking is what keeps
// the pool trivially ThreadSanitizer-clean.
//
// Two execution services sit on top of the raw task queue:
//  - parallel_for(n, body): the kernel team.  One contiguous share per
//    participant (OpenMP static): the caller runs share 0 and each other
//    worker is posted its own, so an idle pool runs share r on worker r
//    every time.  A busy worker's share goes to whoever claims it first,
//    so a sweep never waits on one.  Outputs are keyed by index, so
//    results are bit-identical no matter which thread runs which share.
//  - submit(fn) -> job: fire-and-forget with a waitable handle (used by
//    the task graph's pooled executor).
//
// quiesce() blocks until every submitted task has retired — the rollback /
// replay quiescence point for the resilience subsystem.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace dcmesh::sched {

/// Waitable handle for one submitted task.  Copyable; wait() may be called
/// from any thread, repeatedly.  A default-constructed job is already done.
class job {
 public:
  job() = default;

  /// Block until the task has run; rethrows the task's exception (once —
  /// later waits return normally).
  void wait();

  /// True when the task has retired (exception included).
  [[nodiscard]] bool done() const;

  /// True when this job refers to a real submitted task.
  [[nodiscard]] bool valid() const noexcept { return state_ != nullptr; }

 private:
  friend class thread_pool;
  struct state {
    std::mutex mutex;
    std::condition_variable cv;
    bool done = false;
    std::exception_ptr error;
  };
  std::shared_ptr<state> state_;
};

/// Persistent work-stealing pool.  Thread-safe; all services may be used
/// concurrently from any mix of external threads and pool workers.
class thread_pool {
 public:
  /// Spawn `workers` threads (clamped to [1, kMaxWorkers]).
  explicit thread_pool(int workers);
  thread_pool(const thread_pool&) = delete;
  thread_pool& operator=(const thread_pool&) = delete;

  /// Drains all queues, then joins the workers.
  ~thread_pool();

  [[nodiscard]] int worker_count() const noexcept { return count_; }

  /// Enqueue `fn` for asynchronous execution and return a waitable handle.
  /// Called from a pool worker, the task lands on that worker's own deque
  /// (depth-first, cache-warm); externally it lands on the injection queue.
  job submit(std::function<void()> fn);

  /// Collaborative parallel sweep of body(0..n-1).  The caller runs
  /// shares too, so this never deadlocks — even from a pool worker while
  /// every other worker is busy, the caller simply runs the whole range
  /// itself.  Rethrows the first body exception after the sweep drains.
  /// body(i) must write only to index-i-owned state.
  void parallel_for(long n, const std::function<void(long)>& body);

  /// Block until no task is queued or in flight.  New submissions made
  /// while quiescing extend the wait (callers stop producing first: the
  /// driver quiesces only after its step graphs have joined).
  void quiesce();

  /// Worker index of the calling thread in THIS pool, -1 for foreigners.
  [[nodiscard]] int current_worker_id() const noexcept;

  // --- introspection (tests, metrics) ---------------------------------
  /// Tasks executed since construction (a worker serving a parallel_for
  /// post counts once per post, not per index).
  [[nodiscard]] std::uint64_t tasks_executed() const noexcept {
    return tasks_executed_.load(std::memory_order_relaxed);
  }
  /// Tasks a worker obtained from another worker's deque or the injection
  /// queue — the work-stealing traffic.
  [[nodiscard]] std::uint64_t steal_count() const noexcept {
    return steals_.load(std::memory_order_relaxed);
  }
  /// Cumulative nanoseconds tasks spent queued before a worker picked
  /// them up (the `queue_wait` trace annotation, pool-wide).
  [[nodiscard]] std::uint64_t queue_wait_ns() const noexcept {
    return queue_wait_ns_.load(std::memory_order_relaxed);
  }
  /// Monotonic ids of the OS threads that ever executed a task; size ==
  /// worker_count() forever after warmup proves zero thread churn.
  [[nodiscard]] std::vector<std::uint64_t> worker_thread_ids() const;

  static constexpr int kMaxWorkers = 256;

 private:
  struct task {
    std::function<void()> fn;
    std::shared_ptr<job::state> state;  ///< null for untracked tasks.
    std::uint64_t enqueue_ns = 0;
  };
  struct sweep;
  struct worker_queue {
    std::mutex mutex;
    std::deque<task> deque;  // guarded by mutex
    std::atomic<sweep*> team{nullptr};  ///< parallel_for share posted here
  };

  void worker_loop(int id);
  void join_sweep(sweep& s, int rank);
  void run_task(task&& t);
  /// Pop for worker `id` (own back, then steal fronts).  Returns false
  /// when nothing is available anywhere.
  bool try_pop(int id, task& out);
  void enqueue(task t);
  /// Bump the wake epoch and wake any sleeping worker.
  void wake();

  // Finalized in the constructor BEFORE any thread is spawned: workers
  // read the count while the constructor is still growing `workers_`, so
  // sizing off that vector would race.
  int count_ = 0;
  std::vector<std::unique_ptr<worker_queue>> queues_;  // one per worker
  worker_queue injection_;                             // external submits
  std::vector<std::thread> workers_;

  std::mutex sleep_mutex_;
  std::condition_variable sleep_cv_;
  std::atomic<std::uint64_t> pushes_{0};  ///< enqueues + posts: wake epoch
  std::atomic<int> started_{0};           ///< workers that reached the loop
  std::atomic<int> sleepers_{0};          ///< workers waiting on sleep_cv_

  std::mutex quiesce_mutex_;
  std::condition_variable quiesce_cv_;
  std::atomic<std::uint64_t> pending_{0};  ///< queued + running tasks

  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> tasks_executed_{0};
  std::atomic<std::uint64_t> steals_{0};
  std::atomic<std::uint64_t> queue_wait_ns_{0};

  mutable std::mutex ids_mutex_;
  std::vector<std::uint64_t> thread_ids_;  // guarded by ids_mutex_
};

}  // namespace dcmesh::sched
