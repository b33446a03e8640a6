#pragma once
// config.hpp — DCMESH_SCHED parsing and the process-wide scheduler state.
//
// Grammar (case-insensitive, surrounding whitespace ignored):
//   serial      step phases run in insertion order on the calling thread
//               (the determinism oracle; the default)
//   pool        persistent work-stealing pool, thread_count() workers
//   pool:N      same with exactly N workers, 1 <= N <= 256
//
// Malformed values warn ONCE on stderr and fall back to serial — the
// scheduler selector never throws and never aborts a run (same contract
// as DCMESH_KERNEL_ISA and DCMESH_FAULT_PLAN).
//
// One process-wide pool, spawned lazily and then reused, runs every
// kernel team and, under pool[:N], every step graph too.  Under serial it
// has thread_count() - 1 workers, the caller being the last team member.
// A fork() child abandons the inherited pool (its threads do not exist
// there) and runs serially: team loops inline, no step pool.

#include <functional>
#include <string>
#include <string_view>

namespace dcmesh::sched {

class thread_pool;

inline constexpr const char* kSchedEnvVar = "DCMESH_SCHED";

enum class sched_mode { serial, pool };

struct sched_config {
  sched_mode mode = sched_mode::serial;
  int workers = 0;  ///< pool size; 0 = thread_count()
};

/// Pure parser (no env access, no warning) — exposed for tests.
/// On malformed input returns the serial default and sets *ok = false.
sched_config parse_sched(std::string_view text, bool* ok = nullptr);

/// Scheduler selected by DCMESH_SCHED (or configure()); cached after the
/// first call.  Malformed env values warn once and select serial.
sched_mode active_mode();

/// The pool for step graphs, spawned on first call; nullptr if serial.
thread_pool* active_pool();

/// Programmatic override (tests, benches): replaces the cached selection;
/// a pool of another size is quiesced and respawned on its next use.
/// workers == 0 means thread_count().
void configure(sched_mode mode, int workers = 0);

/// The one thread count, first match wins: set_thread_count(),
/// MKL_NUM_THREADS, OMP_NUM_THREADS, hardware_concurrency.  Cached.
int thread_count();

/// Override it (0 = re-read the env); the pool is resized on its next
/// use.  Call it between parallel regions, not inside one.
void set_thread_count(int threads);

/// Drop the cached selection and thread count so the next use re-reads
/// the env (test hygiene; also joins and destroys any live pool).
void reset_for_testing();

/// Block until the active pool (if any) has retired every task — the
/// rollback/replay quiescence point.  No-op in serial mode.
void quiesce_active_pool();

/// Human-readable form of the active selection, e.g. "serial", "pool:8"
/// (for the metrics `sched=` section).
std::string describe_active();

/// The worker team for every kernel loop (GEMM packing and ic-block
/// sweeps, stencil column sweeps, force sums): thread_pool::parallel_for
/// on the process-wide pool, the caller participating, so graph and
/// kernel parallelism share one thread set and never oversubscribe; a
/// plain loop when the team is one thread.  body(i) must write only
/// index-i-owned state, so results are bit-identical across team shapes.
void team_parallel_for(long n, const std::function<void(long)>& body);

/// The most shares a team_parallel_for issued from this thread splits
/// into: the pool's workers, plus the caller when it is not one of them;
/// 1 when teams run inline.  Kernels size their work partition by it
/// (never their arithmetic, so results do not depend on it).
int team_size();

}  // namespace dcmesh::sched
