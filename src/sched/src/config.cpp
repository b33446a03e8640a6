#include "dcmesh/sched/config.hpp"

#include <pthread.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include "dcmesh/common/env.hpp"
#include "dcmesh/common/knobs.hpp"
#include "dcmesh/sched/pool.hpp"

namespace dcmesh::sched {

namespace {

// Process-wide scheduler state; all of it is guarded by `mutex`.  The
// team route is also published lock-free (g_team_*), so a resolved
// team_parallel_for takes no lock.
struct sched_state {
  sched_state();
  std::mutex mutex;
  bool resolved = false;
  sched_config config;
  int threads_override = 0;  // set_thread_count(); 0 = environment
  int threads = 0;           // resolved thread count; 0 = unresolved
  bool forked = false;       // this process is a fork() child
  std::unique_ptr<thread_pool> pool;  // spawned lazily, persistent
  thread_pool* abandoned = nullptr;   // parent's pool, inherited by fork()
};

sched_state& state() {
  static sched_state s;
  return s;
}

// Team route, published by team_pool_locked(): a null pool runs inline.
std::atomic<bool> g_team_ready{false};
std::atomic<thread_pool*> g_team_pool{nullptr};

void unpublish_team() {
  g_team_ready.store(false, std::memory_order_release);
  g_team_pool.store(nullptr, std::memory_order_release);
}

// A fork() child drops to serial (see config.hpp).
void fork_child() {
  sched_state& s = state();
  s.abandoned = s.pool.release();  // never joined: its threads are gone
  s.forked = true;
  s.config.mode = sched_mode::serial;
  s.resolved = true;
  g_team_pool.store(nullptr, std::memory_order_release);
  g_team_ready.store(true, std::memory_order_release);
  s.mutex.unlock();
}

// Hold the state lock across fork(), so no child inherits it mid-update.
sched_state::sched_state() {
  pthread_atfork([] { state().mutex.lock(); },
                 [] { state().mutex.unlock(); }, fork_child);
}

/// DCMESH_SCHED grammar, as a knob (a malformed value reads as unset).
std::optional<sched_config> parse_sched_knob(std::string_view text) {
  bool ok = false;
  const sched_config config = parse_sched(text, &ok);
  return ok ? std::optional(config) : std::nullopt;
}

// Resolve from the environment; caller holds state().mutex.
void resolve_locked(sched_state& s) {
  if (s.resolved) return;
  s.config = knob_value(knob::sched, parse_sched_knob).value_or(sched_config{});
  s.resolved = true;
}

int threads_locked(sched_state& s) {
  if (s.threads == 0) {
    long t = s.threads_override;
    for (const knob k : {knob::mkl_num_threads, knob::omp_num_threads}) {
      if (t <= 0) t = knob_value(k, parse_integer).value_or(0);
    }
    if (t <= 0) t = static_cast<long>(std::thread::hardware_concurrency());
    s.threads = static_cast<int>(
        std::clamp<long>(t, 1, thread_pool::kMaxWorkers));
  }
  return s.threads;
}

int pool_workers_locked(sched_state& s) {
  resolve_locked(s);
  if (s.config.mode == sched_mode::serial) return threads_locked(s) - 1;
  return s.config.workers > 0 ? s.config.workers : threads_locked(s);
}

// The pool at the size the selection and thread count call for (spawned
// or resized here), published as the team route; nullptr when every team
// is one thread.  Caller holds state().mutex.
thread_pool* team_pool_locked(sched_state& s) {
  const int workers = s.forked ? 0 : pool_workers_locked(s);
  // A pool worker never retires its own pool (that would join itself).
  if (s.pool && s.pool->worker_count() != workers &&
      s.pool->current_worker_id() < 0) {
    s.pool->quiesce();
    s.pool.reset();
  }
  if (!s.pool && workers > 0) s.pool = std::make_unique<thread_pool>(workers);
  g_team_pool.store(s.pool.get(), std::memory_order_release);
  g_team_ready.store(true, std::memory_order_release);
  return s.pool.get();
}

}  // namespace

sched_config parse_sched(std::string_view text, bool* ok) {
  if (ok) *ok = true;
  const std::string t = dcmesh::to_lower(dcmesh::trim(text));
  if (t.empty() || t == "serial") return {};
  sched_config cfg{sched_mode::pool, 0};
  if (t == "pool") return cfg;
  if (t.starts_with("pool:")) {
    const char* end = t.data() + t.size();
    auto [stop, ec] = std::from_chars(t.data() + 5, end, cfg.workers);
    if (ec == std::errc{} && stop == end && cfg.workers >= 1 &&
        cfg.workers <= thread_pool::kMaxWorkers) {
      return cfg;
    }
  }
  if (ok) *ok = false;
  return {};  // serial fallback, never throw
}

sched_mode active_mode() {
  sched_state& s = state();
  std::lock_guard<std::mutex> lock(s.mutex);
  resolve_locked(s);
  return s.config.mode;
}

thread_pool* active_pool() {
  sched_state& s = state();
  std::lock_guard<std::mutex> lock(s.mutex);
  resolve_locked(s);
  return s.config.mode == sched_mode::pool ? team_pool_locked(s) : nullptr;
}

void configure(sched_mode mode, int workers) {
  sched_state& s = state();
  std::lock_guard<std::mutex> lock(s.mutex);
  // The pool is resized on its next use; a matching one stays alive.
  s.config = {mode, workers};
  s.resolved = true;
  unpublish_team();
}

int thread_count() {
  sched_state& s = state();
  std::lock_guard<std::mutex> lock(s.mutex);
  return threads_locked(s);
}

void set_thread_count(int threads) {
  sched_state& s = state();
  std::lock_guard<std::mutex> lock(s.mutex);
  s.threads_override = threads < 0 ? 0 : threads;
  s.threads = 0;
  unpublish_team();
}

void reset_for_testing() {
  sched_state& s = state();
  std::lock_guard<std::mutex> lock(s.mutex);
  unpublish_team();
  if (s.pool) s.pool->quiesce();
  s.pool.reset();
  s.resolved = false;
  s.threads_override = 0;
  s.threads = 0;
}

void quiesce_active_pool() {
  sched_state& s = state();
  std::lock_guard<std::mutex> lock(s.mutex);
  if (s.pool) s.pool->quiesce();
}

std::string describe_active() {
  sched_state& s = state();
  std::lock_guard<std::mutex> lock(s.mutex);
  resolve_locked(s);
  if (s.config.mode == sched_mode::serial) return "serial";
  return "pool:" + std::to_string(pool_workers_locked(s));
}

void team_parallel_for(long n, const std::function<void(long)>& body) {
  thread_pool* pool = nullptr;
  if (n > 1) {
    if (g_team_ready.load(std::memory_order_acquire)) {
      pool = g_team_pool.load(std::memory_order_acquire);
    } else {
      sched_state& s = state();
      std::lock_guard<std::mutex> lock(s.mutex);
      pool = team_pool_locked(s);
    }
  }
  if (pool) {
    pool->parallel_for(n, body);
  } else {
    for (long i = 0; i < n; ++i) body(i);
  }
}

}  // namespace dcmesh::sched
