#include "dcmesh/sched/task_graph.hpp"

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "dcmesh/sched/pool.hpp"
#include "dcmesh/trace/metrics.hpp"
#include "dcmesh/trace/tracer.hpp"

namespace dcmesh::sched {

namespace {

// Shared state of one pooled graph execution.  Helper stubs submitted to
// the pool hold it by shared_ptr: a stale stub that wakes after run()
// already returned finds the ready queue empty and retires touching
// nothing but this block — never the graph or the caller's frame.
struct graph_run {
  struct node_view {
    const std::string* span_name = nullptr;
    const std::function<void()>* fn = nullptr;
    const std::vector<std::size_t>* children = nullptr;
  };

  std::vector<node_view> nodes;
  thread_pool* pool = nullptr;
  std::size_t total = 0;

  std::mutex mutex;
  std::condition_variable cv;
  std::vector<int> deps;       // remaining unmet deps, guarded by mutex
  std::vector<char> poisoned;  // an ancestor failed/skipped
  std::deque<std::size_t> ready;
  std::size_t done = 0;  // executed + skipped
  std::size_t executed = 0;
  std::size_t skipped = 0;
  std::exception_ptr error;
};

// Resolve one finished (ok) or failed/skipped (!ok) node: decrement its
// children, collect the newly runnable ones, cascade skips through
// poisoned subtrees (recursion depth: the graph's depth).  Caller holds
// s.mutex.
void resolve_locked(graph_run& s, std::size_t id, bool ok,
                    std::vector<std::size_t>& newly_ready) {
  for (std::size_t child : *s.nodes[id].children) {
    if (!ok) s.poisoned[child] = 1;
    if (--s.deps[child] != 0) continue;
    if (s.poisoned[child]) {
      ++s.skipped;
      ++s.done;
      resolve_locked(s, child, false, newly_ready);
    } else {
      newly_ready.push_back(child);
    }
  }
}

// Execute one ready node if any (node body runs outside the mutex);
// false when the ready queue was empty.
bool execute_one(const std::shared_ptr<graph_run>& s) {
  std::size_t id;
  {
    std::lock_guard<std::mutex> lock(s->mutex);
    if (s->ready.empty()) return false;
    id = s->ready.front();
    s->ready.pop_front();
  }
  const graph_run::node_view& n = s->nodes[id];
  bool ok = true;
  {
    trace::span sp(*n.span_name, "sched");
    sp.arg("worker", std::int64_t{s->pool->current_worker_id()});
    try {
      (*n.fn)();
    } catch (...) {
      ok = false;
      sp.arg("failed", std::int64_t{1});
      std::lock_guard<std::mutex> lock(s->mutex);
      if (!s->error) s->error = std::current_exception();
    }
  }
  std::vector<std::size_t> newly_ready;
  bool all_done = false;
  {
    std::lock_guard<std::mutex> lock(s->mutex);
    ++s->done;
    ++s->executed;
    resolve_locked(*s, id, ok, newly_ready);
    for (std::size_t r : newly_ready) s->ready.push_back(r);
    all_done = s->done == s->total;
  }
  // The executing thread takes the first newly ready node itself on its
  // next loop; extra ones get a helper stub each so idle workers join.
  for (std::size_t i = 1; i < newly_ready.size(); ++i) {
    s->pool->submit([s] { (void)execute_one(s); });
  }
  if (!newly_ready.empty() || all_done) s->cv.notify_all();
  return true;
}

}  // namespace

task_graph::task_graph(std::string name) : name_(std::move(name)) {}

task_graph::node_id task_graph::add(std::string_view name,
                                    std::function<void()> fn,
                                    std::initializer_list<node_id> deps) {
  const node_id id = nodes_.size();
  for (node_id dep : deps) {
    if (dep >= id) {
      throw std::invalid_argument("task_graph: node \"" + std::string(name) +
                                  "\" depends on a not-yet-added node");
    }
  }
  node n;
  n.span_name.append(name_).append("/").append(name);
  n.fn = std::move(fn);
  n.dep_count = static_cast<int>(deps.size());
  nodes_.push_back(std::move(n));
  for (node_id dep : deps) nodes_[dep].children.push_back(id);
  return id;
}

void task_graph::run(thread_pool* pool) {
  failed_ = false;
  skipped_ = 0;
  if (nodes_.empty()) return;
  if (pool == nullptr || nodes_.size() == 1) {
    run_serial();
  } else {
    run_pooled(*pool);
  }
}

void task_graph::run_serial() {
  // Insertion order IS a topological order (deps precede their node by
  // construction), so one pass suffices; a failed or skipped node
  // poisons its children.  This path is the oracle the pooled schedule
  // is locked against — keep it boring.
  poisoned_.assign(nodes_.size(), 0);
  std::exception_ptr first_error;
  std::size_t executed = 0;
  for (node_id id = 0; id < nodes_.size(); ++id) {
    node& n = nodes_[id];
    bool ok = false;
    if (poisoned_[id]) {
      ++skipped_;
    } else {
      trace::span sp(n.span_name, "sched");
      sp.arg("worker", std::int64_t{-1});
      try {
        n.fn();
        ok = true;
        ++executed;
      } catch (...) {
        if (!first_error) first_error = std::current_exception();
        failed_ = true;
        sp.arg("failed", std::int64_t{1});
      }
    }
    if (!ok) {
      for (node_id child : n.children) poisoned_[child] = 1;
    }
  }
  trace::record_sched_counter("graphs");
  trace::record_sched_counter("nodes", executed);
  if (skipped_ != 0) trace::record_sched_counter("nodes_skipped", skipped_);
  if (first_error) std::rethrow_exception(first_error);
}

void task_graph::run_pooled(thread_pool& pool) {
  auto s = std::make_shared<graph_run>();
  s->pool = &pool;
  s->total = nodes_.size();
  s->nodes.reserve(nodes_.size());
  s->deps.reserve(nodes_.size());
  for (const node& n : nodes_) {
    s->nodes.push_back(
        graph_run::node_view{&n.span_name, &n.fn, &n.children});
    s->deps.push_back(n.dep_count);
  }
  s->poisoned.assign(nodes_.size(), 0);

  const std::uint64_t steals_before = pool.steal_count();
  const std::uint64_t wait_before = pool.queue_wait_ns();

  // Seed the initially runnable nodes (insertion order) and hand every
  // seed beyond the caller's first pick to a helper stub.
  std::vector<node_id> seeds;
  for (node_id id = 0; id < nodes_.size(); ++id) {
    if (s->deps[id] == 0) seeds.push_back(id);
  }
  {
    std::lock_guard<std::mutex> lock(s->mutex);
    for (node_id id : seeds) s->ready.push_back(id);
  }
  for (std::size_t i = 1; i < seeds.size(); ++i) {
    pool.submit([s] { (void)execute_one(s); });
  }

  // The caller collaborates until the graph drains.
  while (true) {
    {
      std::lock_guard<std::mutex> lock(s->mutex);
      if (s->done == s->total) break;
    }
    if (execute_one(s)) continue;
    std::unique_lock<std::mutex> lock(s->mutex);
    s->cv.wait(lock,
               [&] { return s->done == s->total || !s->ready.empty(); });
    if (s->done == s->total) break;
  }

  std::exception_ptr error;
  {
    std::lock_guard<std::mutex> lock(s->mutex);
    failed_ = s->error != nullptr;
    skipped_ = s->skipped;
    error = std::exchange(s->error, nullptr);
    trace::record_sched_counter("graphs");
    trace::record_sched_counter("nodes", s->executed);
    if (s->skipped != 0) {
      trace::record_sched_counter("nodes_skipped", s->skipped);
    }
  }
  trace::record_sched_counter("steals", pool.steal_count() - steals_before);
  trace::record_sched_counter("queue_wait_ns",
                              pool.queue_wait_ns() - wait_before);
  if (error) std::rethrow_exception(error);
}

}  // namespace dcmesh::sched
