#pragma once
// task_graph.hpp — a QD step as a dependency DAG.
//
// The engine builds its step graph once (a dozen-odd nodes: the 9 tagged
// BLAS stages, the mesh kernels, the remap_occ moments) and runs it once
// per step, either serially — insertion order, calling thread, the
// bit-exactness oracle — or on the persistent pool, where any node whose
// dependencies have retired may execute on any worker while the caller
// helps.
//
// Determinism contract: every node writes only outputs no concurrently
// runnable node touches, and each edge orders a writer before its
// readers.  Under that contract the pooled schedule is bit-identical to
// the serial one — same inputs reach every node, kernels are themselves
// deterministic — which the golden-trajectory lock asserts end to end.
//
// Failure model: a throwing node marks the run failed; its transitive
// dependents are skipped (never started), the remaining runnable nodes
// drain, and run() rethrows the first exception.  The pool is untouched
// and immediately reusable — a failed step is the resilience layer's
// problem (rollback/replay), not the scheduler's — and so is the graph:
// each run() starts from a clean failed/skipped state.
//
// Graphs are acyclic by construction: a node may only depend on
// already-added nodes.

#include <cstddef>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace dcmesh::sched {

class thread_pool;

class task_graph {
 public:
  using node_id = std::size_t;

  explicit task_graph(std::string name = "step");

  /// Add a node depending on `deps` (all must be ids returned earlier by
  /// this graph; throws std::invalid_argument otherwise).  Insertion
  /// order is the serial execution order.  The node's span is named
  /// "<graph name>/<name>".
  node_id add(std::string_view name, std::function<void()> fn,
              std::initializer_list<node_id> deps = {});

  /// Execute the graph.  pool == nullptr runs every node on the calling
  /// thread in insertion order (dependents of a failed node skipped);
  /// otherwise ready nodes are submitted to the pool and the caller
  /// collaborates.  Rethrows the first node exception after all runnable
  /// nodes have drained.  A graph may be run any number of times.
  void run(thread_pool* pool);

  [[nodiscard]] std::size_t node_count() const noexcept {
    return nodes_.size();
  }
  /// True when the last run() saw a node throw.
  [[nodiscard]] bool failed() const noexcept { return failed_; }
  /// Nodes skipped in the last run() because an ancestor failed.
  [[nodiscard]] std::size_t skipped() const noexcept { return skipped_; }

 private:
  struct node {
    std::string span_name;  ///< "<graph name>/<node name>".
    std::function<void()> fn;
    std::vector<node_id> children;
    int dep_count = 0;
  };

  void run_serial();
  void run_pooled(thread_pool& pool);

  std::string name_;
  std::vector<node> nodes_;
  std::vector<char> poisoned_;  ///< Serial run: an ancestor failed.
  bool failed_ = false;
  std::size_t skipped_ = 0;
};

}  // namespace dcmesh::sched
