// Scheduler test tier: the persistent work-stealing pool, the task-graph
// step executor, and the DCMESH_SCHED selector.
//
//  * DAG correctness — topological execution for diamond/fan-out shapes,
//    exception propagation (failed graph, skipped dependents, pool
//    immediately reusable), reruns from a clean state, cycle prevention.
//  * Pool lifecycle — one pool reused across 100 step graphs with zero
//    thread churn (the worker-id set never grows past worker_count).
//  * Work-stealing stress — thousands of tiny unbalanced tasks across
//    pool widths 2..32; no deadlock, nothing lost.
//  * Pooled driver acceptance — a 10-step tiny-preset trajectory under
//    DCMESH_SCHED=pool is bit-identical to the serial oracle.
//  * Resilience under concurrency — a scale fault during pooled steps
//    rolls back, quiesces in-flight tasks, and converges exactly as the
//    serial resilient path does.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "dcmesh/blas/compute_mode.hpp"
#include "dcmesh/blas/precision_policy.hpp"
#include "dcmesh/common/env.hpp"
#include "dcmesh/core/driver.hpp"
#include "dcmesh/core/presets.hpp"
#include "dcmesh/resil/fault_plan.hpp"
#include "dcmesh/resil/health.hpp"
#include "dcmesh/resil/promotion.hpp"
#include "dcmesh/sched/config.hpp"
#include "dcmesh/sched/pool.hpp"
#include "dcmesh/sched/task_graph.hpp"
#include "dcmesh/trace/metrics.hpp"

namespace dcmesh::sched {
namespace {

// ---------------------------------------------------------------------------
// DCMESH_SCHED grammar

TEST(ParseSched, AcceptsTheDocumentedGrammar) {
  bool ok = false;
  sched_config cfg = parse_sched("serial", &ok);
  EXPECT_TRUE(ok);
  EXPECT_EQ(cfg.mode, sched_mode::serial);

  cfg = parse_sched("  SERIAL  ", &ok);
  EXPECT_TRUE(ok);
  EXPECT_EQ(cfg.mode, sched_mode::serial);

  cfg = parse_sched("", &ok);  // empty = default = serial
  EXPECT_TRUE(ok);
  EXPECT_EQ(cfg.mode, sched_mode::serial);

  cfg = parse_sched("pool", &ok);
  EXPECT_TRUE(ok);
  EXPECT_EQ(cfg.mode, sched_mode::pool);
  EXPECT_EQ(cfg.workers, 0);  // 0 = hardware_concurrency

  cfg = parse_sched("Pool:8", &ok);
  EXPECT_TRUE(ok);
  EXPECT_EQ(cfg.mode, sched_mode::pool);
  EXPECT_EQ(cfg.workers, 8);

  cfg = parse_sched(" pool:1 ", &ok);
  EXPECT_TRUE(ok);
  EXPECT_EQ(cfg.workers, 1);

  cfg = parse_sched("pool:256", &ok);
  EXPECT_TRUE(ok);
  EXPECT_EQ(cfg.workers, thread_pool::kMaxWorkers);
}

TEST(ParseSched, MalformedValuesFallBackToSerialWithoutThrowing) {
  const char* bad[] = {"pol",     "pool:",    "pool:0",  "pool:257",
                       "pool:-3", "pool:2x",  "pool:x2", "threads",
                       "pool 4",  "serial:2", "pool::4", "1"};
  for (const char* text : bad) {
    bool ok = true;
    const sched_config cfg = parse_sched(text, &ok);
    EXPECT_FALSE(ok) << "accepted \"" << text << '"';
    EXPECT_EQ(cfg.mode, sched_mode::serial) << text;
    EXPECT_EQ(cfg.workers, 0) << text;
  }
}

// ---------------------------------------------------------------------------
// Raw pool services

TEST(ThreadPool, SubmitRunsTheTaskAndWaitJoinsIt) {
  thread_pool pool(2);
  std::atomic<int> ran{0};
  job j = pool.submit([&] { ran.fetch_add(1); });
  ASSERT_TRUE(j.valid());
  j.wait();
  EXPECT_TRUE(j.done());
  EXPECT_EQ(ran.load(), 1);
  j.wait();  // repeat waits are fine
}

TEST(ThreadPool, SubmitExceptionIsRethrownByWaitOnce) {
  thread_pool pool(2);
  job j = pool.submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(j.wait(), std::runtime_error);
  j.wait();  // second wait returns normally (exception consumed)
  EXPECT_TRUE(j.done());
  // The pool survives a throwing task.
  job j2 = pool.submit([] {});
  j2.wait();
  EXPECT_TRUE(j2.done());
}

TEST(ThreadPool, DefaultConstructedJobIsAlreadyDone) {
  job j;
  EXPECT_FALSE(j.valid());
  EXPECT_TRUE(j.done());
  j.wait();  // no-op, must not block or throw
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  thread_pool pool(4);
  constexpr long kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  pool.parallel_for(kN, [&](long i) { hits[(std::size_t)i].fetch_add(1); });
  for (long i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[(std::size_t)i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, ParallelForRethrowsTheFirstBodyException) {
  thread_pool pool(3);
  std::atomic<long> executed{0};
  EXPECT_THROW(pool.parallel_for(64,
                                 [&](long i) {
                                   executed.fetch_add(1);
                                   if (i == 17) {
                                     throw std::runtime_error("chunk 17");
                                   }
                                 }),
               std::runtime_error);
  // No cancellation: the sweep drains fully (that is what makes the
  // failure path hang-free), so every index still executed.
  EXPECT_EQ(executed.load(), 64);
  // And the pool is immediately reusable.
  std::atomic<long> after{0};
  pool.parallel_for(16, [&](long) { after.fetch_add(1); });
  EXPECT_EQ(after.load(), 16);
}

TEST(ThreadPool, QuiesceDrainsAllSubmittedTasks) {
  thread_pool pool(4);
  std::atomic<int> done{0};
  constexpr int kTasks = 500;
  for (int i = 0; i < kTasks; ++i) {
    pool.submit([&] { done.fetch_add(1); });
  }
  pool.quiesce();
  EXPECT_EQ(done.load(), kTasks);
}

TEST(ThreadPool, WorkerIdIsStableAndForeignersGetMinusOne) {
  thread_pool pool(2);
  EXPECT_EQ(pool.current_worker_id(), -1);  // test thread is foreign
  std::atomic<int> seen_id{-2};
  pool.submit([&] { seen_id.store(pool.current_worker_id()); }).wait();
  EXPECT_GE(seen_id.load(), 0);
  EXPECT_LT(seen_id.load(), 2);
}

// ---------------------------------------------------------------------------
// Task graph

TEST(TaskGraph, DiamondExecutesInTopologicalOrder) {
  // a -> {b, c} -> d, serial and pooled: record completion stamps and
  // assert every edge ordered writer before reader.
  for (const int workers : {0, 3}) {
    thread_pool* pool = nullptr;
    std::unique_ptr<thread_pool> owned;
    if (workers > 0) {
      owned = std::make_unique<thread_pool>(workers);
      pool = owned.get();
    }
    std::atomic<int> clock{0};
    int stamp_a = -1, stamp_b = -1, stamp_c = -1, stamp_d = -1;
    task_graph g("diamond");
    const auto a = g.add("a", [&] { stamp_a = clock.fetch_add(1); });
    const auto b = g.add("b", [&] { stamp_b = clock.fetch_add(1); }, {a});
    const auto c = g.add("c", [&] { stamp_c = clock.fetch_add(1); }, {a});
    g.add("d", [&] { stamp_d = clock.fetch_add(1); }, {b, c});
    g.run(pool);
    EXPECT_FALSE(g.failed());
    EXPECT_EQ(g.skipped(), 0u);
    EXPECT_LT(stamp_a, stamp_b);
    EXPECT_LT(stamp_a, stamp_c);
    EXPECT_GT(stamp_d, stamp_b);
    EXPECT_GT(stamp_d, stamp_c);
  }
}

TEST(TaskGraph, FanOutRunsEveryIndependentNode) {
  thread_pool pool(4);
  task_graph g("fanout");
  std::atomic<int> ran{0};
  const auto root = g.add("root", [&] { ran.fetch_add(1); });
  for (int i = 0; i < 32; ++i) {
    g.add("leaf" + std::to_string(i), [&] { ran.fetch_add(1); }, {root});
  }
  g.run(&pool);
  EXPECT_EQ(ran.load(), 33);
  EXPECT_EQ(g.node_count(), 33u);
}

TEST(TaskGraph, DependencyOnUnknownNodeThrows) {
  task_graph g;
  const auto a = g.add("a", [] {});
  (void)a;
  EXPECT_THROW(g.add("b", [] {}, {static_cast<task_graph::node_id>(7)}),
               std::invalid_argument);
}

TEST(TaskGraph, RerunRunsEveryNodeAgainOnEitherExecutor) {
  // A graph built once runs any number of times, on either executor.
  thread_pool pool(3);
  task_graph g("rerun");
  std::atomic<int> clock{0};
  int stamp_a = -1, stamp_b = -1;
  const auto a = g.add("a", [&] { stamp_a = clock.fetch_add(1); });
  g.add("b", [&] { stamp_b = clock.fetch_add(1); }, {a});
  for (int run = 0; run < 6; ++run) {
    g.run(run % 2 == 0 ? nullptr : &pool);
    EXPECT_FALSE(g.failed());
    EXPECT_EQ(g.skipped(), 0u);
    EXPECT_EQ(stamp_a, 2 * run) << "run " << run;
    EXPECT_EQ(stamp_b, 2 * run + 1) << "run " << run;
  }
}

TEST(TaskGraph, ExceptionMarksFailedSkipsDependentsAndPoolSurvives) {
  thread_pool pool(3);
  for (const bool pooled : {false, true}) {
    task_graph g("failing");
    std::atomic<int> ran{0};
    bool fail = true;
    const auto a = g.add("a", [&] { ran.fetch_add(1); });
    const auto bad = g.add(
        "bad",
        [&] {
          if (fail) throw std::runtime_error("node failure");
        },
        {a});
    g.add("child-of-bad", [&] { ran.fetch_add(1); }, {bad});
    g.add("grandchild", [&] { ran.fetch_add(1); },
          {static_cast<task_graph::node_id>(2)});
    // Sibling branch unaffected by the failure: must still run (drain).
    g.add("sibling", [&] { ran.fetch_add(1); }, {a});
    EXPECT_THROW(g.run(pooled ? &pool : nullptr), std::runtime_error);
    EXPECT_TRUE(g.failed());
    EXPECT_EQ(g.skipped(), 2u) << (pooled ? "pooled" : "serial");
    EXPECT_EQ(ran.load(), 2) << (pooled ? "pooled" : "serial");

    // The same graph runs again, serially and pooled, from a clean
    // failed/skipped state.
    fail = false;
    for (thread_pool* again : {static_cast<thread_pool*>(nullptr), &pool}) {
      ran = 0;
      g.run(again);
      EXPECT_FALSE(g.failed());
      EXPECT_EQ(g.skipped(), 0u);
      EXPECT_EQ(ran.load(), 4) << (again ? "pooled rerun" : "serial rerun");
    }
  }
  // The pool took no damage: a fresh graph runs clean.
  task_graph ok("after-failure");
  std::atomic<int> n{0};
  const auto r = ok.add("r", [&] { n.fetch_add(1); });
  ok.add("s", [&] { n.fetch_add(1); }, {r});
  ok.run(&pool);
  EXPECT_FALSE(ok.failed());
  EXPECT_EQ(n.load(), 2);
}

// ---------------------------------------------------------------------------
// Pool lifecycle: persistence and zero thread churn

TEST(PoolLifecycle, HundredStepGraphsReuseTheSameWorkers) {
  constexpr int kWorkers = 4;
  thread_pool pool(kWorkers);

  // Warm up: make sure every worker has executed at least once.
  pool.parallel_for(256, [](long) {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  });
  const std::vector<std::uint64_t> warm_ids = pool.worker_thread_ids();
  EXPECT_LE(warm_ids.size(), static_cast<std::size_t>(kWorkers));

  std::atomic<long> total{0};
  for (int step = 0; step < 100; ++step) {
    task_graph g("step" + std::to_string(step));
    const auto a = g.add("pack", [&] { total.fetch_add(1); });
    const auto b = g.add("compute", [&] { total.fetch_add(1); }, {a});
    const auto c = g.add("mesh", [&] { total.fetch_add(1); }, {a});
    g.add("reduce", [&] { total.fetch_add(1); }, {b, c});
    g.run(&pool);
  }
  EXPECT_EQ(total.load(), 400);

  // Zero thread churn: after 100 graphs the set of OS threads that ever
  // ran a task is still bounded by the construction-time worker count,
  // and no warm worker was replaced.
  const std::vector<std::uint64_t> final_ids = pool.worker_thread_ids();
  EXPECT_LE(final_ids.size(), static_cast<std::size_t>(kWorkers));
  const std::set<std::uint64_t> final_set(final_ids.begin(), final_ids.end());
  for (const std::uint64_t id : warm_ids) {
    EXPECT_TRUE(final_set.count(id)) << "warm worker disappeared (churn)";
  }
  EXPECT_GT(pool.tasks_executed(), 0u);
}

// ---------------------------------------------------------------------------
// Work-stealing stress

TEST(StealStress, ThousandsOfTinyUnbalancedTasksAcrossPoolWidths) {
  for (const int workers : {2, 4, 8, 16, 32}) {
    thread_pool pool(workers);
    constexpr long kTasks = 4000;
    std::atomic<long> sum{0};
    // Deliberately unbalanced: index-dependent spin so early chunks are
    // ~100x heavier than late ones — the shape that forces stealing.
    pool.parallel_for(kTasks, [&](long i) {
      const long spin = (i % 97 == 0) ? 2000 : 20;
      for (long s = 0; s < spin; ++s) {
        asm volatile("" : : "r"(s));  // keep the spin from folding away
      }
      sum.fetch_add(i + 1, std::memory_order_relaxed);
    });
    EXPECT_EQ(sum.load(), kTasks * (kTasks + 1) / 2) << workers << " workers";

    // Nested shape: graph nodes that themselves submit; quiesce drains
    // everything without deadlock.
    std::atomic<long> nested{0};
    for (int outer = 0; outer < 64; ++outer) {
      pool.submit([&, outer] {
        for (int inner = 0; inner < 8; ++inner) {
          pool.submit([&] { nested.fetch_add(1, std::memory_order_relaxed); });
        }
        (void)outer;
      });
    }
    pool.quiesce();
    EXPECT_EQ(nested.load(), 64 * 8) << workers << " workers";
  }
}

// ---------------------------------------------------------------------------
// team_parallel_for routing (the injected worker team)

class SchedConfigTest : public ::testing::Test {
 protected:
  void SetUp() override {
    env_unset(kSchedEnvVar);
    reset_for_testing();
  }
  void TearDown() override {
    env_unset(kSchedEnvVar);
    reset_for_testing();
  }
};

TEST_F(SchedConfigTest, DefaultIsSerialAndEnvSelectsThePool) {
  EXPECT_EQ(active_mode(), sched_mode::serial);
  EXPECT_EQ(active_pool(), nullptr);
  EXPECT_EQ(describe_active(), "serial");

  reset_for_testing();
  env_set(kSchedEnvVar, "pool:3");
  EXPECT_EQ(active_mode(), sched_mode::pool);
  thread_pool* pool = active_pool();
  ASSERT_NE(pool, nullptr);
  EXPECT_EQ(pool->worker_count(), 3);
  EXPECT_EQ(describe_active(), "pool:3");
  // The pool is persistent: the same instance on every call.
  EXPECT_EQ(active_pool(), pool);
}

TEST_F(SchedConfigTest, MalformedEnvFallsBackToSerialWithoutThrowing) {
  env_set(kSchedEnvVar, "pool:zillion");
  EXPECT_NO_THROW({
    EXPECT_EQ(active_mode(), sched_mode::serial);
    EXPECT_EQ(active_pool(), nullptr);
  });
}

TEST_F(SchedConfigTest, ConfigureKeepsAMatchingPoolAlive) {
  configure(sched_mode::pool, 2);
  thread_pool* first = active_pool();
  ASSERT_NE(first, nullptr);
  configure(sched_mode::pool, 2);  // same size: no respawn
  EXPECT_EQ(active_pool(), first);
  configure(sched_mode::pool, 4);  // size change: respawn
  thread_pool* second = active_pool();
  ASSERT_NE(second, nullptr);
  EXPECT_EQ(second->worker_count(), 4);
  configure(sched_mode::serial);
  EXPECT_EQ(active_pool(), nullptr);
}

TEST_F(SchedConfigTest, TeamParallelForIsBitRouteInvariant) {
  // Same body, serial team vs pooled team: outputs must be identical
  // because chunk -> output mapping is keyed by index, not by thread.
  constexpr long kN = 513;
  std::vector<double> serial_out(kN), pooled_out(kN);
  const auto body = [](long i) {
    return std::sin(static_cast<double>(i) * 0.73) * 1.000000119;
  };

  configure(sched_mode::serial);
  team_parallel_for(kN,
                    [&](long i) { serial_out[(std::size_t)i] = body(i); });
  configure(sched_mode::pool, 4);
  team_parallel_for(kN,
                    [&](long i) { pooled_out[(std::size_t)i] = body(i); });
  for (long i = 0; i < kN; ++i) {
    ASSERT_EQ(serial_out[(std::size_t)i], pooled_out[(std::size_t)i]);
  }
}

}  // namespace
}  // namespace dcmesh::sched

// ---------------------------------------------------------------------------
// Pooled driver acceptance + resilience under concurrency

namespace dcmesh::core {
namespace {

class PooledDriverTest : public ::testing::Test {
 protected:
  void SetUp() override { reset(); }
  void TearDown() override { reset(); }
  static void reset() {
    env_unset(blas::kPolicyEnvVar);
    env_unset("MKL_BLAS_COMPUTE_MODE");
    env_unset(sched::kSchedEnvVar);
    env_unset(resil::kFaultPlanEnvVar);
    env_unset(resil::kHealthEnvVar);
    blas::clear_compute_mode();
    blas::clear_policy();
    resil::set_fault_plan(std::nullopt);
    resil::reset_fault_state();
    resil::set_health_level(std::nullopt);
    resil::clear_promotions();
    trace::clear_health_counters();
    trace::clear_sched_counters();
    sched::reset_for_testing();
  }
};

TEST_F(PooledDriverTest, TenStepTrajectoryIsBitIdenticalToSerial) {
  // Serial oracle.
  sched::configure(sched::sched_mode::serial);
  driver serial(preset(paper_system::tiny));
  std::vector<lfd::qd_record> want;
  for (int step = 0; step < 10; ++step) want.push_back(serial.qd_step());

  // Pooled run of the exact same deck.
  sched::configure(sched::sched_mode::pool, 3);
  driver pooled(preset(paper_system::tiny));
  for (int step = 0; step < 10; ++step) {
    const lfd::qd_record got = pooled.qd_step();
    const lfd::qd_record& ref = want[(std::size_t)step];
    // Bit identity, not tolerance: every graph node writes disjoint
    // outputs and every edge orders writer before reader, so the pooled
    // schedule must reproduce the serial arithmetic exactly.
    EXPECT_EQ(got.ekin, ref.ekin) << "step " << step + 1;
    EXPECT_EQ(got.epot, ref.epot) << "step " << step + 1;
    EXPECT_EQ(got.etot, ref.etot) << "step " << step + 1;
    EXPECT_EQ(got.eexc, ref.eexc) << "step " << step + 1;
    EXPECT_EQ(got.nexc, ref.nexc) << "step " << step + 1;
    EXPECT_EQ(got.javg, ref.javg) << "step " << step + 1;
    EXPECT_EQ(got.t, ref.t) << "step " << step + 1;
  }

  // The pooled steps actually ran on the graph executor.
  EXPECT_GE(trace::sched_counter("graphs"), 10u);
  EXPECT_GE(trace::sched_counter("nodes"), 100u);
}

TEST_F(PooledDriverTest, ScaleFaultUnderPoolRollsBackQuiescesAndConverges) {
  // The PR-5 resilience drill, now with the step graphs and the
  // checkpoint sealer on the pool: the rollback path must join the
  // in-flight sealer and quiesce the workers before restoring.
  blas::set_compute_mode(blas::compute_mode::float_to_bf16);
  resil::set_health_level(resil::health_level::full);
  sched::configure(sched::sched_mode::pool, 3);

  run_config config = preset(paper_system::tiny);
  config.qd_steps_per_series = 5;
  config.series = 2;

  driver reference(config);
  reference.run();
  const double clean_final_ekin = reference.records().back().ekin;
  EXPECT_EQ(reference.resilience().rollbacks, 0u);
  trace::clear_health_counters();

  resil::fault_plan plan;
  plan.rules.push_back(
      {"lfd/calc_energy/kinetic", 2, resil::fault_kind::scale, 1e5});
  resil::set_fault_plan(plan);

  driver faulty(config);
  const auto reports = faulty.run();
  resil::set_fault_plan(std::nullopt);

  const resilience_stats& stats = faulty.resilience();
  EXPECT_EQ(stats.violations, 1u);
  EXPECT_EQ(stats.rollbacks, 1u) << stats.last_violation;
  EXPECT_EQ(stats.checkpoints, 2u);
  ASSERT_EQ(reports.size(), 2u);
  EXPECT_EQ(reports[0].replays, 1);
  EXPECT_EQ(reports[1].replays, 0);

  // Converged: contiguous, finite observable log ending near the
  // fault-free pooled trajectory (replay ran precision-promoted).
  const auto& got = faulty.records();
  ASSERT_EQ(got.size(), 10u);
  for (std::size_t i = 1; i < got.size(); ++i) {
    EXPECT_TRUE(std::isfinite(got[i].ekin));
    EXPECT_GT(got[i].t, got[i - 1].t);
  }
  EXPECT_NEAR(got.back().ekin, clean_final_ekin, 5e-3);
}

TEST_F(PooledDriverTest, MetricsReportCarriesTheSchedSection) {
  sched::configure(sched::sched_mode::pool, 2);
  driver d(preset(paper_system::tiny));
  d.qd_step();
  const std::string report = trace::gemm_metrics_report();
  EXPECT_NE(report.find("sched="), std::string::npos) << report;
  EXPECT_NE(report.find("graphs:"), std::string::npos) << report;
}

}  // namespace
}  // namespace dcmesh::core
