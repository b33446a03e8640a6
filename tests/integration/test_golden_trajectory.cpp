// Golden-trajectory regression lock: the tiny preset deck, 10 QD steps,
// FP32 LFD, standard BLAS arithmetic.  The reference values below were
// produced by this exact configuration and are thread-count invariant
// (verified across OMP_NUM_THREADS = 1/3/4); the tolerances sit ~50x above
// the FP32-vs-FP64 rounding floor (ekin ~4e-7, nexc ~2e-10, javg ~4e-11)
// and well below the smallest physics-visible drift we must catch (BF16
// arithmetic moves ekin by ~1e-4, nexc by ~1e-7, javg by ~5e-9 on this
// deck).  If this test fails, a kernel/tracer/propagator change altered
// the physics — do not widen the tolerances without understanding why.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "dcmesh/blas/compute_mode.hpp"
#include "dcmesh/blas/precision_policy.hpp"
#include "dcmesh/common/env.hpp"
#include "dcmesh/core/driver.hpp"
#include "dcmesh/core/presets.hpp"
#include "dcmesh/sched/config.hpp"
#include "dcmesh/tune/autotuner.hpp"

namespace dcmesh::core {
namespace {

struct golden_step {
  double ekin;
  double nexc;
  double javg;
};

// Step-resolved {ekin, nexc, javg} for steps 1..10 of the tiny preset.
constexpr golden_step kGolden[10] = {
    {1.4817880848422647, 2.3265737114641638e-08, 0.00013757483648537289},
    {1.4820198072120547, 1.2656501247043650e-07, 0.00017339429766915034},
    {1.4823869699612260, 3.8587880824003662e-07, 0.00021661483428296409},
    {1.4828890217468143, 9.2281049335340981e-07, 0.00026724559926363860},
    {1.4835259579122066, 1.9190047177986003e-06, 0.00032468591378086219},
    {1.4842958999797702, 3.6296539862590294e-06, 0.00038757851135777949},
    {1.4851985527202487, 6.3860215195887804e-06, 0.00045370722794655066},
    {1.4862315477803349, 1.0588355335627853e-05, 0.00051996673230724475},
    {1.4873944632709026, 1.6672124825589663e-05, 0.00058243098882902213},
    {1.4886859226971865, 2.5050833368567282e-05, 0.00063653647962944059},
};

constexpr double kEkinTol = 2e-5;
constexpr double kNexcTol = 2e-8;
constexpr double kJavgTol = 2e-9;

TEST(GoldenTrajectory, TinyPresetTenStepsFp32) {
  // The lock is only valid under standard arithmetic: neutralize any
  // compute-mode / policy environment leaking into the test process.
  env_unset(blas::kPolicyEnvVar);
  env_unset("MKL_BLAS_COMPUTE_MODE");
  blas::clear_compute_mode();
  blas::clear_policy();

  run_config config = preset(paper_system::tiny);
  ASSERT_EQ(config.lfd_precision, lfd_precision_level::fp32);
  driver d(std::move(config));

  for (int step = 0; step < 10; ++step) {
    const lfd::qd_record record = d.qd_step();
    const golden_step& want = kGolden[step];
    EXPECT_NEAR(record.ekin, want.ekin, kEkinTol)
        << "ekin drift at step " << step + 1;
    EXPECT_NEAR(record.nexc, want.nexc, kNexcTol)
        << "nexc drift at step " << step + 1;
    EXPECT_NEAR(record.javg, want.javg, kJavgTol)
        << "javg drift at step " << step + 1;
  }
}

// The lock must actually be able to fail: BF16 arithmetic on the same
// deck has to land outside the tolerances (otherwise the golden test is
// vacuous and silent precision regressions would pass it).
TEST(GoldenTrajectory, Bf16TrajectoryLandsOutsideTheLock) {
  env_unset(blas::kPolicyEnvVar);
  blas::clear_policy();
  blas::set_compute_mode(blas::compute_mode::float_to_bf16);

  driver d(preset(paper_system::tiny));
  bool escaped = false;
  for (int step = 0; step < 10 && !escaped; ++step) {
    const lfd::qd_record record = d.qd_step();
    const golden_step& want = kGolden[step];
    escaped = std::abs(record.ekin - want.ekin) > kEkinTol ||
              std::abs(record.nexc - want.nexc) > kNexcTol ||
              std::abs(record.javg - want.javg) > kJavgTol;
  }
  blas::clear_compute_mode();
  EXPECT_TRUE(escaped)
      << "BF16 run stayed inside the golden tolerances; the lock is vacuous";
}

// Pooled-vs-serial determinism lock: under DCMESH_SCHED=pool the step
// scheduler runs the QD step as a task graph on the persistent pool with
// pack/compute overlap — and the trajectory must stay BIT-identical to
// the serial oracle for every compute mode.  Any tolerance here would
// hide a scheduling race; exact equality is the contract (each graph
// node writes disjoint outputs, each edge orders writer before reader).
TEST(GoldenTrajectory, PooledTrajectoryIsBitIdenticalToSerialInEveryMode) {
  env_unset(blas::kPolicyEnvVar);
  env_unset("MKL_BLAS_COMPUTE_MODE");
  env_unset(sched::kSchedEnvVar);
  blas::clear_policy();
  sched::reset_for_testing();

  constexpr blas::compute_mode kModes[] = {
      blas::compute_mode::standard,        // FP32
      blas::compute_mode::float_to_bf16x2, // BF16X2
      blas::compute_mode::float_to_bf16x3, // BF16X3
      blas::compute_mode::float_to_tf32,   // TF32
  };
  for (const blas::compute_mode mode : kModes) {
    blas::set_compute_mode(mode);

    sched::configure(sched::sched_mode::serial);
    driver serial(preset(paper_system::tiny));
    std::vector<lfd::qd_record> want;
    for (int step = 0; step < 10; ++step) want.push_back(serial.qd_step());

    sched::configure(sched::sched_mode::pool, 3);
    driver pooled(preset(paper_system::tiny));
    for (int step = 0; step < 10; ++step) {
      const lfd::qd_record got = pooled.qd_step();
      const lfd::qd_record& ref = want[static_cast<std::size_t>(step)];
      const std::string_view name = info(mode).name;
      EXPECT_EQ(got.ekin, ref.ekin) << name << " step " << step + 1;
      EXPECT_EQ(got.epot, ref.epot) << name << " step " << step + 1;
      EXPECT_EQ(got.etot, ref.etot) << name << " step " << step + 1;
      EXPECT_EQ(got.eexc, ref.eexc) << name << " step " << step + 1;
      EXPECT_EQ(got.nexc, ref.nexc) << name << " step " << step + 1;
      EXPECT_EQ(got.javg, ref.javg) << name << " step " << step + 1;
    }
    sched::reset_for_testing();
  }
  blas::clear_compute_mode();
}

// AUTO golden: under a blanket `lfd/*=auto` policy the autotuner picks
// each site's mode from the error calibration (seeded operands) and the
// xehpc roofline alone, so the per-site table and the trajectory bits are
// a pure function of the deck.  Three cold serial runs and one cold run on
// the step pool must agree bit for bit, and the table is pinned: the
// roofline prices COMPLEX_3M below STANDARD and the BF16 splits at every
// LFD CGEMM shape inside the default 1024-ULP budget.
TEST(GoldenTrajectory, AutoPolicyIsDeterministicAcrossRunsAndThreads) {
  env_unset(blas::kPolicyEnvVar);
  env_unset("MKL_BLAS_COMPUTE_MODE");
  env_unset(sched::kSchedEnvVar);
  env_unset(tune::kTuneCacheEnvVar);
  env_unset(tune::kUlpBudgetEnvVar);
  blas::clear_compute_mode();
  blas::clear_policy();
  sched::reset_for_testing();

  struct auto_run {
    std::vector<lfd::qd_record> records;
    std::vector<tune::wisdom_entry> decisions;
  };
  const auto cold_run = [](sched::sched_mode mode, int workers) {
    tune::default_tuner().clear();  // no store: every key is cold
    sched::configure(mode, workers);
    run_config config = preset(paper_system::tiny);
    config.blas_policy = "lfd/*=auto";
    driver sim(std::move(config));
    sim.run();
    auto_run out{sim.records(), tune::default_tuner().decisions()};
    sched::reset_for_testing();
    return out;
  };
  static_assert(sizeof(lfd::qd_record) == 8 * sizeof(double),
                "qd_record is compared as raw bytes");
  const auto same_bits = [](const lfd::qd_record& a, const lfd::qd_record& b) {
    return std::memcmp(&a, &b, sizeof(lfd::qd_record)) == 0;
  };

  const auto want = cold_run(sched::sched_mode::serial, 0);
  ASSERT_EQ(want.records.size(), 40u);
  const auto check = [&](const auto_run& got, const char* label) {
    ASSERT_EQ(got.records.size(), want.records.size()) << label;
    for (std::size_t i = 0; i < got.records.size(); ++i) {
      EXPECT_TRUE(same_bits(got.records[i], want.records[i]))
          << label << " record " << i;
    }
    ASSERT_EQ(got.decisions.size(), want.decisions.size()) << label;
    for (std::size_t i = 0; i < got.decisions.size(); ++i) {
      EXPECT_EQ(got.decisions[i].to_json(), want.decisions[i].to_json())
          << label;
    }
  };
  check(cold_run(sched::sched_mode::serial, 0), "serial run 2");
  check(cold_run(sched::sched_mode::serial, 0), "serial run 3");
  check(cold_run(sched::sched_mode::pool, 3), "pool:3 run");

  // decisions() is sorted by key: routine, site, shape class, budget.
  struct site_mode {
    const char* site;
    const char* cls;
    const char* mode;
  };
  constexpr site_mode kAutoGolden[] = {
      {"lfd/calc_energy/band_rot", "m4n4k4", "COMPLEX_3M"},
      {"lfd/calc_energy/kinetic", "m4n4k10", "COMPLEX_3M"},
      {"lfd/calc_energy/nonlocal", "m4n4k4", "COMPLEX_3M"},
      {"lfd/nlp_prop/overlap", "m4n4k10", "COMPLEX_3M"},
      {"lfd/nlp_prop/project", "m10n4k4", "COMPLEX_3M"},
      {"lfd/nlp_prop/subspace", "m4n4k4", "COMPLEX_3M"},
      {"lfd/remap_occ/moment1", "m2n2k3", "COMPLEX_3M"},
      {"lfd/remap_occ/moment2", "m3n2k2", "COMPLEX_3M"},
      {"lfd/remap_occ/overlap", "m2n3k10", "COMPLEX_3M"},
  };
  ASSERT_EQ(want.decisions.size(), std::size(kAutoGolden));
  for (std::size_t i = 0; i < want.decisions.size(); ++i) {
    const tune::wisdom_entry& got = want.decisions[i];
    EXPECT_EQ(got.routine, "CGEMM") << got.key();
    EXPECT_EQ(got.site, kAutoGolden[i].site) << got.key();
    EXPECT_EQ(got.cls.to_string(), kAutoGolden[i].cls) << got.key();
    EXPECT_EQ(got.mode_token, kAutoGolden[i].mode) << got.key();
    EXPECT_LE(got.err_ulp, got.ulp_budget) << got.key();
  }

  tune::default_tuner().clear();
  blas::clear_policy();
}

}  // namespace
}  // namespace dcmesh::core
