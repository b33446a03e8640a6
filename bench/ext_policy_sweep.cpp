// ext_policy_sweep — the paper's stated future work ("the effects of
// running different BLAS calls at different levels of precision"), run
// through the precision-policy engine: the REAL driver runs unmodified and
// DCMESH_BLAS_POLICY alone selects which of the tagged LFD call sites
// (lfd/nlp_prop/*, lfd/calc_energy/*, lfd/remap_occ/*) drop to BF16 — the
// paper's "no source changes, only environment variables" property
// extended to per-call granularity.
//
// Three parts:
//   1. the sweep: one policy per site family, deviations vs the FP32 run;
//   2. JSONL audit: MKL_VERBOSE_JSON proves only the targeted sites ran
//      at the alternative mode;
//   3. guarded demo: a blanket guarded BF16 policy with a tight tolerance
//      shows the accuracy-guarded fallback promoting call sites.

#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "accuracy_common.hpp"
#include "dcmesh/blas/precision_policy.hpp"
#include "dcmesh/blas/verbose.hpp"
#include "dcmesh/common/env.hpp"
#include "dcmesh/common/stats.hpp"
#include "dcmesh/trace/metrics.hpp"

namespace {

using namespace dcmesh;

/// Run the real driver under one DCMESH_BLAS_POLICY value (empty = none).
std::vector<lfd::qd_record> run_policy(const core::run_config& config,
                                       const std::string& policy) {
  if (policy.empty()) {
    env_unset(blas::kPolicyEnvVar);
  } else {
    env_set(blas::kPolicyEnvVar, policy);
  }
  core::driver sim(config);
  sim.run();
  env_unset(blas::kPolicyEnvVar);
  return sim.records();
}

/// Part 2: rerun the remap_occ policy with the JSONL sink attached and
/// count, per site family and mode, what actually executed.
void audit_with_json(const core::run_config& config) {
  const std::string path = "ext_policy_sweep_audit.jsonl";
  std::remove(path.c_str());
  env_set(blas::kVerboseJsonEnvVar, path);
  run_policy(config, "lfd/remap_occ/*=FLOAT_TO_BF16");
  env_unset(blas::kVerboseJsonEnvVar);

  std::ifstream in(path);
  std::map<std::string, std::size_t> counts;  // "family @ mode" -> calls
  for (std::string line; std::getline(in, line);) {
    const auto site_pos = line.find("\"site\":\"");
    const auto mode_pos = line.find("\"mode\":\"");
    if (site_pos == std::string::npos || mode_pos == std::string::npos) {
      continue;
    }
    std::string site = line.substr(site_pos + 8);
    site = site.substr(0, site.find('"'));
    std::string mode = line.substr(mode_pos + 8);
    mode = mode.substr(0, mode.find('"'));
    // Collapse "lfd/remap_occ/overlap" -> "lfd/remap_occ/*".
    const auto last_slash = site.rfind('/');
    const std::string family =
        site.empty() ? "(untagged)"
                     : site.substr(0, last_slash) + "/*";
    ++counts[family + " @ " + mode];
  }
  std::remove(path.c_str());

  std::printf("\nJSONL audit of the lfd/remap_occ/*=FLOAT_TO_BF16 run\n");
  std::printf("(every BLAS call in the run, grouped by site family):\n\n");
  text_table table({"Site family @ executed mode", "Calls"});
  for (const auto& [key, n] : counts) {
    table.add_row({key, std::to_string(n)});
  }
  table.print();
  std::printf(
      "\nOnly lfd/remap_occ/* appears at FLOAT_TO_BF16; every other call "
      "— including the FP64 SCF path — kept standard arithmetic.\n");
}

/// Part 3: blanket guarded BF16 over all LFD sites with a tight tolerance;
/// the guard promotes the sites whose sampled residual exceeds it.
void guarded_demo(const core::run_config& config) {
  blas::clear_fallback_stats();
  run_policy(config, "lfd/*=FLOAT_TO_BF16:tol=1e-4");

  std::printf("\nGuarded fallback: lfd/*=FLOAT_TO_BF16:tol=1e-4\n\n");
  text_table table({"Site", "Guarded calls", "Promotions", "Final mode",
                    "Last residual"});
  for (const auto& [site, stats] : blas::fallback_stats()) {
    table.add_row({site, std::to_string(stats.guarded_calls),
                   std::to_string(stats.promotions),
                   std::string(blas::name(stats.last_mode)),
                   fmt_sci(stats.last_residual)});
  }
  table.print();
  std::printf(
      "\nSites whose BF16 residual beat the tolerance stayed at BF16; the "
      "rest were transparently re-run up the ladder (BF16 -> TF32 -> "
      "BF16x2 -> BF16x3 -> FP32) until they passed.\n");
  blas::clear_fallback_stats();
}

int run(int argc, char** argv) {
  const int steps = bench::parse_steps(argc, argv, 100);
  bench::banner("Extension (policy engine)",
                "Per-call-site precision via DCMESH_BLAS_POLICY alone");

  auto config = bench::accuracy_config(steps, 1);

  struct sweep_case {
    const char* label;
    std::string policy;
  };
  const sweep_case cases[] = {
      {"all FP32 (reference)", ""},
      {"lfd/nlp_prop/* @ BF16", "lfd/nlp_prop/*=FLOAT_TO_BF16"},
      {"lfd/calc_energy/* @ BF16", "lfd/calc_energy/*=FLOAT_TO_BF16"},
      {"lfd/remap_occ/* @ BF16", "lfd/remap_occ/*=FLOAT_TO_BF16"},
      {"lfd/* @ BF16", "lfd/*=FLOAT_TO_BF16"},
  };

  std::vector<std::vector<lfd::qd_record>> runs;
  for (const auto& c : cases) {
    std::fprintf(stderr, "  running %s...\n", c.label);
    runs.push_back(run_policy(config, c.policy));
  }

  const auto column = [&](std::size_t r, const char* col) {
    return core::extract_column(runs[r], col);
  };
  text_table table({"Policy", "max dev ekin", "max dev nexc"});
  for (std::size_t r = 1; r < std::size(cases); ++r) {
    table.add_row({cases[r].label,
                   fmt_sci(max_abs_deviation(column(r, "ekin"),
                                             column(0, "ekin"))),
                   fmt_sci(max_abs_deviation(column(r, "nexc"),
                                             column(0, "nexc")))});
  }
  table.print();
  std::printf(
      "\nReading: each row isolates one site family's accuracy impact; the "
      "selection is made by the policy engine against the engine's own "
      "tagged calls — no harness code, just DCMESH_BLAS_POLICY.\n");

  audit_with_json(config);
  guarded_demo(config);

  std::printf("\nPer-site GEMM counters (whole sweep):\n%s",
              trace::gemm_metrics_report().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return run(argc, argv); }
