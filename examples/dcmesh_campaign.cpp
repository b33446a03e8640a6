// dcmesh_campaign.cpp — the campaign farm driver: sharded precision
// sweeps over one shared wisdom store.
//
// Expands a sweep deck (or --set axes) into a run matrix, shards it over
// a bounded pool of dcehd worker processes, and writes an aggregate
// BENCH_campaign.json plus a resumable, checksummed manifest — killing
// the campaign and re-invoking the same command continues where it
// stopped, skipping completed runs.
//
// Usage:
//   dcmesh_campaign <sweep.deck> [options]
//   dcmesh_campaign --set KEY=v1,v2 [--set ...] [options]
// Options:
//   --out <dir>       campaign directory           (default campaign_out)
//   --driver <path>   dcehd-compatible binary      (default: dcehd beside
//                                                   this executable)
//   --workers <n>     worker pool size             (default: deck, else 2)
//   --timeout <sec>   per-run wall budget          (default: deck, else 300)
//   --wisdom <path>   shared wisdom store          (default <out>/wisdom.jsonl)
//   --preset <name>   base config preset           (overrides the deck's)
//   --set KEY=v1,v2   add a sweep axis (deck key or environment knob)
//   --no-scout        skip the cold-store scout run
//   --dry-run         print the run matrix and exit
//
// Example (a Table VI-style mode sweep, eight runs over four workers):
//   dcmesh_campaign --set MKL_BLAS_COMPUTE_MODE=STANDARD,FLOAT_TO_BF16X2 \
//       --set mesh_n=8,12 --set pulse_e0=0.05,0.1 --workers 4

#include <cstdio>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "dcmesh/core/presets.hpp"
#include "dcmesh/farm/report.hpp"
#include "dcmesh/farm/runner.hpp"
#include "dcmesh/farm/sweep.hpp"

namespace {

using namespace dcmesh;

int usage() {
  std::fprintf(
      stderr,
      "usage: dcmesh_campaign <sweep.deck> [options]\n"
      "       dcmesh_campaign --set KEY=v1,v2 [--set ...] [options]\n"
      "options: --out <dir> --driver <path> --workers <n> "
      "--timeout <sec>\n"
      "         --wisdom <path> --preset <name> --set KEY=v1,v2 "
      "--no-scout --dry-run\n");
  return 2;
}

/// Default driver: the dcehd binary installed beside this executable.
std::string sibling_driver(const char* argv0) {
  std::string path(argv0 != nullptr ? argv0 : "");
  const auto slash = path.find_last_of('/');
  return (slash == std::string::npos ? std::string("")
                                     : path.substr(0, slash + 1)) +
         "dcehd";
}

}  // namespace

int main(int argc, char** argv) try {
  std::optional<std::string> deck_path, preset_name;
  std::vector<std::string> set_axes;
  farm::runner_options options;
  options.out_dir = "campaign_out";
  options.workers = 0;           // 0 = deck, else 2
  options.timeout_seconds = 0;   // 0 = deck, else 300
  bool dry_run = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) throw std::runtime_error(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--out") {
      options.out_dir = next();
    } else if (arg == "--driver") {
      options.driver = next();
    } else if (arg == "--workers") {
      options.workers = std::stoi(next());
    } else if (arg == "--timeout") {
      options.timeout_seconds = std::stod(next());
    } else if (arg == "--wisdom") {
      options.wisdom = next();
    } else if (arg == "--preset") {
      preset_name = next();
    } else if (arg == "--set") {
      set_axes.push_back(next());
    } else if (arg == "--no-scout") {
      options.cold_scout = false;
    } else if (arg == "--dry-run") {
      dry_run = true;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "dcmesh_campaign: unknown option %s\n",
                   arg.c_str());
      return usage();
    } else {
      deck_path = arg;
    }
  }
  if (!deck_path && set_axes.empty()) return usage();

  farm::sweep_spec spec;
  if (deck_path) {
    spec = farm::parse_sweep_file(*deck_path);
  } else {
    spec.base = core::preset(core::paper_system::tiny);
  }
  if (preset_name) {
    bool found = false;
    for (const core::paper_system system : core::all_presets()) {
      if (core::name(system) == *preset_name) {
        spec.base = core::preset(system);
        spec.base_name = *preset_name;
        found = true;
        break;
      }
    }
    if (!found) {
      throw std::runtime_error("unknown preset '" + *preset_name + "'");
    }
  }
  for (const auto& assignment : set_axes) {
    farm::add_axis(spec, assignment);
  }
  if (options.workers == 0) {
    options.workers = spec.workers > 0 ? spec.workers : 2;
  }
  if (options.timeout_seconds == 0) {
    options.timeout_seconds =
        spec.timeout_seconds > 0 ? spec.timeout_seconds : 300.0;
  }
  if (options.driver.empty()) options.driver = sibling_driver(argv[0]);

  const std::vector<farm::campaign_run> runs = farm::expand(spec);
  if (runs.empty()) {
    std::fprintf(stderr, "dcmesh_campaign: empty run matrix\n");
    return 2;
  }

  if (dry_run) {
    std::printf("campaign: %zu runs (base %s)\n", runs.size(),
                spec.base_name.c_str());
    for (const auto& run : runs) {
      std::printf("  %s  %s\n", run.id.c_str(), run.tag.c_str());
    }
    return 0;
  }

  std::fprintf(stderr,
               "dcmesh_campaign: %zu runs over %d workers, driver %s, "
               "wisdom %s\n",
               runs.size(), options.workers, options.driver.c_str(),
               options.wisdom.empty()
                   ? (options.out_dir + "/wisdom.jsonl").c_str()
                   : options.wisdom.c_str());

  const farm::campaign_result result = farm::run_campaign(runs, options);

  std::fprintf(stderr,
               "dcmesh_campaign: %zu/%zu complete (%zu resumed, %zu "
               "failed); report: %s/BENCH_campaign.json\n",
               result.completed, result.outcomes.size(), result.resumed,
               result.failed, options.out_dir.c_str());
  return result.ok() ? 0 : 1;
} catch (const std::exception& e) {
  std::fprintf(stderr, "dcmesh_campaign: %s\n", e.what());
  return 1;
}
