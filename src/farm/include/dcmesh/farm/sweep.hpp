#pragma once
// sweep.hpp — campaign sweep specification and run-matrix expansion.
//
// The paper's central experiment is a sweep: the same DCMESH system run
// across BLAS precision configurations and compared.  A sweep deck uses
// the familiar "key = value" deck syntax with one extension — a value
// may be a comma-separated list, which makes the key an AXIS:
//
//   preset = tiny
//   mesh_n = 8, 12
//   pulse_e0 = 0.05, 0.1
//   MKL_BLAS_COMPUTE_MODE = STANDARD, FLOAT_TO_BF16X2
//
// expands to the 2x2x2 cartesian product: eight runs, each a complete
// run deck plus a per-run environment.  Keys named in the knob table
// (knobs.hpp: compute mode, policy, fault plan, sched mode, thread
// counts — the knobs that are deliberately NOT deck keys, per the
// paper's no-source-change property) sweep environment variables, each
// value checked against the knob's grammar at expansion; any other key
// with a DCMESH_ / MKL_ / OMP_ prefix fails expansion as an unknown
// knob; every other key must be a valid run-deck key and sweeps the
// deck.  Single-valued keys simply pin that knob for every run.
//
// Expansion is deterministic (axis declaration order, first axis slowest)
// and run ids are stable across invocations — the campaign manifest
// keys on them to skip completed runs on resume.

#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "dcmesh/core/config.hpp"

namespace dcmesh::farm {

/// One sweep axis: a deck key or an environment variable, with the
/// values it takes.
struct sweep_axis {
  std::string key;     ///< Deck key (lower-case) or env var (UPPER_CASE).
  bool is_env = false; ///< True = per-run environment, not deck text.
  std::vector<std::string> values;
};

/// A parsed sweep deck.
struct sweep_spec {
  core::run_config base = {};  ///< Base configuration axes override.
  std::string base_name = "tiny";  ///< Preset name or deck path (report).
  std::vector<sweep_axis> axes;
  int workers = 0;             ///< `workers =` key (0 = caller decides).
  double timeout_seconds = 0;  ///< `timeout =` key (0 = caller decides).
};

/// One cell of the expanded run matrix.
struct campaign_run {
  std::string id;    ///< Stable id, "run-0000" ... (manifest key).
  std::string tag;   ///< Human axis assignment, "mesh_n=8,mode=...".
  std::string deck;  ///< Complete run-deck text for this cell.
  std::vector<std::pair<std::string, std::string>> env;  ///< Per-run env.
};

/// Parse a sweep deck.  Malformed lines, unknown deck keys, and invalid
/// base configs throw std::runtime_error naming the line.
[[nodiscard]] sweep_spec parse_sweep(std::istream& in);

/// Parse a sweep deck from a file path.
[[nodiscard]] sweep_spec parse_sweep_file(const std::string& path);

/// Add one axis from a "KEY=v1,v2,..." CLI argument (--set).  Throws
/// std::runtime_error on malformed input.
void add_axis(sweep_spec& spec, const std::string& assignment);

/// Expand the cartesian product into the run matrix.  Every env axis is
/// checked against the knob table and every cell's deck is round-tripped
/// through the run-deck parser, so an invalid combination fails here,
/// before any process is spawned.
[[nodiscard]] std::vector<campaign_run> expand(const sweep_spec& spec);

}  // namespace dcmesh::farm
