#include "dcmesh/farm/runner.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <stdexcept>

#include "dcmesh/blas/verbose.hpp"           // kVerboseJsonEnvVar
#include "dcmesh/common/env.hpp"
#include "dcmesh/common/knobs.hpp"
#include "dcmesh/farm/manifest.hpp"
#include "dcmesh/farm/report.hpp"
#include "dcmesh/trace/tracer.hpp"    // json_string_field
#include "dcmesh/tune/autotuner.hpp"  // kTuneCacheEnvVar, kCalibrationSite

namespace dcmesh::farm {
namespace {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void make_dir(const std::string& path) {
  if (::mkdir(path.c_str(), 0755) == 0 || errno == EEXIST) return;
  throw std::runtime_error("cannot create directory " + path + ": " +
                           std::strerror(errno));
}

bool file_exists(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0;
}

/// One pool slot.
struct active_worker {
  pid_t pid = -1;
  std::size_t run_index = 0;
  double started = 0.0;
  bool kill_armed = false;   ///< Matched the farm fault plan.
  bool farm_killed = false;  ///< SIGKILLed by the plan.
  bool timed_out = false;    ///< SIGKILLed by the timeout.
};

/// fork + exec one run.  Returns -1 when the fork itself fails.
pid_t spawn_run(const campaign_run& run, const std::string& run_dir,
                const runner_options& options) {
  // Fresh verbose stream per attempt: the sink appends, and a retried
  // run must not double-count its previous attempt's records.
  const std::string verbose_path = run_dir + "/verbose.jsonl";
  std::remove(verbose_path.c_str());

  const std::string deck_path = run_dir + "/deck.in";
  {
    std::ofstream deck(deck_path);
    deck << run.deck;
    if (!deck) return -1;
  }

  const pid_t pid = ::fork();
  if (pid != 0) return pid;

  // Child: plumbing only, then exec (async-signal-safe enough — the
  // parent is single-threaded while spawning).
  const int out = ::open((run_dir + "/stdout.log").c_str(),
                         O_WRONLY | O_CREAT | O_TRUNC, 0644);
  const int err = ::open((run_dir + "/stderr.log").c_str(),
                         O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (out >= 0) ::dup2(out, STDOUT_FILENO);
  if (err >= 0) ::dup2(err, STDERR_FILENO);

  env_set(tune::kTuneCacheEnvVar, options.wisdom);
  env_set("MKL_VERBOSE", "1");
  env_set(blas::kVerboseJsonEnvVar, verbose_path);
  // The farm plan is the PARENT'S fault injector; a worker must not
  // re-trigger engine-level plans meant for the farm.
  env_unset(row(knob::farm_kill).name);
  for (const auto& [key, value] : run.env) env_set(key, value);

  const char* argv[] = {options.driver.c_str(), deck_path.c_str(),
                        nullptr};
  ::execv(options.driver.c_str(), const_cast<char**>(argv));
  std::fprintf(stderr, "dcmesh-farm: cannot exec %s: %s\n",
               options.driver.c_str(), std::strerror(errno));
  ::_exit(127);
}

}  // namespace

std::optional<kill_plan> parse_kill_plan(std::string_view text) {
  kill_plan plan;
  const auto colon = text.rfind(':');
  plan.glob = std::string(text.substr(0, colon));  // bare glob: kill at once
  if (colon != std::string_view::npos) {
    const std::string seconds(text.substr(colon + 1));
    char* end = nullptr;
    plan.after_seconds = std::strtod(seconds.c_str(), &end);
    if (seconds.empty() || *end != '\0' || !(plan.after_seconds >= 0)) {
      return std::nullopt;
    }
  }
  if (plan.glob.empty()) return std::nullopt;
  return plan;
}

run_counters parse_run_counters(const std::string& path) {
  run_counters counters;
  std::ifstream in(path);
  if (!in.is_open()) return counters;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    ++counters.gemm_records;
    if (const auto site = trace::json_string_field(line, "site");
        site && *site == tune::kCalibrationSite) {
      ++counters.calibration_gemms;
    }
    if (const auto tune_tag = trace::json_string_field(line, "tune")) {
      ++counters.tune[*tune_tag];
    }
    if (const auto health_tag = trace::json_string_field(line, "health")) {
      ++counters.health[*health_tag];
    }
  }
  return counters;
}

campaign_result run_campaign(const std::vector<campaign_run>& runs,
                             runner_options const& options_in) {
  runner_options options = options_in;
  if (options.driver.empty() || !file_exists(options.driver)) {
    throw std::runtime_error("campaign driver not found: " +
                             options.driver);
  }
  if (options.out_dir.empty()) {
    throw std::runtime_error("campaign output directory not set");
  }
  if (options.workers < 1) options.workers = 1;
  make_dir(options.out_dir);
  make_dir(options.out_dir + "/runs");
  if (options.wisdom.empty()) {
    options.wisdom = options.out_dir + "/wisdom.jsonl";
  }
  if (options.report.empty()) {
    options.report = options.out_dir + "/BENCH_campaign.json";
  }
  const std::string manifest_path = options.out_dir + "/manifest.jsonl";

  campaign_result result;
  result.outcomes.reserve(runs.size());
  for (const auto& run : runs) {
    run_outcome outcome;
    outcome.run = run;
    outcome.status = "pending";
    result.outcomes.push_back(std::move(outcome));
  }

  // Resume: adopt every run the manifest already records as complete.
  const campaign_manifest manifest = load_manifest(manifest_path);
  std::vector<std::size_t> pending;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const manifest_entry* prior =
        manifest.version_ok ? manifest.find(runs[i].id) : nullptr;
    if (prior != nullptr && prior->completed()) {
      auto& outcome = result.outcomes[i];
      outcome.status = prior->status;
      outcome.resumed = true;
      outcome.exit_code = prior->exit_code;
      outcome.seconds = prior->seconds;
      outcome.counters = parse_run_counters(options.out_dir + "/runs/" +
                                            runs[i].id + "/verbose.jsonl");
      ++result.completed;
      ++result.resumed;
      if (!options.quiet) {
        std::fprintf(stderr, "dcmesh-farm: %s already complete (resumed)\n",
                     runs[i].id.c_str());
      }
    } else {
      pending.push_back(i);
    }
  }

  const std::optional<kill_plan> plan =
      knob_value(knob::farm_kill, parse_kill_plan);
  bool kill_spent = false;

  // Cold scout: with an empty store, the first pending run goes alone.
  bool scouting = options.cold_scout && !pending.empty() &&
                  pending.size() > 1 && options.workers > 1 &&
                  !file_exists(options.wisdom);
  if (scouting && !options.quiet) {
    std::fprintf(stderr,
                 "dcmesh-farm: wisdom store is cold; scouting %s alone\n",
                 runs[pending.front()].id.c_str());
  }

  std::vector<active_worker> active;
  std::size_t next_pending = 0;

  const auto finish = [&](active_worker& worker, const std::string& status,
                          int exit_code) {
    auto& outcome = result.outcomes[worker.run_index];
    outcome.status = status;
    outcome.exit_code = exit_code;
    outcome.seconds = now_seconds() - worker.started;
    outcome.counters =
        parse_run_counters(options.out_dir + "/runs/" + outcome.run.id +
                           "/verbose.jsonl");
    if (status == "ok") {
      ++result.completed;
    } else {
      ++result.failed;
    }
    manifest_entry entry;
    entry.run_id = outcome.run.id;
    entry.status = status;
    entry.exit_code = exit_code;
    entry.seconds = outcome.seconds;
    entry.calibration_gemms = outcome.counters.calibration_gemms;
    if (!record_run(manifest_path, entry)) {
      std::fprintf(stderr, "dcmesh-farm: cannot write manifest %s\n",
                   manifest_path.c_str());
    }
    // Keep the on-disk report valid after every run, not just at the
    // end — this is what a killed campaign's post-mortem reads.
    (void)write_report(options.report, result, options);
    if (!options.quiet) {
      std::fprintf(stderr,
                   "dcmesh-farm: %s %s (%.2f s, %llu gemms, %llu "
                   "calibration)\n",
                   outcome.run.id.c_str(), status.c_str(), outcome.seconds,
                   static_cast<unsigned long long>(
                       outcome.counters.gemm_records),
                   static_cast<unsigned long long>(
                       outcome.counters.calibration_gemms));
    }
  };

  while (next_pending < pending.size() || !active.empty()) {
    // Fill the pool (one slot total while the scout runs).
    const std::size_t slots =
        scouting ? 1 : static_cast<std::size_t>(options.workers);
    while (next_pending < pending.size() && active.size() < slots) {
      const std::size_t run_index = pending[next_pending++];
      const campaign_run& run = runs[run_index];
      const std::string run_dir = options.out_dir + "/runs/" + run.id;
      make_dir(run_dir);
      active_worker worker;
      worker.run_index = run_index;
      worker.started = now_seconds();
      worker.kill_armed =
          plan && !kill_spent &&
          (glob_match(plan->glob, run.id) ||
           glob_match(plan->glob, run.tag));
      if (worker.kill_armed) kill_spent = true;  // plan fires once
      worker.pid = spawn_run(run, run_dir, options);
      if (worker.pid < 0) {
        if (scouting && run_index == pending.front()) scouting = false;
        finish(worker, "crashed", -1);
        continue;
      }
      active.push_back(worker);
    }

    // Sweep the pool.
    for (std::size_t i = 0; i < active.size();) {
      active_worker& worker = active[i];
      int status = 0;
      const pid_t got = ::waitpid(worker.pid, &status, WNOHANG);
      if (got == worker.pid) {
        if (worker.run_index == pending.front() && scouting) {
          scouting = false;  // store is warm (or the scout failed; either
                             // way the pool may fan out now)
        }
        if (WIFEXITED(status)) {
          const int code = WEXITSTATUS(status);
          finish(worker, code == 0 ? "ok" : "unrecovered", code);
        } else {
          const int sig = WIFSIGNALED(status) ? WTERMSIG(status) : 0;
          finish(worker,
                 worker.timed_out ? "timed-out" : "crashed", -sig);
        }
        active.erase(active.begin() + static_cast<std::ptrdiff_t>(i));
        continue;
      }
      const double alive = now_seconds() - worker.started;
      if (worker.kill_armed && !worker.farm_killed &&
          alive >= (plan ? plan->after_seconds : 0.0)) {
        worker.farm_killed = true;
        if (!options.quiet) {
          std::fprintf(stderr,
                       "dcmesh-farm: fault plan killing %s after %.2f s\n",
                       runs[worker.run_index].id.c_str(), alive);
        }
        ::kill(worker.pid, SIGKILL);
      } else if (!worker.timed_out && !worker.farm_killed &&
                 alive > options.timeout_seconds) {
        worker.timed_out = true;
        std::fprintf(stderr,
                     "dcmesh-farm: %s exceeded the %g s timeout; "
                     "killing it\n",
                     runs[worker.run_index].id.c_str(),
                     options.timeout_seconds);
        ::kill(worker.pid, SIGKILL);
      }
      ++i;
    }
    // Poll every 20 ms, but wake at the next timeout or fault-plan
    // deadline: a run that overstays a budget shorter than the poll
    // interval must be killed, not reaped as "ok" on the next sweep.
    if (!active.empty()) {
      const double now = now_seconds();
      double wait = 0.02;
      for (const active_worker& worker : active) {
        double deadline = worker.started + options.timeout_seconds;
        if (worker.kill_armed && !worker.farm_killed && plan) {
          deadline = std::min(deadline, worker.started + plan->after_seconds);
        }
        if (!worker.timed_out && !worker.farm_killed) {
          wait = std::min(wait, deadline - now);
        }
      }
      if (wait > 0) ::usleep(static_cast<useconds_t>(wait * 1e6) + 1);
    }
  }

  (void)write_report(options.report, result, options);
  return result;
}

}  // namespace dcmesh::farm
