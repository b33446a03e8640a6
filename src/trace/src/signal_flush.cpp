#include "dcmesh/trace/signal_flush.hpp"

#include <atomic>
#include <csignal>

#include "dcmesh/common/knobs.hpp"
#include "dcmesh/trace/tracer.hpp"

namespace dcmesh::trace {
namespace {

std::atomic<bool> g_installed{false};

extern "C" void dcmesh_trace_signal_handler(int sig) {
  // Best-effort: flush whatever is buffered, then die by the signal so
  // the parent/scheduler still sees a signal exit.
  tracer::instance().flush_to_env_path();
  std::signal(sig, SIG_DFL);
  std::raise(sig);
}

}  // namespace

void install_signal_flush() {
  if (g_installed.exchange(true)) return;
  std::signal(SIGTERM, &dcmesh_trace_signal_handler);
  std::signal(SIGINT, &dcmesh_trace_signal_handler);
}

bool install_signal_flush_from_env() {
  if (knob_value(knob::trace_flush_on_signal, parse_switch).value_or(false)) {
    install_signal_flush();
  }
  return signal_flush_installed();
}

bool signal_flush_installed() noexcept {
  return g_installed.load(std::memory_order_relaxed);
}

}  // namespace dcmesh::trace
