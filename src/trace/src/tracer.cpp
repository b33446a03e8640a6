#include "dcmesh/trace/tracer.hpp"

#include "dcmesh/trace/signal_flush.hpp"

#include "dcmesh/common/knobs.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <mutex>

namespace dcmesh::trace {
namespace {

/// Per-thread cap: a 10-step driver run on the large preset emits a few
/// hundred thousand GEMM spans at most; beyond this the thread drops
/// (counted) rather than growing without bound.
constexpr std::size_t kMaxEventsPerThread = 1 << 20;

struct thread_buffer {
  mutable std::mutex mutex;          // owner append vs. flusher snapshot
  std::vector<trace_event> events;   // guarded by mutex
  std::uint32_t tid = 0;
};

double ns_to_us(std::uint64_t ns) {
  return static_cast<double>(ns) * 1e-3;
}

/// DCMESH_TRACE_JSON value; nullptr when unset/empty.  This runs from an
/// atexit handler too, which is safe: knob entries are never destroyed.
const char* trace_env_path() {
  const auto& path = knob_value(knob::trace_json, parse_path);
  return path ? path->c_str() : nullptr;
}

std::mutex g_model_mutex;
std::function<double(const gemm_model_query&)> g_model;  // guarded above

std::atomic<std::string (*)()> g_config_line{nullptr};

}  // namespace

void append_json_escaped(std::string& out, std::string_view s) {
  for (const char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x", ch);
          out += buffer;
        } else {
          out += ch;
        }
    }
  }
}

std::optional<std::string> json_string_field(std::string_view line,
                                             std::string_view field) {
  const std::string needle = "\"" + std::string(field) + "\":\"";
  const auto pos = line.find(needle);
  if (pos == std::string_view::npos) return std::nullopt;
  std::string out;
  for (std::size_t i = pos + needle.size(); i < line.size(); ++i) {
    const char ch = line[i];
    if (ch == '"') return out;
    if (ch == '\\' && i + 1 < line.size()) {
      // The writers only escape quote/backslash/control; unescape the
      // two that can round-trip through site tags.
      const char next = line[++i];
      out += (next == 'n') ? '\n' : (next == 't') ? '\t' : next;
    } else {
      out += ch;
    }
  }
  return std::nullopt;  // unterminated string
}

std::optional<double> json_number_field(std::string_view line,
                                        std::string_view field) {
  const std::string needle = "\"" + std::string(field) + "\":";
  const auto pos = line.find(needle);
  if (pos == std::string_view::npos) return std::nullopt;
  const std::string rest(line.substr(pos + needle.size()));
  char* end = nullptr;
  const double value = std::strtod(rest.c_str(), &end);
  if (end == rest.c_str()) return std::nullopt;
  return value;
}

struct tracer::impl {
  std::chrono::steady_clock::time_point epoch;
  std::atomic<bool> forced{false};
  std::atomic<std::uint64_t> dropped{0};

  std::mutex registry_mutex;
  // shared_ptr keeps a buffer alive past its owning thread's exit so the
  // events survive until flush.
  std::vector<std::shared_ptr<thread_buffer>> buffers;  // guarded above

  std::shared_ptr<thread_buffer>& local_buffer() {
    thread_local std::shared_ptr<thread_buffer> buffer;
    if (!buffer) {
      buffer = std::make_shared<thread_buffer>();
      std::lock_guard lock(registry_mutex);
      buffer->tid = static_cast<std::uint32_t>(buffers.size() + 1);
      buffers.push_back(buffer);
    }
    return buffer;
  }
};

tracer::tracer() : impl_(new impl) {
  impl_->epoch = std::chrono::steady_clock::now();
  // Real runs (examples, the driver) get their trace without any explicit
  // flush call: write whatever is buffered when the process exits.
  std::atexit([] { tracer::instance().flush_to_env_path(); });
  // Opt-in last-gasp dump when a scheduler kills the run (SIGTERM/SIGINT
  // skip atexit); see signal_flush.hpp.
  install_signal_flush_from_env();
}

tracer& tracer::instance() {
  static tracer the_tracer;
  return the_tracer;
}

bool tracer::enabled() const {
  if (impl_->forced.load(std::memory_order_relaxed)) return true;
  return trace_env_path() != nullptr;
}

void tracer::set_enabled(bool on) {
  impl_->forced.store(on, std::memory_order_relaxed);
}

std::uint64_t tracer::now_ns() const {
  return ns_at(std::chrono::steady_clock::now());
}

std::uint64_t tracer::ns_at(std::chrono::steady_clock::time_point t) const {
  if (t < impl_->epoch) return 0;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t - impl_->epoch)
          .count());
}

void tracer::record(trace_event event) {
  auto& buffer = impl_->local_buffer();
  std::lock_guard lock(buffer->mutex);
  if (buffer->events.size() >= kMaxEventsPerThread) {
    impl_->dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  event.tid = buffer->tid;
  buffer->events.push_back(std::move(event));
}

void tracer::emit(std::string_view name, std::string_view category,
                  std::uint64_t ts_ns, std::uint64_t dur_ns,
                  std::string args_json) {
  record({std::string(name), std::string(category), ts_ns, dur_ns, 0,
          std::move(args_json)});
}

std::vector<trace_event> tracer::snapshot() const {
  std::vector<std::shared_ptr<thread_buffer>> buffers;
  {
    std::lock_guard lock(impl_->registry_mutex);
    buffers = impl_->buffers;
  }
  std::vector<trace_event> merged;
  for (const auto& buffer : buffers) {
    std::lock_guard lock(buffer->mutex);
    merged.insert(merged.end(), buffer->events.begin(),
                  buffer->events.end());
  }
  return merged;
}

std::size_t tracer::event_count() const {
  std::size_t count = 0;
  std::lock_guard lock(impl_->registry_mutex);
  for (const auto& buffer : impl_->buffers) {
    std::lock_guard buffer_lock(buffer->mutex);
    count += buffer->events.size();
  }
  return count;
}

std::uint64_t tracer::dropped_count() const {
  return impl_->dropped.load(std::memory_order_relaxed);
}

std::string tracer::to_chrome_json() const {
  const auto events = snapshot();
  std::string out = "{\"traceEvents\":[";
  char buffer[128];
  bool first = true;
  for (const auto& event : events) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":\"";
    append_json_escaped(out, event.name);
    out += "\",\"cat\":\"";
    append_json_escaped(out, event.category);
    std::snprintf(buffer, sizeof(buffer),
                  "\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,"
                  "\"tid\":%u",
                  ns_to_us(event.ts_ns), ns_to_us(event.dur_ns), event.tid);
    out += buffer;
    if (!event.args_json.empty()) {
      out += ",\"args\":{";
      out += event.args_json;
      out += '}';
    }
    out += '}';
  }
  out += "],\"displayTimeUnit\":\"ns\"}";
  return out;
}

bool tracer::write_chrome_trace(const std::string& path) const {
  std::ofstream os(path, std::ios::trunc);
  if (!os) return false;
  os << to_chrome_json() << '\n';
  return static_cast<bool>(os);
}

bool tracer::flush_to_env_path() const {
  const char* path = trace_env_path();
  if (path == nullptr) return false;
  const bool ok = write_chrome_trace(path);
  if (!ok) {
    // An unwritable DCMESH_TRACE_JSON must not abort the run (this is
    // reached from an atexit handler): one clear warning, trace dropped.
    std::fprintf(stderr,
                 "dcmesh: cannot write DCMESH_TRACE_JSON file \"%s\"; "
                 "trace discarded\n",
                 path);
  }
  return ok;
}

void tracer::clear() {
  std::lock_guard lock(impl_->registry_mutex);
  for (const auto& buffer : impl_->buffers) {
    std::lock_guard buffer_lock(buffer->mutex);
    buffer->events.clear();
  }
}

span::span(std::string_view name, std::string_view category)
    : active_(tracer::instance().enabled()) {
  if (!active_) return;
  event_.name = name;
  event_.category = category;
  event_.ts_ns = tracer::instance().now_ns();
}

span::~span() {
  if (!active_) return;
  auto& sink = tracer::instance();
  const std::uint64_t now = sink.now_ns();
  event_.dur_ns = now > event_.ts_ns ? now - event_.ts_ns : 0;
  sink.record(std::move(event_));
}

void span::arg(std::string_view key, std::string_view value) {
  if (!active_) return;
  if (!event_.args_json.empty()) event_.args_json += ',';
  event_.args_json += '"';
  append_json_escaped(event_.args_json, key);
  event_.args_json += "\":\"";
  append_json_escaped(event_.args_json, value);
  event_.args_json += '"';
}

void span::arg(std::string_view key, double value) {
  if (!active_) return;
  char buffer[48];
  std::snprintf(buffer, sizeof(buffer), "%.9g", value);
  if (!event_.args_json.empty()) event_.args_json += ',';
  event_.args_json += '"';
  append_json_escaped(event_.args_json, key);
  event_.args_json += "\":";
  event_.args_json += buffer;
}

void span::arg(std::string_view key, std::int64_t value) {
  if (!active_) return;
  if (!event_.args_json.empty()) event_.args_json += ',';
  event_.args_json += '"';
  append_json_escaped(event_.args_json, key);
  event_.args_json += "\":";
  event_.args_json += std::to_string(value);
}

bool verbose_enabled() {
  return knob_value(knob::verbose, parse_integer).value_or(0) >= 1;
}

void write_verbose_line(std::string_view line) {
  static std::once_flag config_once;
  std::call_once(config_once, [] {
    if (const auto render = g_config_line.load()) {
      std::fprintf(stderr, "%s\n", render().c_str());
    }
  });
  std::fprintf(stderr, "%.*s\n", static_cast<int>(line.size()), line.data());
}

void set_config_line(std::string (*render)()) { g_config_line.store(render); }

void set_gemm_time_model(
    std::function<double(const gemm_model_query&)> fn) {
  std::lock_guard lock(g_model_mutex);
  g_model = std::move(fn);
}

double predicted_gemm_seconds(const gemm_model_query& query) {
  std::function<double(const gemm_model_query&)> model;
  {
    std::lock_guard lock(g_model_mutex);
    model = g_model;
  }
  if (!model) return -1.0;
  return model(query);
}

}  // namespace dcmesh::trace
