#include "casa/obs/tracer.hpp"

#include <algorithm>
#include <cstdio>
#include <ostream>
#include <thread>

#include "casa/fault/fault.hpp"
#include "casa/obs/build_info.hpp"
#include "casa/obs/export.hpp"
#include "casa/obs/trace_names.hpp"
#include "casa/support/thread_pool.hpp"

namespace casa::obs {

namespace {

std::atomic<Tracer*> g_current_tracer{nullptr};

/// The thread that runs static initialization, which is the process's main
/// thread: its unnamed track reads "main" whichever thread registers first.
const std::thread::id g_main_thread = std::this_thread::get_id();

/// Each Tracer instance gets a unique generation, so a thread's cached
/// buffer pointer can never be mistaken for one belonging to a different
/// (possibly destroyed) tracer.
std::atomic<std::uint64_t> g_next_generation{1};

struct TlsBufferCache {
  std::uint64_t generation = 0;  ///< most recently used tracer
  void* buffer = nullptr;
  /// Buffers for the other live tracers this thread has recorded into, so a
  /// thread alternating between tracers reuses its per-tracer buffer instead
  /// of registering a fresh track (and ring allocation) on every switch.
  /// Entries for destroyed tracers are inert: generations are never reused.
  std::vector<std::pair<std::uint64_t, void*>> cold;
};

TlsBufferCache& tls_cache() {
  thread_local TlsBufferCache cache;
  return cache;
}

/// Microseconds with exactly three decimals: the nanosecond value
/// round-trips through the Chrome-required microsecond ts losslessly.
std::string ts_micros(std::uint64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%llu.%03llu",
                static_cast<unsigned long long>(ns / 1000),
                static_cast<unsigned long long>(ns % 1000));
  return buf;
}

}  // namespace

const char* to_string(TraceEventKind kind) {
  switch (kind) {
    case TraceEventKind::kBegin:
      return "B";
    case TraceEventKind::kEnd:
      return "E";
    case TraceEventKind::kInstant:
      return "i";
    case TraceEventKind::kCounter:
      return "C";
    case TraceEventKind::kFlowBegin:
      return "s";
    case TraceEventKind::kFlowEnd:
      return "f";
  }
  return "?";
}

struct Tracer::ThreadBuffer {
  explicit ThreadBuffer(std::size_t capacity) : slots(capacity) {}

  std::uint32_t tid = 0;
  int worker_index = -1;
  std::string label;
  std::vector<TraceEvent> slots;
  /// Published event count. The producer fills slots[head] and then
  /// release-stores head+1; drain() acquire-loads it and reads only
  /// completed slots. Published slots are never rewritten (drop-newest).
  std::atomic<std::size_t> head{0};
  std::atomic<std::uint64_t> dropped{0};
};

Tracer::Tracer(TracerOptions opt)
    : opt_(opt),
      clock_(opt.clock != nullptr ? opt.clock : &steady_clock()),
      generation_(g_next_generation.fetch_add(1, std::memory_order_relaxed)) {}

Tracer::~Tracer() {
  // Defensive: a tracer must be detached (and its producers quiesced)
  // before destruction; make sure a dangling global can't outlive us.
  Tracer* self = this;
  g_current_tracer.compare_exchange_strong(self, nullptr,
                                           std::memory_order_acq_rel);
}

Tracer* Tracer::current() {
  return g_current_tracer.load(std::memory_order_acquire);
}

void Tracer::set_current(Tracer* tracer) {
  g_current_tracer.store(tracer, std::memory_order_release);
}

Tracer::ThreadBuffer* Tracer::buffer_for_this_thread() {
  const std::lock_guard<std::mutex> lock(mu_);
  auto buf = std::make_unique<ThreadBuffer>(opt_.buffer_capacity);
  buf->tid = static_cast<std::uint32_t>(buffers_.size());
  const support::ThreadIdent& ident = support::this_thread_ident();
  buf->worker_index = ident.worker_index;
  buf->label = !ident.name.empty() ? ident.name
               : std::this_thread::get_id() == g_main_thread
                   ? std::string("main")
                   : "thread-" + std::to_string(buf->tid);
  buffers_.push_back(std::move(buf));
  return buffers_.back().get();
}

Tracer::ThreadBuffer* Tracer::this_thread_buffer() {
  TlsBufferCache& cache = tls_cache();
  if (cache.generation != generation_) {
    void* found = nullptr;
    for (auto& entry : cache.cold) {
      if (entry.first == generation_) {
        found = entry.second;
        entry = {cache.generation, cache.buffer};  // demote the hot pair
        break;
      }
    }
    if (found == nullptr) {
      found = buffer_for_this_thread();
      if (cache.buffer != nullptr) {
        cache.cold.emplace_back(cache.generation, cache.buffer);
      }
    }
    cache.buffer = found;
    cache.generation = generation_;
  }
  return static_cast<ThreadBuffer*>(cache.buffer);
}

void Tracer::ensure_track() { this_thread_buffer(); }

void Tracer::record(TraceEventKind kind, std::string_view name,
                    std::string_view cat, std::uint64_t flow_id,
                    double value) {
  ThreadBuffer* const buf = this_thread_buffer();
  const std::size_t head = buf->head.load(std::memory_order_relaxed);
  if (head == buf->slots.size()) {
    buf->dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  TraceEvent& e = buf->slots[head];
  e.kind = kind;
  e.tid = buf->tid;
  e.ts_ns = clock_->now_ns();
  e.flow_id = flow_id;
  e.value = value;
  e.name.assign(name.data(), name.size());
  e.cat.assign(cat.data(), cat.size());
  buf->head.store(head + 1, std::memory_order_release);
}

void Tracer::begin(std::string_view name, std::string_view cat) {
  record(TraceEventKind::kBegin, name, cat, 0, 0.0);
}

void Tracer::end(std::string_view name, std::string_view cat) {
  record(TraceEventKind::kEnd, name, cat, 0, 0.0);
}

void Tracer::instant(std::string_view name, double value,
                     std::string_view cat) {
  record(TraceEventKind::kInstant, name, cat, 0, value);
}

void Tracer::counter(std::string_view name, double value) {
  record(TraceEventKind::kCounter, name, "counter", 0, value);
}

std::uint64_t Tracer::flow_begin(std::string_view name,
                                 std::string_view cat) {
  const std::uint64_t id = next_flow_.fetch_add(1, std::memory_order_relaxed);
  record(TraceEventKind::kFlowBegin, name, cat, id, 0.0);
  return id;
}

void Tracer::flow_end(std::string_view name, std::uint64_t id,
                      std::string_view cat) {
  record(TraceEventKind::kFlowEnd, name, cat, id, 0.0);
}

TraceData Tracer::drain() const {
  TraceData data;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    for (const auto& buf : buffers_) {
      data.tracks.push_back(
          TraceTrack{buf->tid, buf->worker_index, buf->label});
      const std::size_t n = buf->head.load(std::memory_order_acquire);
      for (std::size_t i = 0; i < n; ++i) {
        data.events.push_back(buf->slots[i]);
      }
      data.dropped += buf->dropped.load(std::memory_order_relaxed);
    }
  }
  if (!data.events.empty()) {
    std::uint64_t base = data.events.front().ts_ns;
    for (const TraceEvent& e : data.events) base = std::min(base, e.ts_ns);
    for (TraceEvent& e : data.events) e.ts_ns -= base;
  }
  // Buffers concatenate in tid order, so a stable sort on (ts, tid) keeps
  // each thread's events in record order even under timestamp ties (a
  // FakeClock that never advances, say).
  std::stable_sort(data.events.begin(), data.events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.ts_ns != b.ts_ns ? a.ts_ns < b.ts_ns
                                               : a.tid < b.tid;
                   });
  return data;
}

std::uint64_t Tracer::dropped() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t total = 0;
  for (const auto& buf : buffers_) {
    total += buf->dropped.load(std::memory_order_relaxed);
  }
  return total;
}

TraceSpan::TraceSpan(Tracer* tracer, std::string_view name,
                     std::string_view cat, std::uint64_t flow_id)
    : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  name_.assign(name.data(), name.size());
  cat_.assign(cat.data(), cat.size());
  if (flow_id != 0) tracer_->flow_end(name_, flow_id, "flow");
  tracer_->begin(name_, cat_);
}

TraceSpan::~TraceSpan() {
  if (tracer_ != nullptr) tracer_->end(name_, cat_);
}

void write_trace_json(std::ostream& os, const TraceData& data,
                      std::string_view tool) {
  const BuildInfo& build = build_info();
  os << "{\n";
  os << "  \"schema\": \"casa-trace v1\",\n";
  os << "  \"run\": {\n";
  os << "    \"tool\": \"" << json_escape(tool) << "\",\n";
  os << "    \"git\": \"" << json_escape(build.git_describe) << "\",\n";
  os << "    \"build_type\": \"" << json_escape(build.build_type) << "\",\n";
  os << "    \"cxx_flags\": \"" << json_escape(build.cxx_flags) << "\",\n";
  os << "    \"compiler\": \"" << json_escape(build.compiler) << "\"\n";
  os << "  },\n";
  os << "  \"displayTimeUnit\": \"ms\",\n";
  os << "  \"dropped\": " << data.dropped << ",\n";
  os << "  \"traceEvents\": [";
  bool first = true;
  const auto sep = [&os, &first] {
    os << (first ? "\n" : ",\n") << "    ";
    first = false;
  };
  sep();
  os << R"({"name": "process_name", "ph": "M", "pid": 1, "tid": 0, )"
     << R"("args": {"name": ")" << json_escape(tool) << "\"}}";
  for (const TraceTrack& track : data.tracks) {
    sep();
    os << R"({"name": "thread_name", "ph": "M", "pid": 1, "tid": )"
       << track.tid << R"(, "args": {"name": ")" << json_escape(track.label)
       << "\"}}";
    if (track.worker_index >= 0) {
      sep();
      os << R"({"name": "thread_sort_index", "ph": "M", "pid": 1, "tid": )"
         << track.tid << R"(, "args": {"sort_index": )"
         << track.worker_index + 1 << "}}";
    }
  }
  for (const TraceEvent& e : data.events) {
    sep();
    os << "{\"name\": \"" << json_escape(e.name) << "\", \"cat\": \""
       << json_escape(e.cat) << "\", \"ph\": \"" << to_string(e.kind)
       << "\", \"pid\": 1, \"tid\": " << e.tid << ", \"ts\": "
       << ts_micros(e.ts_ns);
    switch (e.kind) {
      case TraceEventKind::kBegin:
      case TraceEventKind::kEnd:
        break;
      case TraceEventKind::kInstant:
        os << R"(, "s": "t", "args": {"value": )" << format_double(e.value)
           << "}";
        break;
      case TraceEventKind::kCounter:
        os << R"(, "args": {"value": )" << format_double(e.value) << "}";
        break;
      case TraceEventKind::kFlowBegin:
        os << ", \"id\": " << e.flow_id;
        break;
      case TraceEventKind::kFlowEnd:
        os << ", \"id\": " << e.flow_id << R"(, "bp": "e")";
        break;
    }
    os << "}";
  }
  if (!first) os << "\n  ";
  os << "]\n}\n";
}

void install_fault_trace_hook() {
  fault::set_injection_hook(
      [](std::string_view, fault::Action, std::uint64_t) {
        if (Tracer* tracer = Tracer::current()) {
          tracer->instant(trace_names::kFaultInjected, 1.0,
                          trace_names::kCatFault);
        }
      });
}

}  // namespace casa::obs
