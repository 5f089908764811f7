// Event-level tracing with lock-free per-thread ring buffers.
//
// A Tracer collects a timeline — begin/end duration events, instant
// events, counter samples and flow links — from every thread that records
// into it. Each thread writes into its own fixed-capacity ring buffer with
// no locks on the hot path: a slot is filled, then the buffer's head index
// is published with a release store, so a concurrent drain() (acquire
// load) only ever reads completed slots. When a buffer fills up, further
// events on that thread are dropped (drop-newest) and counted; a trace is
// never silently truncated.
//
// Timestamps come from the same injectable obs::Clock that Span uses, so
// FakeClock-driven tests produce byte-stable traces. The drained TraceData
// serializes to Chrome Trace Format ("casa-trace v1", write_trace_json),
// loadable in chrome://tracing and Perfetto; docs/tracing.md documents the
// schema key-by-key.
//
// Attachment is process-global: Tracer::set_current() installs the tracer
// every obs::Span (and the instrumented sim/ilp layers) dual-emits into.
// The null path — no tracer attached — costs one relaxed atomic load, the
// same null-sink guarantee MetricsRegistry gives (gated by
// BM_TraceOverhead in tools/bench_check.sh).
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "casa/obs/span.hpp"

namespace casa::obs {

/// One timeline event. `kind` maps 1:1 onto a Chrome Trace Format phase.
enum class TraceEventKind : std::uint8_t {
  kBegin,      ///< ph "B": a duration opens
  kEnd,        ///< ph "E": the innermost open duration closes
  kInstant,    ///< ph "i": a point in time, with a numeric payload
  kCounter,    ///< ph "C": a sampled counter value
  kFlowBegin,  ///< ph "s": flow arrow tail (where work was submitted)
  kFlowEnd,    ///< ph "f": flow arrow head (where the work ran)
};

const char* to_string(TraceEventKind kind);

struct TraceEvent {
  TraceEventKind kind = TraceEventKind::kInstant;
  std::uint32_t tid = 0;       ///< track id (registration order, 0-based)
  std::uint64_t ts_ns = 0;     ///< nanoseconds, rebased so the trace starts at 0
  std::uint64_t flow_id = 0;   ///< flow events only: matches tail to head
  double value = 0.0;          ///< instant/counter payload
  std::string name;
  std::string cat;

  friend bool operator==(const TraceEvent&, const TraceEvent&) = default;
};

/// One thread's track: a stable id plus a human label ("main", "sim-1").
struct TraceTrack {
  std::uint32_t tid = 0;
  int worker_index = -1;  ///< ThreadPool worker index; -1 for non-pool threads
  std::string label;

  friend bool operator==(const TraceTrack&, const TraceTrack&) = default;
};

/// A drained trace: every published event, sorted by (ts, tid, record
/// order), plus the per-thread tracks and the drop count.
struct TraceData {
  std::vector<TraceTrack> tracks;
  std::vector<TraceEvent> events;
  std::uint64_t dropped = 0;

  friend bool operator==(const TraceData&, const TraceData&) = default;
};

struct TracerOptions {
  /// Time source; null = the process steady clock.
  const Clock* clock = nullptr;
  /// Events each thread can hold before drop-newest kicks in.
  std::size_t buffer_capacity = std::size_t{1} << 16;
};

class Tracer {
 public:
  explicit Tracer(TracerOptions opt = {});
  ~Tracer();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void begin(std::string_view name, std::string_view cat = "phase");
  void end(std::string_view name, std::string_view cat = "phase");
  void instant(std::string_view name, double value = 0.0,
               std::string_view cat = "instant");
  void counter(std::string_view name, double value);

  /// Emits a flow tail on the calling thread and returns its id (never 0);
  /// pass the id to flow_end() on the thread that picks the work up and the
  /// viewer draws an arrow between them.
  std::uint64_t flow_begin(std::string_view name,
                           std::string_view cat = "flow");
  void flow_end(std::string_view name, std::uint64_t id,
                std::string_view cat = "flow");

  /// Registers the calling thread's track, labelled from its ThreadIdent,
  /// without recording an event, so a worker that ends up recording
  /// nothing still appears in drain()'s tracks. Idempotent.
  void ensure_track();

  /// Snapshot of everything published so far. Safe to call while other
  /// threads are still recording (they keep their buffers; only completed
  /// slots are read). Timestamps are rebased so the earliest event is 0.
  TraceData drain() const;

  /// Events dropped so far to full buffers.
  std::uint64_t dropped() const;

  /// The process-global tracer obs::Span and the instrumented layers emit
  /// into; null when tracing is off.
  static Tracer* current();
  static void set_current(Tracer* tracer);

 private:
  struct ThreadBuffer;

  ThreadBuffer* buffer_for_this_thread();
  /// The calling thread's buffer, registered on first use.
  ThreadBuffer* this_thread_buffer();
  void record(TraceEventKind kind, std::string_view name,
              std::string_view cat, std::uint64_t flow_id, double value);

  TracerOptions opt_;
  const Clock* clock_;
  std::uint64_t generation_;  ///< distinguishes tracers for the TLS cache
  std::atomic<std::uint64_t> next_flow_{1};
  mutable std::mutex mu_;  ///< guards buffers_ registration (not recording)
  std::deque<std::unique_ptr<ThreadBuffer>> buffers_;
};

/// RAII begin/end pair. A null tracer makes it fully inert. A nonzero
/// `flow_id` additionally emits the flow head before the begin, linking
/// this span back to the flow_begin() that scheduled it.
class TraceSpan {
 public:
  TraceSpan(Tracer* tracer, std::string_view name,
            std::string_view cat = "phase", std::uint64_t flow_id = 0);
  ~TraceSpan();

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  Tracer* tracer_;
  std::string name_;
  std::string cat_;
};

/// Writes the "casa-trace v1" artifact: Chrome Trace Format JSON with a
/// schema/run provenance header (extra top-level keys are legal and
/// ignored by the viewers). `tool` lands in run.tool and the process name.
void write_trace_json(std::ostream& os, const TraceData& data,
                      std::string_view tool = "casa");

/// Installs a fault::set_injection_hook that emits a "fault.injected"
/// instant (value 1, cat "fault") into Tracer::current() on every fired
/// fault, so injections land on the timeline next to the work they poison.
/// Idempotent; a null current tracer makes the hook inert.
void install_fault_trace_hook();

}  // namespace casa::obs
