#pragma once
// In-memory span recording for the traced run.
//
// A span names one call into a layer ("io.map", "core.solve",
// "serve.distance"), its start and end, the span that caused it, and a
// trace id shared by every span of one request or solve. Spans stay in
// memory while the benchmark runs and are written out when it ends, so
// recording costs a clock read and a locked vector append per span.
//
// A span's self time is its duration minus the part of its interval that
// its child spans cover; children that overlap each other (concurrent
// work) or run past the parent's end are counted once and clipped.

#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "util/timer.hpp"

namespace perfbench {

struct Span {
  std::uint64_t id = 0;      ///< 1-based position in the recorder
  std::uint64_t parent = 0;  ///< 0 for a root span
  std::uint64_t trace = 0;   ///< shared by the spans of one request/solve
  std::string name;
  double start_s = 0.0;      ///< seconds since the recorder was created
  double end_s = 0.0;
  [[nodiscard]] double duration() const { return end_s - start_s; }
};

class SpanRecorder {
 public:
  /// Seconds since construction, on the clock every span uses.
  [[nodiscard]] double now() const { return clock_.seconds(); }

  /// A fresh trace id.
  std::uint64_t new_trace();

  /// Open a span starting now; returns its id for close() and children.
  std::uint64_t open(std::string_view name, std::uint64_t parent,
                     std::uint64_t trace);
  void close(std::uint64_t id);

  /// Record a span whose interval is already known (for example one
  /// reported by the solver's trace sink as "stage took s seconds").
  std::uint64_t add(std::string_view name, std::uint64_t parent,
                    std::uint64_t trace, double start_s, double end_s);

  [[nodiscard]] std::vector<Span> spans() const;

  /// Chrome trace_event JSON ("X" events; args carry id/parent/trace).
  void write_chrome_json(std::ostream& os) const;

 private:
  fdiam::Timer clock_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::uint64_t next_trace_ = 0;
};

/// RAII span: opened by the constructor, closed by the destructor. A null
/// recorder makes it a no-op, which is how the untraced run stays
/// untraced.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, std::string_view name, std::uint64_t parent,
             std::uint64_t trace)
      : rec_(rec), id_(rec != nullptr ? rec->open(name, parent, trace) : 0) {}
  ~ScopedSpan() {
    if (rec_ != nullptr) rec_->close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  [[nodiscard]] std::uint64_t id() const { return id_; }

 private:
  SpanRecorder* rec_;
  std::uint64_t id_;
};

/// Self time of every span, indexed like `spans` (ids must be 1-based
/// positions, as SpanRecorder assigns them).
std::vector<double> self_times(const std::vector<Span>& spans);

/// Self time summed per span name.
std::map<std::string, double> self_time_by_name(const std::vector<Span>& spans);

}  // namespace perfbench
