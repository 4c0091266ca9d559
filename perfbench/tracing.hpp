// In-memory span recorder for the traced run.
//
// Spans are recorded from the benchmark's own files, around each call into a
// layer's public API: name ("serve.submit", "par.collective", ...), start,
// end, the span that caused it, and the request it belongs to.  Nothing is
// written until the run ends, when write_chrome_trace() emits the Chrome
// `traceEvents` JSON that Perfetto and chrome://tracing open, and
// self_times() attributes each span's time to its own name minus the part
// its children cover.
//
// A Tracer is used from one thread (the benchmark's driver thread).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline constexpr std::int64_t kNoParent = -1;
inline constexpr std::int64_t kNoRequest = -1;

struct Span {
  std::string name;
  std::int64_t start_ns = 0;  ///< relative to the tracer's origin
  std::int64_t end_ns = 0;
  std::int64_t parent = kNoParent;  ///< index into the tracer's spans
  std::int64_t request = kNoRequest;
  /// Not on the driver thread's timeline: an interval the driver observed,
  /// such as a request's wait for its response, overlapping other requests'.
  bool async = false;
};

class Tracer {
 public:
  Tracer() : origin_(Clock::now()) { spans_.reserve(1u << 16); }

  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_).count();
  }
  [[nodiscard]] std::int64_t to_ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_).count();
  }

  /// Opens a span at now (parent: the innermost open scoped span).
  std::int64_t begin(std::string name, std::int64_t request = kNoRequest);
  void end(std::int64_t id);
  /// Records a finished span with explicit times.
  std::int64_t record(std::string name, std::int64_t start_ns, std::int64_t end_ns,
                      std::int64_t parent, std::int64_t request, bool async = false);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] std::int64_t current() const {
    return open_.empty() ? kNoParent : open_.back();
  }

  /// RAII span.
  class Scope {
   public:
    Scope(Tracer* tracer, std::string name, std::int64_t request = kNoRequest)
        : tracer_(tracer), id_(tracer ? tracer->begin(std::move(name), request) : kNoParent) {}
    ~Scope() {
      if (tracer_ != nullptr) tracer_->end(id_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    std::int64_t id_;
  };

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::int64_t> open_;
};

/// Self time per span name in nanoseconds: each span's duration minus the
/// union of its children's intervals clipped to it.  Async spans are not on
/// the thread's timeline and are left out.
[[nodiscard]] std::map<std::string, std::int64_t> self_times(const std::vector<Span>& spans);

/// Chrome trace-event JSON: "X" complete events on the driver thread, and
/// async spans as nestable "b"/"e" pairs keyed by request id, so
/// overlapping requests stay on separate tracks.
[[nodiscard]] std::string chrome_trace_json(const std::vector<Span>& spans);

/// Writes chrome_trace_json(spans) to `path`; false on I/O failure.
bool write_chrome_trace(const std::vector<Span>& spans, const std::string& path);

}  // namespace perfbench
