// In-memory span recorder for the traced benchmark run.
//
// Spans are recorded by the benchmark around every call it makes into a
// layer's public functions; nothing inside the library is instrumented.
// Each span carries its layer, the public function, start and end, the
// span that was open on the same thread when it began (its parent), and
// the open-loop request it served (0 = none).  Spans live in per-thread
// buffers until the run ends, then are written out as JSON lines and
// rolled up into per-layer self time.
//
// An asynchronous request (submitted on one thread, served in a batch on
// another) is recorded as an async span: it keeps its request id and its
// interval in the span file, but the backend work it waited on runs on
// executor threads whose spans cannot name it as their parent, so it has
// no self time of its own in the rollup (see SelfSeconds).
//
// Recording is off unless SetTracing(true): an untraced run pays one
// relaxed load per instrumented call.

#ifndef MIPSBENCH_TRACE_H_
#define MIPSBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace mipsbench {

using Clock = std::chrono::steady_clock;

struct Span {
  const char* layer = "";
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t request = 0;
  /// Recorded by RecordSpan for an asynchronous request.
  bool async = false;
};

void SetTracing(bool enabled);
bool TracingEnabled();

/// Nanoseconds since the process's trace epoch.
int64_t TraceNow();
int64_t ToTraceNs(Clock::time_point t);

/// Records a completed async span whose interval the caller measured: an
/// asynchronous request that other threads served.
void RecordSpan(const char* layer, const char* name, int64_t start_ns,
                int64_t end_ns, uint64_t request);

/// RAII span around a synchronous call; nests under whatever span this
/// thread has open.  Layer and name must be string literals.
class ScopedSpan {
 public:
  ScopedSpan(const char* layer, const char* name, uint64_t request = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  bool active_ = false;
  Span span_;
};

/// Every span recorded so far.  Call only after all recording threads
/// have been joined.
std::vector<Span> CollectSpans();

/// Per-layer self time in seconds: each span's duration minus the part
/// of its interval covered by its children.  Async spans are left out:
/// their interval is mostly waiting on work other spans already count
/// (a serving tier's own share of it comes from its stats instead).
std::map<std::string, double> SelfSeconds(const std::vector<Span>& spans);

/// Writes `spans` as one JSON object per line.  Returns false on I/O
/// failure.
bool WriteSpans(const std::string& path, const std::vector<Span>& spans);

}  // namespace mipsbench

#endif  // MIPSBENCH_TRACE_H_
