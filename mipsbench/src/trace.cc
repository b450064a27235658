#include "trace.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>

namespace mipsbench {
namespace {

std::atomic<bool> g_tracing{false};
std::atomic<uint64_t> g_next_id{1};
const Clock::time_point g_epoch = Clock::now();

/// Buffers are owned here, not by their threads, so spans recorded by a
/// thread that has since exited are still collected.
struct Registry {
  std::mutex mu;
  std::vector<std::unique_ptr<std::vector<Span>>> buffers;
};

Registry& GlobalRegistry() {
  static Registry registry;
  return registry;
}

std::vector<Span>& ThreadBuffer() {
  thread_local std::vector<Span>* buffer = [] {
    Registry& registry = GlobalRegistry();
    std::lock_guard<std::mutex> lock(registry.mu);
    registry.buffers.push_back(std::make_unique<std::vector<Span>>());
    registry.buffers.back()->reserve(1 << 12);
    return registry.buffers.back().get();
  }();
  return *buffer;
}

thread_local uint64_t t_open_span = 0;

}  // namespace

void SetTracing(bool enabled) {
  g_tracing.store(enabled, std::memory_order_relaxed);
}

bool TracingEnabled() { return g_tracing.load(std::memory_order_relaxed); }

int64_t ToTraceNs(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - g_epoch)
      .count();
}

int64_t TraceNow() { return ToTraceNs(Clock::now()); }

void RecordSpan(const char* layer, const char* name, int64_t start_ns,
                int64_t end_ns, uint64_t request) {
  if (!TracingEnabled()) return;
  Span span;
  span.layer = layer;
  span.name = name;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  span.id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  span.parent = t_open_span;
  span.request = request;
  span.async = true;
  ThreadBuffer().push_back(span);
}

ScopedSpan::ScopedSpan(const char* layer, const char* name,
                       uint64_t request) {
  if (!TracingEnabled()) return;
  active_ = true;
  span_.layer = layer;
  span_.name = name;
  span_.request = request;
  span_.id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  span_.parent = t_open_span;
  t_open_span = span_.id;
  span_.start_ns = TraceNow();
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  span_.end_ns = TraceNow();
  t_open_span = span_.parent;
  ThreadBuffer().push_back(span_);
}

std::vector<Span> CollectSpans() {
  Registry& registry = GlobalRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  std::vector<Span> all;
  for (const auto& buffer : registry.buffers) {
    all.insert(all.end(), buffer->begin(), buffer->end());
  }
  std::sort(all.begin(), all.end(), [](const Span& a, const Span& b) {
    return a.start_ns != b.start_ns ? a.start_ns < b.start_ns : a.id < b.id;
  });
  return all;
}

std::map<std::string, double> SelfSeconds(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, std::vector<std::pair<int64_t, int64_t>>>
      children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  std::map<std::string, double> self;
  for (const Span& s : spans) {
    if (s.async) continue;
    int64_t covered = 0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      // Union of the children's intervals, clipped to this span.
      auto& intervals = it->second;
      std::sort(intervals.begin(), intervals.end());
      int64_t cursor = s.start_ns;
      for (const auto& [begin, end] : intervals) {
        const int64_t lo = std::max(begin, cursor);
        const int64_t hi = std::min(end, s.end_ns);
        if (hi > lo) {
          covered += hi - lo;
          cursor = hi;
        }
      }
    }
    self[s.layer] += static_cast<double>(s.end_ns - s.start_ns - covered) * 1e-9;
  }
  return self;
}

bool WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  for (const Span& s : spans) {
    std::fprintf(file,
                 "{\"id\":%llu,\"parent\":%llu,\"request\":%llu,"
                 "\"layer\":\"%s\",\"name\":\"%s\",\"start_ns\":%lld,"
                 "\"end_ns\":%lld,\"async\":%s}\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request), s.layer, s.name,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.async ? "true" : "false");
  }
  return std::fclose(file) == 0;
}

}  // namespace mipsbench
