#include "open_loop.h"

#include <deque>
#include <thread>

#include "trace.h"

namespace mipsbench {
namespace {

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// The generator spins between sends so neither a send nor a completion
/// waits on a thread wake-up; it only naps when nothing is outstanding
/// and the next send is further off than kNapSeconds.
constexpr double kNapSeconds = 500e-6;
constexpr double kWakeEarlySeconds = 200e-6;

Clock::time_point At(Clock::time_point start, double offset) {
  return start + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(offset));
}

}  // namespace

std::vector<RequestTiming> RunOpenLoop(const std::vector<double>& schedule,
                                       Clock::time_point start,
                                       const SubmitFn& submit,
                                       uint64_t request_base) {
  const std::size_t n = schedule.size();
  std::vector<RequestTiming> timings(n);
  std::vector<std::future<mips::Status>> futures(n);
  std::vector<std::size_t> outstanding;  // sent, not yet answered
  std::size_t next = 0;
  while (next < n || !outstanding.empty()) {
    double now = SecondsSince(start);
    if (outstanding.empty() && next < n && schedule[next] - now > kNapSeconds) {
      std::this_thread::sleep_until(At(start, schedule[next] - kWakeEarlySeconds));
      continue;
    }
    while (next < n && schedule[next] <= now) {
      timings[next].intended = schedule[next];
      timings[next].sent = now;
      futures[next] = submit(next);
      outstanding.push_back(next++);
      now = SecondsSince(start);
    }
    std::size_t kept = 0;
    for (const std::size_t i : outstanding) {
      if (futures[i].wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        outstanding[kept++] = i;
        continue;
      }
      const Clock::time_point done = Clock::now();
      RequestTiming& t = timings[i];
      t.done = std::chrono::duration<double>(done - start).count();
      t.ok = futures[i].get().ok();
      if (TracingEnabled()) {
        RecordSpan("serve", "BatchingEngine::SubmitNewUser",
                   ToTraceNs(At(start, t.sent)), ToTraceNs(done),
                   request_base + i + 1);
      }
    }
    outstanding.resize(kept);
  }
  return timings;
}

std::vector<RequestTiming> RunClosedLoop(std::size_t depth, double seconds,
                                         Clock::time_point start,
                                         const SlotSubmitFn& submit,
                                         const DoneFn& done) {
  std::vector<RequestTiming> timings;
  std::vector<std::future<mips::Status>> futures(depth);
  std::vector<std::size_t> request_in(depth);
  auto send = [&](std::size_t slot) {
    const std::size_t i = timings.size();
    RequestTiming t;
    t.sent = t.intended = SecondsSince(start);
    timings.push_back(t);
    request_in[slot] = i;
    futures[slot] = submit(i, slot);
  };
  // Outstanding slots, oldest first.  The generator sleeps on the oldest
  // request instead of polling, so it takes no core from the system it
  // saturates; batches are served in arrival order, so a request that
  // finished ahead of the oldest is stamped at most one batch late.
  std::deque<std::size_t> order;
  for (std::size_t slot = 0; slot < depth; ++slot) {
    send(slot);
    order.push_back(slot);
  }
  while (!order.empty()) {
    const std::size_t slot = order.front();
    order.pop_front();
    const mips::Status status = futures[slot].get();
    const Clock::time_point finished = Clock::now();
    const std::size_t i = request_in[slot];
    RequestTiming& t = timings[i];
    t.done = std::chrono::duration<double>(finished - start).count();
    t.ok = status.ok();
    done(i, slot, t.ok);
    if (t.done < seconds) {
      send(slot);
      order.push_back(slot);
    }
  }
  return timings;
}

std::vector<RequestTiming> RunPaced(
    const std::vector<double>& schedule, Clock::time_point start,
    const std::function<mips::Status(std::size_t i)>& call,
    const std::atomic<bool>* stop) {
  std::vector<RequestTiming> timings;
  timings.reserve(schedule.size());
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const Clock::time_point due = At(start, schedule[i]);
    if (due > Clock::now()) std::this_thread::sleep_until(due);
    if (stop->load(std::memory_order_relaxed)) break;
    RequestTiming t;
    t.intended = schedule[i];
    t.sent = SecondsSince(start);
    t.ok = call(i).ok();
    t.done = SecondsSince(start);
    timings.push_back(t);
  }
  return timings;
}

}  // namespace mipsbench
