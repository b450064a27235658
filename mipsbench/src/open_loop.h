// The load generators every serving workload shares.
//
// Requests are sent on a schedule drawn before the phase starts
// (PoissonSchedule), regardless of how fast the system answers, and each
// request's latency is charged from when it was DUE, not from when the
// generator got around to sending it.  A stall therefore shows up in
// every request it delayed, and the generator's own lateness is reported
// separately so a slow load generator cannot pass for a fast system.
//
// The capacity phase uses a closed loop instead (RunClosedLoop): a fixed
// number of requests is kept outstanding, so the system never idles and
// its backlog can never grow, and the completion rate is its capacity.

#ifndef MIPSBENCH_OPEN_LOOP_H_
#define MIPSBENCH_OPEN_LOOP_H_

#include <atomic>
#include <cstddef>
#include <functional>
#include <future>
#include <vector>

#include "common/status.h"
#include "stats.h"
#include "trace.h"

namespace mipsbench {

/// Submits request `i` asynchronously; the future resolves with its
/// status once the answer has been written.
using SubmitFn = std::function<std::future<mips::Status>(std::size_t i)>;

/// Runs one asynchronous open-loop phase on the calling thread: request i
/// is sent at schedule[i] seconds after `start`, and outstanding answers
/// are polled, so each completion is stamped when it happens whatever
/// order requests finish in.  `request_base` numbers the requests in the
/// trace (request id = request_base + i + 1).
std::vector<RequestTiming> RunOpenLoop(const std::vector<double>& schedule,
                                       Clock::time_point start,
                                       const SubmitFn& submit,
                                       uint64_t request_base);

/// Submits request `i` into answer slot `slot` (slot < depth); the slot is
/// not reused until the request's future has resolved.
using SlotSubmitFn =
    std::function<std::future<mips::Status>(std::size_t i, std::size_t slot)>;

/// Called on the generator thread when request `i` (in `slot`) resolved,
/// before the slot is reused.
using DoneFn = std::function<void(std::size_t i, std::size_t slot, bool ok)>;

/// Runs a closed loop on the calling thread for `seconds` after `start`:
/// `depth` requests are sent at once, and each completion sends the next,
/// until the time is up; then the outstanding ones are awaited.  Requests
/// are awaited oldest first, blocking.  Every timing has intended == sent
/// (a closed loop has no schedule), so its latency is the time the
/// request spent in the system.  It records no spans: only untraced runs
/// measure capacity.
std::vector<RequestTiming> RunClosedLoop(std::size_t depth, double seconds,
                                         Clock::time_point start,
                                         const SlotSubmitFn& submit,
                                         const DoneFn& done);

/// Runs request `i` synchronously on the calling thread at schedule[i]
/// seconds after `start`, until the schedule ends or `stop` is set (the
/// paced mutation stream, which has a single writer).  Requests never
/// sent are left out of the result.
std::vector<RequestTiming> RunPaced(
    const std::vector<double>& schedule, Clock::time_point start,
    const std::function<mips::Status(std::size_t i)>& call,
    const std::atomic<bool>* stop);

}  // namespace mipsbench

#endif  // MIPSBENCH_OPEN_LOOP_H_
