// Where and how a result was measured: recorded on every result so a
// flipped OPTIMUS winner or a different GEMM kernel reads as a regime
// change, not as a speed-up.

#ifndef MIPSBENCH_PROVENANCE_H_
#define MIPSBENCH_PROVENANCE_H_

#include <string>
#include <utility>
#include <vector>

namespace mipsbench {

/// Ordered (key, value) pairs; values are already JSON-escaped strings.
using Provenance = std::vector<std::pair<std::string, std::string>>;

/// Host and build facts: CPU model, nproc, installed GEMM kernel, build
/// type and compiler.
Provenance HostProvenance();

/// Process peak resident set size in MiB.
double PeakRssMb();

/// Escapes `text` for use inside a JSON string literal.
std::string JsonEscape(const std::string& text);

}  // namespace mipsbench

#endif  // MIPSBENCH_PROVENANCE_H_
