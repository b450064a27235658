// mipsbench: one command for the MIPS stack's end-to-end and per-layer
// metrics.
//
//   mipsbench --workload batch-bmm --seed 1 --seconds 10 --trace 0
//
// Prints a human-readable report on stderr, writes the full record
// (provenance, every metric, the report) to <out_dir>/, and prints one
// JSON line as the last line of stdout:
//
//   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// --trace 0 reports the end-to-end metrics; --trace 1 the per-layer ones
// (and writes the span file).  Exit status: 0 on a correct run, 1 when
// the correctness gate found a wrong answer, 2 on usage or setup errors.
// --tiny shrinks every workload for smoke tests; --list prints the
// workload names, one per line.

#include <sys/stat.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "provenance.h"
#include "workloads.h"

namespace {

using mipsbench::Metric;
using mipsbench::RunResult;

[[noreturn]] void Usage(const char* message) {
  std::fprintf(stderr,
               "mipsbench: %s\nusage: mipsbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--tiny] [--out_dir DIR]\n"
               "workloads:",
               message);
  for (const auto& w : mipsbench::AllWorkloads()) {
    std::fprintf(stderr, " %s", w.name.c_str());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

/// JSON has no infinity: a rung whose requests failed has an infinite
/// p99, which the record writes as null.
std::string Number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           Number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
           "\"}";
  }
  return out + "}";
}

std::string ResultLine(const RunResult& r) {
  return std::string("{\"correct\": ") + (r.correct ? "true" : "false") +
         ", \"attempted\": " + std::to_string(r.attempted) +
         ", \"failed\": " + std::to_string(r.failed) +
         ", \"metrics\": " + MetricsJson(r.metrics) + "}";
}

void PrintReport(const std::string& workload, const RunResult& r) {
  std::fprintf(stderr, "== mipsbench %s ==\n", workload.c_str());
  for (const auto& [key, value] : r.provenance) {
    std::fprintf(stderr, "  %-22s %s\n", key.c_str(), value.c_str());
  }
  std::fprintf(stderr, "-- metrics\n");
  for (const Metric& m : r.metrics) {
    std::fprintf(stderr, "  %-28s %14.6g %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
  std::fprintf(stderr, "-- report\n");
  for (const Metric& m : r.report) {
    std::fprintf(stderr, "  %-28s %14.6g %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
  std::fprintf(stderr, "  correct=%s attempted=%lld failed=%lld\n",
               r.correct ? "true" : "false",
               static_cast<long long>(r.attempted),
               static_cast<long long>(r.failed));
}

void WriteRecord(const std::string& path, const RunResult& r) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    std::fprintf(stderr, "mipsbench: could not write %s\n", path.c_str());
    return;
  }
  std::string provenance = "{";
  for (std::size_t i = 0; i < r.provenance.size(); ++i) {
    if (i > 0) provenance += ", ";
    provenance += "\"" + r.provenance[i].first + "\": \"" +
                  r.provenance[i].second + "\"";
  }
  provenance += "}";
  std::fprintf(file,
               "{\"provenance\": %s,\n \"result\": %s,\n \"report\": %s}\n",
               provenance.c_str(), ResultLine(r).c_str(),
               MetricsJson(r.report).c_str());
  std::fclose(file);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  mipsbench::RunOptions options;
  bool tiny = false;
  bool have_seed = false, have_seconds = false, have_trace = false;
  if (argc == 2 && std::strcmp(argv[1], "--list") == 0) {
    for (const auto& w : mipsbench::AllWorkloads()) {
      std::printf("%s\n", w.name.c_str());
    }
    return 0;
  }
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    char* end = nullptr;
    if (arg == "--workload") {
      workload = value();
    } else if (arg == "--seed") {
      const std::string v = value();
      options.seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0') Usage("--seed must be an integer");
      have_seed = true;
    } else if (arg == "--seconds") {
      const std::string v = value();
      options.seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || !(options.seconds > 0)) {
        Usage("--seconds must be positive");
      }
      have_seconds = true;
    } else if (arg == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") Usage("--trace must be 0 or 1");
      options.trace = v == "1";
      have_trace = true;
    } else if (arg == "--tiny") {
      tiny = true;
    } else if (arg == "--out_dir") {
      options.out_dir = value();
    } else {
      Usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    Usage("--seed, --seconds and --trace are required");
  }
  const mipsbench::WorkloadSpec* spec = nullptr;
  for (const auto& w : mipsbench::AllWorkloads()) {
    if (w.name == workload) spec = &w;
  }
  if (spec == nullptr) Usage(("unknown workload '" + workload + "'").c_str());
  ::mkdir(options.out_dir.c_str(), 0755);

  const mipsbench::WorkloadSpec run_spec =
      tiny ? mipsbench::TinyVersion(*spec) : *spec;
  const RunResult result = mipsbench::RunWorkload(run_spec, options);

  PrintReport(run_spec.name, result);
  WriteRecord(options.out_dir + "/result-" + run_spec.name + "-seed" +
                  std::to_string(options.seed) + "-trace" +
                  (options.trace ? "1" : "0") + ".json",
              result);
  std::printf("%s\n", ResultLine(result).c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}
