// Shared infrastructure for the paper-reproduction bench binaries: common
// flags (--scale, --k, --seed, ...), preset model instantiation, solver
// timing, and aligned table printing that mirrors the paper's tables.

#ifndef MIPS_BENCH_BENCH_UTIL_H_
#define MIPS_BENCH_BENCH_UTIL_H_

#include <memory>
#include <string>
#include <vector>

#include "common/flags.h"
#include "data/datasets.h"
#include "solvers/registry.h"
#include "solvers/solver.h"

namespace mips {
namespace bench {

/// Flags every bench binary accepts.
struct BenchConfig {
  /// Multiplier on each preset's default scale (1.0 = bench default;
  /// 1/default_scale = full paper dimensions).
  double scale = 1.0;
  /// Comma-separated K values (paper: 1,5,10,50).
  std::string ks = "1,5,10,50";
  /// Restrict to presets whose id contains this substring (empty = all).
  std::string models;
  uint64_t seed = 0;  // 0 = keep each preset's own seed
  int32_t threads = 1;
};

/// Registers the common flags on `flags` and parses argv.  Exits on
/// --help; aborts on malformed flags (bench binaries are leaf tools).
void ParseBenchFlags(int argc, char** argv, FlagSet* flags,
                     BenchConfig* config);

/// Parses "1,5,10,50" into {1,5,10,50}.
std::vector<Index> ParseKList(const std::string& csv);

/// Splits a ','-separated list, dropping empty entries.
std::vector<std::string> SplitSpecs(const std::string& csv);

/// The p-quantile (0 <= p <= 1) of an ascending-sorted sample, by
/// nearest rank; 0 for an empty sample.
double Percentile(std::vector<double>* sorted_seconds, double p);

/// Instantiates a preset at config.scale (applying the seed override).
MFModel MakeBenchModel(const ModelPreset& preset, const BenchConfig& config);

/// Presets selected by config.models (substring match on id).
std::vector<ModelPreset> SelectPresets(const BenchConfig& config);

/// Creates a solver from a registry spec ("name" = paper defaults,
/// "name:key=value,..." overrides); aborts on malformed specs — bench
/// binaries are leaf tools.
std::unique_ptr<MipsSolver> MakeSolver(const std::string& spec);

/// End-to-end wall time: Prepare + TopKAll.  Construction is included,
/// matching the paper's end-to-end measurements ("which includes index
/// construction time").
struct EndToEndTiming {
  double prepare_seconds = 0;
  double query_seconds = 0;
  double total() const { return prepare_seconds + query_seconds; }
};
EndToEndTiming TimeEndToEnd(MipsSolver* solver, const MFModel& model,
                            Index k);

/// Markdown-ish aligned table printer.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> header);
  void AddRow(std::vector<std::string> row);
  /// Prints header + separator + rows with aligned columns.
  void Print() const;

 private:
  std::vector<std::vector<std::string>> rows_;
};

/// Compact duration formatting ("12.3 ms", "4.56 s").
std::string FormatSeconds(double seconds);
/// Fixed-precision helpers.
std::string Fmt(double value, int precision = 3);
std::string FmtInt(int64_t value);

}  // namespace bench
}  // namespace mips

#endif  // MIPS_BENCH_BENCH_UTIL_H_
