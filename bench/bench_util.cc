#include "bench_util.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "common/timer.h"

namespace mips {
namespace bench {

void ParseBenchFlags(int argc, char** argv, FlagSet* flags,
                     BenchConfig* config) {
  flags->Double("scale", &config->scale,
                "multiplier on each preset's default scale");
  flags->String("k", &config->ks, "comma-separated top-K values");
  flags->String("models", &config->models,
                "substring filter on preset ids (empty = all)");
  int64_t seed = 0;
  flags->Int64("seed", &seed, "seed override (0 = preset default)");
  flags->Int32("threads", &config->threads, "worker threads");
  const Status status = flags->Parse(argc, argv);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    std::exit(2);
  }
  config->seed = static_cast<uint64_t>(seed);
}

std::vector<std::string> SplitSpecs(const std::string& csv) {
  std::vector<std::string> specs;
  std::stringstream ss(csv);
  std::string tok;
  while (std::getline(ss, tok, ',')) {
    if (!tok.empty()) specs.push_back(tok);
  }
  return specs;
}

std::vector<Index> ParseKList(const std::string& csv) {
  std::vector<Index> ks;
  for (const std::string& tok : SplitSpecs(csv)) {
    ks.push_back(static_cast<Index>(std::stol(tok)));
  }
  return ks;
}

double Percentile(std::vector<double>* sorted_seconds, double p) {
  if (sorted_seconds->empty()) return 0;
  const std::size_t idx = std::min(
      sorted_seconds->size() - 1,
      static_cast<std::size_t>(p * static_cast<double>(sorted_seconds->size())));
  return (*sorted_seconds)[idx];
}

MFModel MakeBenchModel(const ModelPreset& preset, const BenchConfig& config) {
  ModelPreset p = preset;
  if (config.seed != 0) p.generator.seed = config.seed;
  auto model = MakeModel(p, config.scale);
  model.status().CheckOK();
  return std::move(model).value();
}

std::vector<ModelPreset> SelectPresets(const BenchConfig& config) {
  std::vector<ModelPreset> out;
  for (const auto& preset : AllModelPresets()) {
    if (config.models.empty() ||
        preset.id.find(config.models) != std::string::npos) {
      out.push_back(preset);
    }
  }
  return out;
}

std::unique_ptr<MipsSolver> MakeSolver(const std::string& spec) {
  auto solver = CreateSolverFromSpec(spec);
  solver.status().CheckOK();
  return std::move(solver).value();
}

EndToEndTiming TimeEndToEnd(MipsSolver* solver, const MFModel& model,
                            Index k) {
  EndToEndTiming timing;
  WallTimer timer;
  solver->Prepare(ConstRowBlock(model.users), ConstRowBlock(model.items))
      .CheckOK();
  timing.prepare_seconds = timer.Seconds();
  timer.Restart();
  TopKResult result;
  solver->TopKAll(k, &result).CheckOK();
  timing.query_seconds = timer.Seconds();
  return timing;
}

TablePrinter::TablePrinter(std::vector<std::string> header) {
  rows_.push_back(std::move(header));
}

void TablePrinter::AddRow(std::vector<std::string> row) {
  rows_.push_back(std::move(row));
}

void TablePrinter::Print() const {
  if (rows_.empty()) return;
  std::vector<std::size_t> widths(rows_.front().size(), 0);
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size() && c < widths.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  const auto print_row = [&](const std::vector<std::string>& row) {
    std::printf("|");
    for (std::size_t c = 0; c < widths.size(); ++c) {
      const std::string& cell = c < row.size() ? row[c] : std::string();
      std::printf(" %-*s |", static_cast<int>(widths[c]), cell.c_str());
    }
    std::printf("\n");
  };
  print_row(rows_.front());
  std::printf("|");
  for (std::size_t c = 0; c < widths.size(); ++c) {
    std::printf("%s|", std::string(widths[c] + 2, '-').c_str());
  }
  std::printf("\n");
  for (std::size_t r = 1; r < rows_.size(); ++r) print_row(rows_[r]);
}

std::string FormatSeconds(double seconds) {
  char buf[64];
  if (seconds < 1e-3) {
    std::snprintf(buf, sizeof(buf), "%.1f us", seconds * 1e6);
  } else if (seconds < 1.0) {
    std::snprintf(buf, sizeof(buf), "%.2f ms", seconds * 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.2f s", seconds);
  }
  return buf;
}

std::string Fmt(double value, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
  return buf;
}

std::string FmtInt(int64_t value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRId64, value);
  return buf;
}

}  // namespace bench
}  // namespace mips
