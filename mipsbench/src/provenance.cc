#include "provenance.h"

#include <sys/resource.h>

#include <fstream>
#include <thread>

#include "linalg/simd_dispatch.h"

namespace mipsbench {
namespace {

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        const std::size_t begin = line.find_first_not_of(' ', colon + 1);
        return begin == std::string::npos ? "" : line.substr(begin);
      }
    }
  }
  return "unknown";
}

}  // namespace

std::string JsonEscape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

Provenance HostProvenance() {
  return {
      {"cpu_model", JsonEscape(CpuModel())},
      {"nproc", std::to_string(std::thread::hardware_concurrency())},
      {"gemm_kernel", mips::ToString(mips::ActiveGemmKernel())},
      {"build_type", MIPSBENCH_BUILD_TYPE},
      {"compiler", MIPSBENCH_COMPILER},
  };
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace mipsbench
