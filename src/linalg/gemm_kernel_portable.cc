// Portable variant of the 4x16 micro-kernel — the fallback every binary
// can run, and the reference the per-kernel differential tests compare
// the SIMD variants against.
//
// The accumulation uses std::fma, not a separate multiply+add: fused
// multiply-add is single-rounding by IEEE 754-2008, exactly like the
// vfmadd instructions in the AVX kernels, so all three variants produce
// bit-for-bit identical C elements (see gemm_kernel.h).  When this TU is
// compiled for an FMA-capable target std::fma inlines to that
// instruction; on pre-FMA targets it falls back to libm's correctly
// rounded implementation — slower, but the probe only installs this
// kernel when nothing faster is supported, and correctness is identical.

#include "linalg/gemm_kernel.h"

#include <cmath>

namespace mips {

void GemmMicroKernelPortable(const Real* ap, const Real* bp, Index kb,
                             Real alpha, Real* c, Index ldc) {
  Real acc[kGemmMR][kGemmNR] = {};
  for (Index kk = 0; kk < kb; ++kk) {
    const Real* brow = bp + kk * kGemmNR;
    const Real* arow = ap + kk * kGemmMR;
    for (Index i = 0; i < kGemmMR; ++i) {
      const Real aval = arow[i];
      for (Index j = 0; j < kGemmNR; ++j) {
        acc[i][j] = std::fma(aval, brow[j], acc[i][j]);
      }
    }
  }
  for (Index i = 0; i < kGemmMR; ++i) {
    Real* crow = c + static_cast<std::size_t>(i) * ldc;
    for (Index j = 0; j < kGemmNR; ++j) {
      crow[j] = std::fma(alpha, acc[i][j], crow[j]);
    }
  }
}

uint64_t GemmTileAdmitPortable(const Real* tile, const Real* thresholds) {
  uint64_t mask = 0;
  for (Index r = 0; r < kGemmMR; ++r) {
    for (Index j = 0; j < kGemmNR; ++j) {
      const Index e = r * kGemmNR + j;
      mask |= static_cast<uint64_t>(tile[e] >= thresholds[r]) << e;
    }
  }
  return mask;
}

}  // namespace mips
