// AVX2+FMA variant of the 4x16 micro-kernel: 16 ymm accumulators.
// Compiled with -mavx2 -mfma -mno-avx512f in its own TU so it stays a
// genuinely 256-bit code path even when the rest of the build targets
// AVX-512 — on VM classes that emulate or down-clock 512-bit ops this is
// the kernel the startup probe ends up installing.  MIPS_GEMM_NO_AVX2 is
// defined at configure time when the compiler cannot target AVX2.

#include "linalg/gemm_kernel.h"

#if !defined(MIPS_GEMM_NO_AVX2)

#include <immintrin.h>

namespace mips {

void GemmMicroKernelAvx2(const Real* ap, const Real* bp, Index kb, Real alpha,
                         Real* c, Index ldc) {
  __m256d acc[kGemmMR][4];
  for (Index i = 0; i < kGemmMR; ++i) {
    for (int v = 0; v < 4; ++v) acc[i][v] = _mm256_setzero_pd();
  }
  for (Index kk = 0; kk < kb; ++kk) {
    __m256d b[4];
    for (int v = 0; v < 4; ++v) {
      b[v] = _mm256_loadu_pd(bp + kk * kGemmNR + 4 * v);
    }
    for (Index i = 0; i < kGemmMR; ++i) {
      const __m256d a = _mm256_set1_pd(ap[kk * kGemmMR + i]);
      for (int v = 0; v < 4; ++v) {
        acc[i][v] = _mm256_fmadd_pd(a, b[v], acc[i][v]);
      }
    }
  }
  const __m256d valpha = _mm256_set1_pd(alpha);
  for (Index i = 0; i < kGemmMR; ++i) {
    Real* crow = c + static_cast<std::size_t>(i) * ldc;
    for (int v = 0; v < 4; ++v) {
      _mm256_storeu_pd(crow + 4 * v,
                       _mm256_fmadd_pd(valpha, acc[i][v],
                                       _mm256_loadu_pd(crow + 4 * v)));
    }
  }
}

// Four 4-lane ordered >= compares per tile row, gathered with movemask.
uint64_t GemmTileAdmitAvx2(const Real* tile, const Real* thresholds) {
  uint64_t mask = 0;
  for (Index r = 0; r < kGemmMR; ++r) {
    const Real* row = tile + r * kGemmNR;
    const __m256d t = _mm256_set1_pd(thresholds[r]);
    for (int v = 0; v < 4; ++v) {
      const __m256d ge =
          _mm256_cmp_pd(_mm256_loadu_pd(row + 4 * v), t, _CMP_GE_OQ);
      mask |= static_cast<uint64_t>(_mm256_movemask_pd(ge))
              << (r * kGemmNR + 4 * v);
    }
  }
  return mask;
}

bool GemmAvx2KernelCompiled() { return true; }

}  // namespace mips

#else  // MIPS_GEMM_NO_AVX2

namespace mips {

void GemmMicroKernelAvx2(const Real* ap, const Real* bp, Index kb, Real alpha,
                         Real* c, Index ldc) {
  GemmMicroKernelPortable(ap, bp, kb, alpha, c, ldc);
}

uint64_t GemmTileAdmitAvx2(const Real* tile, const Real* thresholds) {
  return GemmTileAdmitPortable(tile, thresholds);
}

bool GemmAvx2KernelCompiled() { return false; }

}  // namespace mips

#endif  // MIPS_GEMM_NO_AVX2
