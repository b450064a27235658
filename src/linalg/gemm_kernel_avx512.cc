// AVX-512 variant of the 4x16 micro-kernel.  Compiled with -mavx512f in
// its own TU (see src/linalg/CMakeLists.txt) so the binary carries it even
// when the rest of the build targets a smaller ISA; executed only after
// the dispatcher verified CPUID support.  MIPS_GEMM_NO_AVX512 is defined
// at configure time when the compiler cannot target AVX-512 at all.

#include "linalg/gemm_kernel.h"

#if !defined(MIPS_GEMM_NO_AVX512)

#include <immintrin.h>

namespace mips {

// 8 zmm accumulators, one broadcast + two FMAs per (k, row) step.  This
// is where BMM's "decades of hardware optimization" constant factor comes
// from — on hardware whose 512-bit units are real, not emulated.
void GemmMicroKernelAvx512(const Real* ap, const Real* bp, Index kb,
                           Real alpha, Real* c, Index ldc) {
  __m512d acc00 = _mm512_setzero_pd(), acc01 = _mm512_setzero_pd();
  __m512d acc10 = _mm512_setzero_pd(), acc11 = _mm512_setzero_pd();
  __m512d acc20 = _mm512_setzero_pd(), acc21 = _mm512_setzero_pd();
  __m512d acc30 = _mm512_setzero_pd(), acc31 = _mm512_setzero_pd();
  for (Index kk = 0; kk < kb; ++kk) {
    const __m512d b0 = _mm512_loadu_pd(bp + kk * kGemmNR);
    const __m512d b1 = _mm512_loadu_pd(bp + kk * kGemmNR + 8);
    const __m512d a0 = _mm512_set1_pd(ap[kk * kGemmMR + 0]);
    acc00 = _mm512_fmadd_pd(a0, b0, acc00);
    acc01 = _mm512_fmadd_pd(a0, b1, acc01);
    const __m512d a1 = _mm512_set1_pd(ap[kk * kGemmMR + 1]);
    acc10 = _mm512_fmadd_pd(a1, b0, acc10);
    acc11 = _mm512_fmadd_pd(a1, b1, acc11);
    const __m512d a2 = _mm512_set1_pd(ap[kk * kGemmMR + 2]);
    acc20 = _mm512_fmadd_pd(a2, b0, acc20);
    acc21 = _mm512_fmadd_pd(a2, b1, acc21);
    const __m512d a3 = _mm512_set1_pd(ap[kk * kGemmMR + 3]);
    acc30 = _mm512_fmadd_pd(a3, b0, acc30);
    acc31 = _mm512_fmadd_pd(a3, b1, acc31);
  }
  const __m512d valpha = _mm512_set1_pd(alpha);
  const auto update = [&](Real* crow, __m512d lo, __m512d hi) {
    _mm512_storeu_pd(crow,
                     _mm512_fmadd_pd(valpha, lo, _mm512_loadu_pd(crow)));
    _mm512_storeu_pd(crow + 8,
                     _mm512_fmadd_pd(valpha, hi, _mm512_loadu_pd(crow + 8)));
  };
  update(c + 0 * static_cast<std::size_t>(ldc), acc00, acc01);
  update(c + 1 * static_cast<std::size_t>(ldc), acc10, acc11);
  update(c + 2 * static_cast<std::size_t>(ldc), acc20, acc21);
  update(c + 3 * static_cast<std::size_t>(ldc), acc30, acc31);
}

// Two 8-lane ordered >= compares per tile row; _CMP_GE_OQ is false on
// NaN, like the scalar `score >= min` it replaces.
uint64_t GemmTileAdmitAvx512(const Real* tile, const Real* thresholds) {
  uint64_t mask = 0;
  for (Index r = 0; r < kGemmMR; ++r) {
    const Real* row = tile + r * kGemmNR;
    const __m512d t = _mm512_set1_pd(thresholds[r]);
    const uint64_t lo = _mm512_cmp_pd_mask(_mm512_loadu_pd(row), t,
                                           _CMP_GE_OQ);
    const uint64_t hi = _mm512_cmp_pd_mask(_mm512_loadu_pd(row + 8), t,
                                           _CMP_GE_OQ);
    mask |= (lo | (hi << 8)) << (r * kGemmNR);
  }
  return mask;
}

bool GemmAvx512KernelCompiled() { return true; }

}  // namespace mips

#else  // MIPS_GEMM_NO_AVX512

namespace mips {

void GemmMicroKernelAvx512(const Real* ap, const Real* bp, Index kb,
                           Real alpha, Real* c, Index ldc) {
  GemmMicroKernelPortable(ap, bp, kb, alpha, c, ldc);
}

uint64_t GemmTileAdmitAvx512(const Real* tile, const Real* thresholds) {
  return GemmTileAdmitPortable(tile, thresholds);
}

bool GemmAvx512KernelCompiled() { return false; }

}  // namespace mips

#endif  // MIPS_GEMM_NO_AVX512
