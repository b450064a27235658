#include "linalg/gemm.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <vector>

#include "common/dcheck.h"
#include "linalg/blas.h"
#include "linalg/gemm_kernel.h"

namespace mips {
namespace {

// Register tile (gemm_kernel.h): the full-tile micro-kernel is selected
// at runtime by simd_dispatch.cc among AVX-512 / AVX2+FMA / portable
// variants — all bit-for-bit identical per C element, so the dispatch
// never affects results, only throughput.
constexpr Index kMR = kGemmMR;
constexpr Index kNR = kGemmNR;

// Cache blocking.  KC covers every latent-factor count in the paper
// (f <= 200) in a single K pass; MC*KC*8B ~= 256 KB targets L2.  The
// panel depth is public (gemm.h): the sparse rescore path replicates the
// per-panel accumulation fold and must agree on where panels break.
constexpr Index kKC = kGemmKPanel;
constexpr Index kMC = 128;
constexpr Index kNC = 2048;

// Packs rows [i0, i0+mb) x cols [p0, p0+kb) of row-major `a` (lda = k)
// into MR-tall panels: dst[panel][kk][mr].  Rows beyond mb are zero-padded
// so the micro-kernel never needs an M edge case.
void PackA(const Real* a, Index lda, Index i0, Index mb, Index p0, Index kb,
           Real* dst) {
  MIPS_DCHECK_GT(mb, 0);
  MIPS_DCHECK_GT(kb, 0);
  MIPS_DCHECK_LE(p0 + kb, lda);
  for (Index ip = 0; ip < mb; ip += kMR) {
    const Index mr = std::min(kMR, mb - ip);
    for (Index kk = 0; kk < kb; ++kk) {
      for (Index r = 0; r < mr; ++r) {
        dst[kk * kMR + r] =
            a[static_cast<std::size_t>(i0 + ip + r) * lda + p0 + kk];
      }
      for (Index r = mr; r < kMR; ++r) dst[kk * kMR + r] = 0;
    }
    dst += static_cast<std::size_t>(kb) * kMR;
  }
}

// Packs rows [j0, j0+nb) x cols [p0, p0+kb) of row-major `b` (ldb = k)
// into NR-wide panels: dst[panel][kk][nr], zero-padding the N edge.
void PackB(const Real* b, Index ldb, Index j0, Index nb, Index p0, Index kb,
           Real* dst) {
  MIPS_DCHECK_GT(nb, 0);
  MIPS_DCHECK_GT(kb, 0);
  MIPS_DCHECK_LE(p0 + kb, ldb);
  for (Index jp = 0; jp < nb; jp += kNR) {
    const Index nr = std::min(kNR, nb - jp);
    for (Index kk = 0; kk < kb; ++kk) {
      for (Index cidx = 0; cidx < nr; ++cidx) {
        dst[kk * kNR + cidx] =
            b[static_cast<std::size_t>(j0 + jp + cidx) * ldb + p0 + kk];
      }
      for (Index cidx = nr; cidx < kNR; ++cidx) dst[kk * kNR + cidx] = 0;
    }
    dst += static_cast<std::size_t>(kb) * kNR;
  }
}

// Edge tile (mr < MR or nr < NR): run the SAME full-tile kernel into a
// scratch MR x NR tile seeded with the valid C region, then copy the
// valid region back.  Every C element — full tile or edge — is therefore
// produced by the identical fma sequence of the installed kernel, so a
// score can never depend on which tile position an item happened to land
// in (duplicate items tie bit-for-bit even when one sits in the edge
// fringe), and swapping kernels still changes nothing (gemm_kernel.h).
// The scratch copies touch at most 64 doubles; the packed panels are
// already zero-padded, so the padding lanes compute garbage that is
// simply not copied back.
void MicroKernelEdge(GemmMicroKernelFn full, const Real* __restrict ap,
                     const Real* __restrict bp, Index kb, Real alpha,
                     Real* __restrict c, Index ldc, Index mr, Index nr) {
  // The scratch tile is exactly MR x NR; an oversized (mr, nr) here would
  // read past the packed panels and write past scratch.
  MIPS_DCHECK_GT(mr, 0);
  MIPS_DCHECK_LE(mr, kMR);
  MIPS_DCHECK_GT(nr, 0);
  MIPS_DCHECK_LE(nr, kNR);
  MIPS_DCHECK_GT(kb, 0);
  MIPS_DCHECK_GE(ldc, nr);
  alignas(64) Real scratch[kMR * kNR] = {};
  for (Index i = 0; i < mr; ++i) {
    std::memcpy(scratch + i * kNR, c + static_cast<std::size_t>(i) * ldc,
                static_cast<std::size_t>(nr) * sizeof(Real));
  }
  full(ap, bp, kb, alpha, scratch, kNR);
  for (Index i = 0; i < mr; ++i) {
    std::memcpy(c + static_cast<std::size_t>(i) * ldc, scratch + i * kNR,
                static_cast<std::size_t>(nr) * sizeof(Real));
  }
}

void MicroKernel(GemmMicroKernelFn full, const Real* __restrict ap,
                 const Real* __restrict bp, Index kb, Real alpha,
                 Real* __restrict c, Index ldc, Index mr, Index nr) {
  if (mr == kMR && nr == kNR) {
    full(ap, bp, kb, alpha, c, ldc);
  } else {
    MicroKernelEdge(full, ap, bp, kb, alpha, c, ldc, mr, nr);
  }
}

}  // namespace

void PackRowPanels(std::span<const Real* const> rows, Index depth,
                   Index width, Real* dst) {
  MIPS_DCHECK_GT(width, 0);
  const Index count = static_cast<Index>(rows.size());
  for (Index r0 = 0; r0 < count; r0 += width) {
    const Index w = std::min(width, count - r0);
    for (Index kk = 0; kk < depth; ++kk) {
      for (Index r = 0; r < w; ++r) {
        dst[kk * width + r] = rows[static_cast<std::size_t>(r0 + r)][kk];
      }
      for (Index r = w; r < width; ++r) dst[kk * width + r] = 0;
    }
    dst += static_cast<std::size_t>(depth) * width;
  }
}

void GemmNT(const Real* a, Index m, const Real* b, Index n, Index k,
            Real alpha, Real beta, Real* c, Index ldc) {
  if (m <= 0 || n <= 0) return;

  // Apply beta up front; the blocked passes below then purely accumulate.
  if (beta == 0) {
    for (Index i = 0; i < m; ++i) {
      std::memset(c + static_cast<std::size_t>(i) * ldc, 0,
                  static_cast<std::size_t>(n) * sizeof(Real));
    }
  } else if (beta != 1) {
    for (Index i = 0; i < m; ++i) {
      Scale(beta, c + static_cast<std::size_t>(i) * ldc, n);
    }
  }
  if (k <= 0 || alpha == 0) return;

  // One dispatch load per call (first use runs the env/probe install).
  const GemmMicroKernelFn full_tile = ActiveGemmMicroKernel();

  // Sized to this call's shape, so a few-row product does not pay for a
  // full kNC x kKC panel, and left uninitialized: PackA / PackB write
  // every element they hand the micro-kernel, padding included.
  const std::size_t depth = static_cast<std::size_t>(std::min(kKC, k));
  const std::unique_ptr<Real[]> apack(
      new Real[static_cast<std::size_t>(std::min(kMC, m) + kMR) * depth]);
  const std::unique_ptr<Real[]> bpack(
      new Real[static_cast<std::size_t>(std::min(kNC, n) + kNR) * depth]);

  for (Index j0 = 0; j0 < n; j0 += kNC) {
    const Index nb = std::min(kNC, n - j0);
    for (Index p0 = 0; p0 < k; p0 += kKC) {
      const Index kb = std::min(kKC, k - p0);
      PackB(b, k, j0, nb, p0, kb, bpack.get());
      for (Index i0 = 0; i0 < m; i0 += kMC) {
        const Index mb = std::min(kMC, m - i0);
        PackA(a, k, i0, mb, p0, kb, apack.get());
        // Macro kernel: sweep the packed panels.
        for (Index jp = 0; jp < nb; jp += kNR) {
          const Index nr = std::min(kNR, nb - jp);
          const Real* bp =
              bpack.get() + static_cast<std::size_t>(jp / kNR) * kb * kNR;
          for (Index ip = 0; ip < mb; ip += kMR) {
            const Index mr = std::min(kMR, mb - ip);
            const Real* ap =
                apack.get() + static_cast<std::size_t>(ip / kMR) * kb * kMR;
            Real* ctile = c + static_cast<std::size_t>(i0 + ip) * ldc +
                          (j0 + jp);
            MicroKernel(full_tile, ap, bp, kb, alpha, ctile, ldc, mr, nr);
          }
        }
      }
    }
  }
}

void GemmNT(const ConstRowBlock& a, const ConstRowBlock& b, Matrix* c) {
  assert(a.cols() == b.cols());
  c->Resize(a.rows(), b.rows());
  GemmNT(a.data(), a.rows(), b.data(), b.rows(), a.cols(), /*alpha=*/1,
         /*beta=*/0, c->data(), c->cols());
}

void GemmNN(const Real* a, Index m, const Real* b, Index n, Index k,
            Real alpha, Real beta, Real* c, Index ldc) {
  // Transpose B (k x n) into row-major (n x k), then reuse the NT kernel.
  Matrix bt(n, k);
  for (Index kk = 0; kk < k; ++kk) {
    const Real* brow = b + static_cast<std::size_t>(kk) * n;
    for (Index j = 0; j < n; ++j) bt(j, kk) = brow[j];
  }
  GemmNT(a, m, bt.data(), n, k, alpha, beta, c, ldc);
}

void Gemv(const Real* a, Index m, Index k, const Real* x, Real* y) {
  for (Index i = 0; i < m; ++i) {
    y[i] = Dot(a + static_cast<std::size_t>(i) * k, x, k);
  }
}

void GemmNaiveNT(const Real* a, Index m, const Real* b, Index n, Index k,
                 Real alpha, Real beta, Real* c, Index ldc) {
  for (Index i = 0; i < m; ++i) {
    const Real* arow = a + static_cast<std::size_t>(i) * k;
    Real* crow = c + static_cast<std::size_t>(i) * ldc;
    for (Index j = 0; j < n; ++j) {
      const Real* brow = b + static_cast<std::size_t>(j) * k;
      Real acc = 0;
      for (Index kk = 0; kk < k; ++kk) acc += arow[kk] * brow[kk];
      crow[j] = alpha * acc + beta * crow[j];
    }
  }
}

void GemmDotNT(const Real* a, Index m, const Real* b, Index n, Index k,
               Real* c, Index ldc) {
  for (Index i = 0; i < m; ++i) {
    const Real* arow = a + static_cast<std::size_t>(i) * k;
    Real* crow = c + static_cast<std::size_t>(i) * ldc;
    for (Index j = 0; j < n; ++j) {
      crow[j] = Dot(arow, b + static_cast<std::size_t>(j) * k, k);
    }
  }
}

}  // namespace mips
