// Word embeddings: the GloVe-Twitter scenario from the paper's Table I.
//
// High-dimensional similarity search over a large vocabulary: queries are
// a small set of "words" (user vectors), the catalog is ~20k embedding
// vectors, and we want the exact top inner-product neighbors.  This is
// the items >> users regime, where the best strategy differs from the
// recommender setting — exactly why OPTIMUS exists.
//
// Demonstrates: preset instantiation, per-query (point) serving with a
// non-batching index, and the approximate cluster baseline's
// recall/speed trade-off.
//
// Build & run:  ./build/examples/word_embeddings

#include <cstdio>

#include "common/timer.h"
#include "core/approx_cluster.h"
#include "core/optimus.h"
#include "data/datasets.h"
#include "solvers/bmm.h"
#include "solvers/lemp/lemp.h"

int main() {
  using namespace mips;

  // The GloVe-Twitter f=100 preset at bench scale: 2,000 query vectors
  // against ~21,870 embedding vectors.
  auto preset = FindModelPreset("glove-twitter-100");
  preset.status().CheckOK();
  auto model = MakeModel(*preset, 1.0);
  model.status().CheckOK();
  std::printf("vocabulary: %d embeddings, queries: %d, f=%d\n",
              model->num_items(), model->num_users(), model->num_factors());

  // --- Exact neighbors via OPTIMUS (BMM vs LEMP). ---
  BmmSolver bmm;
  LempSolver lemp;
  Optimus optimus;
  TopKResult neighbors;
  OptimusReport report;
  optimus
      .Run(ConstRowBlock(model->users), ConstRowBlock(model->items),
           /*k=*/8, {&bmm, &lemp}, &neighbors, &report)
      .CheckOK();
  std::printf("OPTIMUS chose %s (%.3f s end-to-end)\n", report.chosen.c_str(),
              report.total_seconds);
  for (Index q = 0; q < 3; ++q) {
    std::printf("query %d nearest:", q);
    for (Index e = 0; e < 4; ++e) {
      std::printf("  %d (%.2f)", neighbors.Row(q)[e].item,
                  neighbors.Row(q)[e].score);
    }
    std::printf("\n");
  }

  // --- Point queries: one word at a time (online serving). ---
  // LEMP answers single queries without batching; useful when requests
  // trickle in instead of arriving as one batch.
  LempSolver point_index;
  point_index.Prepare(ConstRowBlock(model->users), ConstRowBlock(model->items))
      .CheckOK();
  WallTimer timer;
  TopKResult one;
  for (Index q = 0; q < 100; ++q) {
    point_index.TopKForUsers(8, std::span<const Index>(&q, 1), &one)
        .CheckOK();
  }
  std::printf("\npoint-query serving: %.1f us/query (LEMP, scan fraction "
              "%.2f)\n",
              timer.Seconds() / 100 * 1e6, point_index.last_scan_fraction());

  // --- Approximate alternative: cluster top-K (Koenigstein). ---
  // Serves each query its cluster's list: much cheaper, not exact.  The
  // paper's MAXIMUS turns this bound into an exact method instead.
  ApproxClusterOptions approx_options;
  approx_options.num_clusters = 128;
  ApproxClusterTopK approx(approx_options);
  approx.Prepare(ConstRowBlock(model->users), ConstRowBlock(model->items))
      .CheckOK();
  timer.Restart();
  TopKResult approx_result;
  approx.TopKAll(8, &approx_result).CheckOK();
  const double approx_time = timer.Seconds();
  const double recall = MeanRecallAtK(approx_result, neighbors);
  std::printf("approximate cluster top-K: %.3f s, recall@8 = %.3f "
              "(exactness is what MAXIMUS adds)\n",
              approx_time, recall);
  return 0;
}
