// Top-K extraction over materialized score rows and blocks.
//
// Reduces each row of an already computed b x n score block (for example
// the approximate tier's centroid scores) to its K largest entries with a
// per-row bounded heap.  BMM no longer goes through here: it fuses the
// selection into the GEMM tiles (topk/fused_topk.h) and never writes a
// score block.  GemmNT + TopKFromScoreBlock stays as the unfused
// reference that scorer is tested against bit for bit.

#ifndef MIPS_TOPK_TOPK_BLOCK_H_
#define MIPS_TOPK_TOPK_BLOCK_H_

#include "topk/result.h"
#include "topk/topk_heap.h"

namespace mips {

/// Reduces one score row scores[0..n) to its top K entries (written to
/// out[0..k), sorted descending).  Item j is reported as id
/// `item_ids ? item_ids[j] : j + item_offset`.
void TopKFromRow(const Real* scores, Index n, Index k, Index item_offset,
                 const Index* item_ids, TopKEntry* out);

/// Reduces an m x n score block (leading dimension lds) into result rows
/// [row_offset, row_offset + m) of *out.  Plain column indices are offset
/// by `item_offset` or remapped through `item_ids` (length n) when given.
void TopKFromScoreBlock(const Real* scores, Index m, Index n, Index lds,
                        Index k, Index item_offset, const Index* item_ids,
                        TopKResult* out, Index row_offset);

}  // namespace mips

#endif  // MIPS_TOPK_TOPK_BLOCK_H_
