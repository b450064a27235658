// Item-axis partitioning for sharded MIPS serving.
//
// A sharded engine splits the ITEM catalog — the axis that grows beyond
// one node's memory in production recommenders — into disjoint shards and
// serves each with its own MipsEngine.  Two placement strategies:
//
//   * kContiguous — shard s owns a contiguous global-id range (SplitRange
//     over [0, |I|)).  Zero-copy: each shard is a ConstRowBlock view into
//     the original item matrix, and local→global is an offset add.  The
//     natural choice when ids are already grouped by catalog segment
//     (and the one that exposes heterogeneous per-shard statistics, e.g.
//     a norm-skewed segment next to a flat one).
//   * kHash — shard of item i is a multiplicative hash of i.  Rows are
//     gathered into per-shard matrices owned by the partition, with an
//     explicit local→global id map.  Spreads any norm/popularity skew
//     uniformly, so shards stay load-balanced at the cost of one copy of
//     the item matrix.
//   * kGrowth — contiguous like kContiguous, but the block size is
//     PINNED instead of derived from the current item count: shard s
//     owns rows [s*B, (s+1)*B) and the LAST shard additionally absorbs
//     everything past (S-1)*B.  Under kContiguous every append re-splits
//     the range and moves rows between all shards; under kGrowth with a
//     pinned B, appends land only in the newest shard, so a growing
//     catalog re-partitions without disturbing the prefix shards' item
//     sets.  (LiveCatalog does not pin B: each epoch derives it from its
//     own item count.)  Zero-copy views, like kContiguous.
//
// Every item lives in exactly one shard, so per-shard exact top-K merged
// across shards (topk/merge.h) reproduces the unsharded answer.

#ifndef MIPS_SHARD_PARTITION_H_
#define MIPS_SHARD_PARTITION_H_

#include <string>
#include <vector>

#include "common/dcheck.h"
#include "common/status.h"
#include "linalg/matrix.h"

namespace mips {

/// Item placement policy; see the file comment.
enum class ShardingStrategy { kContiguous, kHash, kGrowth };

const char* ToString(ShardingStrategy strategy);
/// Parses "contiguous" / "hash" / "growth" (CLI and bench flags).
StatusOr<ShardingStrategy> ParseShardingStrategy(const std::string& name);

/// Shard index of a global item id under kHash placement (64-bit
/// multiplicative mix so consecutive ids spread uniformly).
int HashShardOfItem(Index global_id, int num_shards);

/// One shard's slice of the item catalog.  `items` views either the
/// original matrix (contiguous) or partition-owned gathered storage
/// (hash); rows are in increasing global-id order either way.
struct ItemShard {
  ConstRowBlock items;
  /// kContiguous: global id = local + global_offset.
  Index global_offset = 0;
  /// kHash: global id = global_ids[local]; empty for kContiguous.
  std::vector<Index> global_ids;

  Index num_items() const { return items.rows(); }
  /// Precondition: 0 <= local < num_items() (DCHECKed — a local id from
  /// one shard remapped through another is the classic sharding bug, and
  /// under kHash it reads out of the global_ids vector's bounds).
  Index ToGlobal(Index local) const {
    MIPS_DCHECK_GE(local, 0);
    MIPS_DCHECK_LT(local, num_items());
    return global_ids.empty() ? local + global_offset
                              : global_ids[static_cast<std::size_t>(local)];
  }
};

/// A disjoint, exhaustive split of an item matrix into shards.  Shards
/// may be empty when num_shards exceeds the item count (a sharded engine
/// simply has nothing to ask them).  The source matrix must outlive the
/// partition (contiguous shards view it directly).
class ItemPartition {
 public:
  /// Empty partition (no shards); Create() returns the real thing.
  ItemPartition() = default;

  /// Move-only: hash shards' `items` views point into this partition's
  /// own gathered_ storage.  A copy would deep-copy the storage while the
  /// copied views kept pointing at the source — a use-after-free once the
  /// source dies.  Moves keep the Matrix heap pointers, so views survive.
  ItemPartition(const ItemPartition&) = delete;
  ItemPartition& operator=(const ItemPartition&) = delete;
  ItemPartition(ItemPartition&&) = default;
  ItemPartition& operator=(ItemPartition&&) = default;

  /// Splits `items` into `num_shards` shards under `strategy`.
  /// InvalidArgument for num_shards < 1 or an empty item set.
  /// `growth_block` pins the kGrowth block size B (0 derives
  /// ceil(rows / num_shards) from the current item count); it is ignored
  /// by the other strategies.  Pin B across successive Create calls on a
  /// growing catalog to keep the prefix shards' contents stable.
  static StatusOr<ItemPartition> Create(const ConstRowBlock& items,
                                        int num_shards,
                                        ShardingStrategy strategy,
                                        Index growth_block = 0);

  int num_shards() const { return static_cast<int>(shards_.size()); }
  const ItemShard& shard(int s) const {
    return shards_[static_cast<std::size_t>(s)];
  }
  ShardingStrategy strategy() const { return strategy_; }
  Index num_items() const { return num_items_; }
  /// The resolved kGrowth block size (0 under other strategies).
  Index growth_block() const { return growth_block_; }

  /// Inverse map: the shard owning a global item id.
  /// Precondition: 0 <= global_id < num_items() (DCHECKed).
  int ShardOfItem(Index global_id) const;

 private:
  std::vector<ItemShard> shards_;
  /// Gathered per-shard row storage backing hash-shard views (parallel to
  /// shards_ under kHash; unused for kContiguous).
  std::vector<Matrix> gathered_;
  ShardingStrategy strategy_ = ShardingStrategy::kContiguous;
  Index num_items_ = 0;
  /// Resolved kGrowth block size B (0 for the other strategies).
  Index growth_block_ = 0;
};

}  // namespace mips

#endif  // MIPS_SHARD_PARTITION_H_
