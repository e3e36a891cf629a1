// Path-partitioned multi-drive store (ROADMAP scale-out item).
//
// One logical document is partitioned by subtree across K shards, each a
// full Database instance: its own SimulatedDisk with its own elevator, its
// own BufferManager, and — crucially — its own SimClock. K independent
// clocks, all cold-started at zero, model K drives running in parallel: a
// workload fanned out over the shards finishes when the slowest shard
// does, so the sharded makespan is the max over per-shard makespans.
//
// The partitioning scheme follows Arion et al. ("Path Summaries and Path
// Partitioning in Modern XML Databases", PAPERS.md): partition units are
// the document's depth-1 path groups — the root's children grouped by tag
// — weighted by their exact subtree record bytes and placed onto shards
// with a longest-processing-time greedy pass. Every shard keeps a copy of
// the root element under its original order key, so per-shard documents
// are well-formed, per-shard path summaries exist, and those summaries
// double as the router's pruning table (shard_router.h). Order keys are
// assigned on the full document before partitioning and survive the
// per-shard import verbatim, which is what makes cross-shard results
// mergeable in document order.
//
// At K = 1 nothing is pruned: the single shard imports the source
// document exactly as an unsharded Database would, byte for byte —
// including the fault-injector seed (ShardFaultSeed(base, 0) == base) —
// which is the identity the routing tests and the workload_shard bench
// gate on.
#ifndef NAVPATH_SHARD_SHARDED_STORE_H_
#define NAVPATH_SHARD_SHARDED_STORE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "compiler/cost_model.h"
#include "store/database.h"

namespace navpath {

/// Deterministic per-shard fault seed. Shard 0 keeps the base seed — the
/// K=1 shard must replay an unsharded database's fault stream exactly —
/// and every other shard mixes its id through a splitmix64 finalizer, so
/// fault tests stay reproducible at any K without the shards sharing one
/// random stream.
std::uint64_t ShardFaultSeed(std::uint64_t base, std::size_t shard);

struct ShardOptions {
  /// Number of shards (drives). Must be >= 1.
  std::size_t shards = 1;

  /// Per-shard database options, applied verbatim to every shard: each
  /// shard gets its own `buffer_pages`-page pool. Callers comparing
  /// against an unsharded baseline at constant aggregate memory divide
  /// the total by K themselves. `faults.seed` is treated as the base
  /// seed and re-derived per shard via ShardFaultSeed.
  DatabaseOptions db;

  /// Document source, called once, with shard 0's tag registry. Each
  /// shard imports a pruned copy of that one document holding the root
  /// plus its owned depth-1 subtrees; the other shards' registries are
  /// given the names the source interned, under the same ids.
  std::function<DomTree(TagRegistry*)> source;

  /// Clustering-policy factory; invoked once per shard import.
  std::function<std::unique_ptr<ClusteringPolicy>()> clustering;
};

/// One depth-1 partition unit: all root children sharing a tag.
struct ShardUnit {
  std::string tag;            // child tag name under the root
  std::size_t owner = 0;      // shard the unit was placed on
  std::uint64_t weight = 0;   // exact subtree record bytes (all members)
  std::uint64_t subtrees = 0; // number of root children in the unit
};

class ShardedStore {
 public:
  /// Generates the document once, partitions its depth-1 units
  /// by weight (LPT greedy, deterministic tie-breaks: heavier first,
  /// earlier-in-document first among equals, lowest shard id among
  /// equally loaded shards), prunes each shard's copy to the root plus
  /// its owned units, and imports shard-locally. Fails if the source
  /// yields an empty document or options are malformed.
  static Result<std::unique_ptr<ShardedStore>> Build(
      const ShardOptions& options);

  std::size_t shard_count() const { return shards_.size(); }
  /// Out-of-domain queries run here (only valid at K=1, where the home
  /// shard holds the whole document).
  std::size_t home_shard() const { return 0; }

  Database* db(std::size_t shard) { return shards_[shard].db.get(); }
  const Database* db(std::size_t shard) const {
    return shards_[shard].db.get();
  }
  const ImportedDocument& doc(std::size_t shard) const {
    return shards_[shard].doc;
  }
  ImportedDocument* mutable_doc(std::size_t shard) {
    return &shards_[shard].doc;
  }
  const DocumentStats& stats(std::size_t shard) const {
    return shards_[shard].stats;
  }
  /// Per-shard path summary; never null (shard imports always build it —
  /// the router depends on it).
  const PathSummary* summary(std::size_t shard) const {
    return shards_[shard].db->summary();
  }

  const std::string& root_tag() const { return root_tag_; }
  const std::vector<ShardUnit>& units() const { return units_; }
  /// Owning shard for a depth-1 child tag, if that tag occurs.
  std::optional<std::size_t> OwnerOf(std::string_view tag) const;

 private:
  struct ShardState {
    std::unique_ptr<Database> db;
    ImportedDocument doc;
    DocumentStats stats;
  };

  ShardedStore() = default;

  std::vector<ShardState> shards_;
  std::vector<ShardUnit> units_;
  std::unordered_map<std::string, std::size_t> owner_;  // tag -> unit index
  std::string root_tag_;
};

}  // namespace navpath

#endif  // NAVPATH_SHARD_SHARDED_STORE_H_
