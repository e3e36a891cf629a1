// Compile-time query routing over a path-partitioned store.
//
// The router decides, per location path, which shards must run it. Its
// domain is the path summary's exactness domain (PathSummary::Supports):
// absolute, predicate-free paths over downward axes (self, child,
// descendant, descendant-or-self, attribute). Such a path only ever
// navigates inside one shard's subtree, because partitioning is by
// depth-1 subtree and every non-root node's whole subtree is co-located.
//
// Routing is summary-driven: an operand participates on exactly the
// shards whose per-shard path summary proves the path non-empty. A
// `/site/regions//item` therefore routes to the single shard owning
// `regions`; a `//keyword` fans out to every shard whose partition
// contains keywords; a path no shard can satisfy runs on the home shard
// (whose summary collapses it to an empty plan, exactly as the unsharded
// executor would).
//
// The one replicated node is the root element, present on every shard
// under its original order key. The router tracks the root through the
// step frontier: a query whose result can contain the root reports the
// overcount (`root_dup`) so merges can correct counts. Out-of-domain
// queries are flagged `unrouted` and mapped to the home shard — correct
// only at K=1, where the home shard holds the full document; callers
// reject them at K>1.
#ifndef NAVPATH_SHARD_SHARD_ROUTER_H_
#define NAVPATH_SHARD_SHARD_ROUTER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "shard/sharded_store.h"
#include "xpath/location_path.h"

namespace navpath {

/// Where one query runs: per-shard sub-queries plus merge metadata.
struct QueryRoute {
  /// Sub-query for each shard, parsed against that shard's registry;
  /// shards with an empty `paths` vector sit this query out. All entries
  /// share the original query's mode.
  std::vector<PathQuery> per_shard;
  /// Shards with a non-empty sub-query, ascending.
  std::vector<std::size_t> participants;
  /// Count overcount from the replicated root: summed over operand paths
  /// that select the root element, (participants - 1) each. Node-mode
  /// merges equivalently drop duplicate order keys.
  std::uint64_t root_dup = 0;
  /// The query is outside the router's domain; the whole query was
  /// assigned to the home shard, which is only correct at K=1.
  bool unrouted = false;
  /// Human-readable reason when unrouted.
  std::string reason;

  std::size_t width() const { return participants.size(); }
};

class ShardRouter {
 public:
  /// `store` must outlive the router.
  explicit ShardRouter(ShardedStore* store) : store_(store) {}

  /// Parses `query` against every shard's registry and routes each
  /// operand path. Parse errors fail the call; out-of-domain queries
  /// succeed with `unrouted` set (home-shard assignment).
  Result<QueryRoute> Route(const std::string& query) const;

 private:
  ShardedStore* store_;
};

}  // namespace navpath

#endif  // NAVPATH_SHARD_SHARD_ROUTER_H_
