#include "shard/shard_router.h"

#include "xpath/parser.h"

namespace navpath {

namespace {

/// Whether the replicated root element can appear in the result of
/// `path`, a path inside the summary's exactness domain. The frontier
/// starts at the root (absolute paths evaluate from the root element,
/// matching the parser's first-step projection and the oracle); with
/// downward-only axes the root survives a step only through
/// self/descendant-or-self whose test matches it, and once dropped it
/// never re-enters.
bool SelectsRoot(const LocationPath& path, const std::string& root_tag) {
  bool root_in_frontier = true;
  for (const LocationStep& step : path.steps) {
    root_in_frontier =
        root_in_frontier &&
        (step.axis == Axis::kSelf || step.axis == Axis::kDescendantOrSelf) &&
        (step.test.kind != NodeTest::Kind::kName ||
         step.test.name == root_tag);
  }
  return root_in_frontier;
}

}  // namespace

Result<QueryRoute> ShardRouter::Route(const std::string& query) const {
  const std::size_t shard_count = store_->shard_count();
  QueryRoute route;
  route.per_shard.resize(shard_count);

  // Each shard re-parses the query against its own registry so node
  // tests resolve to shard-local TagIds. Parses of the same text agree
  // structurally; a name unknown to some shard simply interns fresh and
  // matches nothing in that shard's summary.
  std::vector<PathQuery> parsed;
  parsed.reserve(shard_count);
  for (std::size_t k = 0; k < shard_count; ++k) {
    NAVPATH_ASSIGN_OR_RETURN(
        PathQuery q, ParseQuery(query, store_->db(k)->tags()));
    route.per_shard[k].mode = q.mode;
    parsed.push_back(std::move(q));
  }

  std::vector<bool> participates(shard_count, false);
  const std::size_t operand_count = parsed[0].paths.size();
  for (std::size_t op = 0; op < operand_count; ++op) {
    const LocationPath& path = parsed[0].paths[op];
    if (!PathSummary::Supports(path)) {
      route.unrouted = true;
      route.reason =
          "relative path, predicate, or upward/sideways axis: outside the "
          "path summary's exactness domain";
      route.root_dup = 0;
      route.participants.assign(1, store_->home_shard());
      for (std::size_t k = 0; k < shard_count; ++k) {
        route.per_shard[k].paths.clear();
      }
      route.per_shard[store_->home_shard()] =
          std::move(parsed[store_->home_shard()]);
      return route;
    }
    // Summary-pruned participant set: only shards whose partition can
    // produce a result run this operand. When no shard can, the home
    // shard still schedules the job (its summary collapses it to an
    // empty plan), mirroring the unsharded executor's behavior.
    std::vector<std::size_t> shards;
    for (std::size_t k = 0; k < shard_count; ++k) {
      if (!store_->summary(k)->Match(parsed[k].paths[op]).empty) {
        shards.push_back(k);
      }
    }
    if (shards.empty()) shards.push_back(store_->home_shard());
    if (SelectsRoot(path, store_->root_tag())) {
      route.root_dup += shards.size() - 1;
    }
    for (const std::size_t k : shards) {
      route.per_shard[k].paths.push_back(parsed[k].paths[op]);
      participates[k] = true;
    }
  }

  for (std::size_t k = 0; k < shard_count; ++k) {
    if (participates[k]) route.participants.push_back(k);
  }
  return route;
}

}  // namespace navpath
