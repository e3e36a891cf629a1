// Cost-based choice of the I/O-performing operator.
//
// The paper leaves this to future work ("Further research is needed to
// create a cost model to support the choice of the I/O-performing
// operator", Sec. 7). This module implements it: document statistics
// derived from the import's path summary estimate, per location path, how
// many nodes a plan examines and how many clusters it must visit; plugging
// those into the disk and CPU models yields estimated total costs per plan
// kind, and the planner picks the cheapest. The Q7/Q15 selectivity
// contrast in the evaluation is exactly the crossover this model captures.
#ifndef NAVPATH_COMPILER_COST_MODEL_H_
#define NAVPATH_COMPILER_COST_MODEL_H_

#include <unordered_map>
#include <vector>

#include "compiler/plan.h"
#include "store/path_summary.h"
#include "xml/dom.h"
#include "xpath/location_path.h"

namespace navpath {

/// Per-document statistics for cardinality estimation: tag counts and
/// parent/child, ancestor/descendant and element/attribute pair counts.
/// They are derived from the path summary. Every DOM node maps to the one
/// summary node with its root-to-node tag path, so each counter is an
/// exact sum over summary nodes, weighted by their instance counts.
class DocumentStats {
 public:
  /// The statistics of the document `summary` describes; `doc` supplies
  /// the page and border counts. One depth-first pass over the summary
  /// nodes, independent of the document's node count; each node costs
  /// one update per distinct tag among its summary ancestors.
  static DocumentStats FromSummary(const PathSummary& summary,
                                   const ImportedDocument& doc);

  /// FromSummary over a summary tallied from `tree`, for callers that
  /// pass a tree: navbench's set-up, and fixtures imported without a
  /// summary. An empty tree gives empty statistics.
  static DocumentStats Build(const DomTree& tree, const ImportedDocument& doc,
                             std::size_t page_size);

  std::uint64_t node_count() const { return node_count_; }
  std::uint64_t page_count() const { return page_count_; }
  double nodes_per_page() const {
    return page_count_ == 0 ? 1.0
                            : static_cast<double>(node_count_) /
                                  static_cast<double>(page_count_);
  }
  /// Probability that an edge traversal crosses clusters.
  double crossing_probability() const { return crossing_probability_; }
  TagId root_tag() const { return root_tag_; }
  std::uint64_t border_records() const { return border_records_; }

  std::uint64_t CountOfTag(TagId tag) const { return Get(tag_counts_, tag); }
  /// Total attributes named `attr` on elements with tag `parent`.
  std::uint64_t AttributeCount(TagId parent, TagId attr) const {
    return Get(attr_pair_, PairKey(parent, attr));
  }
  std::uint64_t AttributeCountAny(TagId parent) const {
    return Get(attr_any_, parent);
  }
  /// Total children with tag `child` under elements with tag `parent`.
  std::uint64_t ChildCount(TagId parent, TagId child) const {
    return Get(child_pair_, PairKey(parent, child));
  }
  std::uint64_t ChildCountAny(TagId parent) const {
    return Get(child_any_, parent);
  }
  /// Total proper descendants with tag `desc` under elements of `parent`.
  std::uint64_t DescendantCount(TagId parent, TagId desc) const {
    return Get(desc_pair_, PairKey(parent, desc));
  }
  std::uint64_t DescendantCountAny(TagId parent) const {
    return Get(desc_any_, parent);
  }

  /// Every tag with a nonzero count, ascending: the estimation universe,
  /// over which each step spreads its expected result tags.
  const std::vector<TagId>& tags() const { return tags_; }

 private:
  using TagPairCounts =
      std::unordered_map<std::uint64_t, std::uint64_t>;  // (a<<32|b) -> n

  static std::uint64_t PairKey(TagId a, TagId b) {
    return (static_cast<std::uint64_t>(a) << 32) | b;
  }
  template <typename Map>
  static std::uint64_t Get(const Map& counts, typename Map::key_type key) {
    const auto it = counts.find(key);
    return it == counts.end() ? 0 : it->second;
  }

  std::uint64_t node_count_ = 0;
  std::uint64_t page_count_ = 0;
  std::uint64_t border_records_ = 0;
  double crossing_probability_ = 0.0;
  TagId root_tag_ = 0;
  std::unordered_map<TagId, std::uint64_t> tag_counts_;
  std::unordered_map<TagId, std::uint64_t> child_any_;
  std::unordered_map<TagId, std::uint64_t> desc_any_;
  TagPairCounts child_pair_;
  TagPairCounts desc_pair_;
  TagPairCounts attr_pair_;
  std::unordered_map<TagId, std::uint64_t> attr_any_;
  std::vector<TagId> tags_;
};

/// Estimated evaluation profile of one location path.
struct PathEstimate {
  double result_cardinality = 0;  // nodes the path selects
  double nodes_examined = 0;      // navigation work across all steps
  double crossings = 0;           // expected inter-cluster traversals
  double clusters_touched = 0;    // distinct clusters a navigational plan
                                  // must load
  /// Pages an XScan-style sweep must visit: the whole document under
  /// DocumentStats, the touched-extent union under a summary.
  double scan_pages = 0;
  /// True when the path-summary synopsis supplied exact cardinalities
  /// (result, per-step and nodes_examined are then exact counts, not
  /// independence-assumption estimates; crossings stay estimated).
  bool summary_exact = false;
};

/// Estimates `path` against the statistics. When `summary` is non-null
/// and the path lies in the synopsis' exactness domain (absolute,
/// predicate-free, downward axes), cardinalities are exact.
PathEstimate EstimatePath(const DocumentStats& stats,
                          const LocationPath& path,
                          const PathSummary* summary = nullptr);

/// Fraction (in [0, 1]) of a path's estimated output already produced,
/// for progress-discounting remaining-cost and remaining-clusters
/// estimates mid-run. Cardinality estimates below one node are clamped
/// to one: a degenerate (sub-unit) estimate must still let produced
/// output discount the remainder, otherwise remaining cost stays frozen
/// at its a-priori value and SJF ordering degenerates to tie-breaking.
double EstimatedProgress(std::uint64_t produced,
                         double estimated_cardinality);

/// As EstimatePath, additionally recording the estimated cardinality after
/// each step into `per_step` (resized to path.length(); entry i is the
/// estimate after step i+1). EXPLAIN ANALYZE pairs these with the actual
/// per-step row counts.
PathEstimate EstimatePathDetailed(const DocumentStats& stats,
                                  const LocationPath& path,
                                  std::vector<double>* per_step,
                                  const PathSummary* summary = nullptr);

/// Estimated total simulated cost of running `path` with each plan kind.
struct PlanCosts {
  double simple = 0;
  double xschedule = 0;
  double xscan = 0;

  PlanKind Best() const {
    if (xschedule <= simple && xschedule <= xscan) {
      return PlanKind::kXSchedule;
    }
    return xscan <= simple ? PlanKind::kXScan : PlanKind::kSimple;
  }
};

PlanCosts EstimatePlanCosts(const DocumentStats& stats,
                            const LocationPath& path, const DiskModel& disk,
                            const CpuCostModel& cpu,
                            const PathSummary* summary = nullptr);

/// The same prices for a path of `path_length` steps whose estimate the
/// caller already holds (EstimatePath or EstimatePathDetailed of that
/// path), so the path is not estimated a second time.
PlanCosts EstimatePlanCosts(const DocumentStats& stats,
                            const PathEstimate& est, std::size_t path_length,
                            const DiskModel& disk, const CpuCostModel& cpu);

/// The optimizer: picks the cheapest I/O-performing operator for `query`
/// (summing estimates over count() operands).
PlanKind ChoosePlanKind(const DocumentStats& stats, const PathQuery& query,
                        const DiskModel& disk, const CpuCostModel& cpu,
                        const PathSummary* summary = nullptr);

/// Overload degradation tier for a serving layer: a plan for `query` with
/// a much smaller buffer/prefetch footprint than `requested`, priced by
/// the cost model so the controller knows the latency it is trading for
/// the freed resources. Candidates are a quarter-window XSchedule (the
/// elevator still reorders, over a shallower pool) and the Simple-method
/// chain (synchronous, two-page footprint); the helper returns whichever
/// prices cheaper. Only an XSchedule request has a meaningful footprint
/// to shrink — for other kinds `viable` stays false and `plan` echoes the
/// request.
struct DegradedTier {
  PlanOptions plan;           // the tier to re-plan onto
  double requested_cost = 0;  // estimated cost of the requested plan
  double degraded_cost = 0;   // estimated cost of `plan`
  bool viable = false;        // a lower-footprint tier exists
};

DegradedTier ChooseDegradedTier(const DocumentStats& stats,
                                const PathQuery& query,
                                const PlanOptions& requested,
                                const DiskModel& disk,
                                const CpuCostModel& cpu,
                                const PathSummary* summary = nullptr);

/// Sharded fan-out pricing (src/shard): a query fanned across K shards
/// finishes when its slowest participant does — the shards' drives run in
/// parallel — and then pays a coordinator-side document-order merge over
/// the gapped order keys of the combined result.
struct ShardFanoutEstimate {
  double parallel_cost = 0;  // max over participants' sub-plan costs
  double serial_cost = 0;    // sum: what one drive would have paid
  double merge_cost = 0;     // coordinator merge of the combined result
  /// serial / (parallel + merge); 1.0 for width-1 routes, degrades
  /// toward 1/K-imbalance for skewed partitions.
  double speedup = 1.0;
  std::size_t participants = 0;
};

/// Prices fanning one query over participants whose estimated private
/// sub-plan costs are `per_shard_costs`. `result_cardinality` nodes cross
/// the coordinator merge at `merge_op_cost` each (a compare-and-emit on
/// the order key; callers pass the CPU model's set/sort op cost).
ShardFanoutEstimate EstimateShardFanout(
    const std::vector<double>& per_shard_costs, double result_cardinality,
    double merge_op_cost);

}  // namespace navpath

#endif  // NAVPATH_COMPILER_COST_MODEL_H_
