#include "compiler/cost_model.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

namespace navpath {

DocumentStats DocumentStats::FromSummary(const PathSummary& summary,
                                         const ImportedDocument& doc) {
  DocumentStats stats;
  stats.node_count_ = summary.total_instances();
  stats.page_count_ = doc.page_count();
  stats.border_records_ = doc.border_pairs * 2;
  stats.root_tag_ = summary.node(summary.root()).tag;
  if (stats.node_count_ > 1) {
    stats.crossing_probability_ =
        static_cast<double>(doc.border_pairs) /
        static_cast<double>(stats.node_count_ - 1);  // per logical edge
  }

  // A summary node's `count` DOM nodes share its tag path, so each of them
  // forms the same pairs with its parent and ancestors. A depth-first walk
  // carries the ancestors' tags with their multiplicities: an ancestor tag
  // that occurs m times on the path adds m * count to its pair at once, so
  // a path that repeats one tag costs one update per node, not one per
  // ancestor. (A path of distinct tags still has as many pairs as
  // ancestors.)
  std::vector<std::pair<TagId, std::uint64_t>> ancestors;  // tag, times
  const auto times_of = [&](TagId tag) {
    return std::find_if(ancestors.begin(), ancestors.end(),
                        [tag](const auto& a) { return a.first == tag; });
  };
  const auto tally = [&](const PathSummary::Node& n) {
    if (n.count == 0) return;  // a delete can leave an empty path behind
    stats.tag_counts_[n.tag] += n.count;
    if (n.parent == PathSummary::kNoParent) return;
    const TagId parent_tag = summary.node(n.parent).tag;
    if (n.kind == DomNodeKind::kAttribute) {
      stats.attr_pair_[PairKey(parent_tag, n.tag)] += n.count;
      stats.attr_any_[parent_tag] += n.count;
      return;
    }
    stats.child_pair_[PairKey(parent_tag, n.tag)] += n.count;
    stats.child_any_[parent_tag] += n.count;
    for (const auto& [ancestor_tag, times] : ancestors) {
      stats.desc_pair_[PairKey(ancestor_tag, n.tag)] += times * n.count;
      stats.desc_any_[ancestor_tag] += times * n.count;
    }
  };
  // Each frame is a summary node on the current path and the index of its
  // next child to visit. Entering a node tallies it against its ancestors
  // and then adds its own tag; leaving removes it again, and a tag whose
  // multiplicity falls to 0 is the one added last.
  std::vector<std::pair<std::uint32_t, std::size_t>> path;
  const auto enter = [&](std::uint32_t i) {
    const PathSummary::Node& n = summary.node(i);
    tally(n);
    const auto it = times_of(n.tag);
    if (it == ancestors.end()) {
      ancestors.emplace_back(n.tag, 1);
    } else {
      ++it->second;
    }
    path.emplace_back(i, 0);
  };
  enter(summary.root());
  while (!path.empty()) {
    const auto [i, next_child] = path.back();
    const PathSummary::Node& n = summary.node(i);
    if (next_child < n.children.size()) {
      ++path.back().second;
      enter(n.children[next_child]);
      continue;
    }
    path.pop_back();
    const auto it = times_of(n.tag);
    if (--it->second == 0) {
      NAVPATH_DCHECK(it + 1 == ancestors.end());
      ancestors.pop_back();
    }
  }
  for (const auto& [tag, count] : stats.tag_counts_) {
    stats.tags_.push_back(tag);
  }
  std::sort(stats.tags_.begin(), stats.tags_.end());
  return stats;
}

DocumentStats DocumentStats::Build(const DomTree& tree,
                                   const ImportedDocument& doc,
                                   std::size_t /*page_size*/) {
  if (tree.empty()) return DocumentStats();
  // Only the counts are read; every node's page is given as 0.
  return FromSummary(
      *PathSummary::Build(tree, std::vector<PageId>(tree.size(), 0)), doc);
}

namespace {

/// Expected node counts per tag at the current step frontier.
using TagDistribution = std::unordered_map<TagId, double>;

double Total(const TagDistribution& dist) {
  double total = 0;
  for (const auto& [tag, n] : dist) total += n;
  return total;
}

}  // namespace

PathEstimate EstimatePath(const DocumentStats& stats,
                          const LocationPath& path,
                          const PathSummary* summary) {
  return EstimatePathDetailed(stats, path, nullptr, summary);
}

namespace {

/// Exact estimate from the path-summary synopsis; only called when the
/// path lies in the summary's exactness domain.
PathEstimate EstimateFromSummary(const DocumentStats& stats,
                                 const PathSummary& summary,
                                 const LocationPath& path,
                                 std::vector<double>* per_step) {
  const SummaryMatch match = summary.Match(path);
  NAVPATH_DCHECK(match.applicable);
  PathEstimate estimate;
  estimate.summary_exact = true;
  estimate.result_cardinality = static_cast<double>(match.result_count);
  estimate.nodes_examined = static_cast<double>(match.nodes_examined);
  // Crossings stay an estimate: the synopsis counts instances, not which
  // logical edges became border pairs at import.
  estimate.crossings = estimate.nodes_examined * stats.crossing_probability();
  // The touched-extent union is the page set any navigational plan can
  // be confined to — a hard bound, unlike balls-into-bins.
  const std::uint64_t extent_pages =
      summary.ExtentUnionPages(match.touched);
  estimate.scan_pages = static_cast<double>(std::max<std::uint64_t>(
      1, extent_pages));
  // Same balls-into-bins shape as the stats path, but the candidate page
  // set is the exact extent union instead of an examined-nodes guess.
  const double candidate_pages = std::min(
      estimate.scan_pages,
      std::max(1.0, estimate.nodes_examined / stats.nodes_per_page()));
  estimate.clusters_touched = std::min(
      estimate.scan_pages,
      1.0 + candidate_pages *
                (1.0 - std::exp(-estimate.crossings / candidate_pages)));
  if (per_step != nullptr) {
    per_step->clear();
    per_step->reserve(match.steps.size());
    for (const SummaryMatch::Step& step : match.steps) {
      per_step->push_back(static_cast<double>(step.selected));
    }
  }
  return estimate;
}

}  // namespace

PathEstimate EstimatePathDetailed(const DocumentStats& stats,
                                  const LocationPath& path,
                                  std::vector<double>* per_step,
                                  const PathSummary* summary) {
  if (summary != nullptr && PathSummary::Supports(path)) {
    return EstimateFromSummary(stats, *summary, path, per_step);
  }
  PathEstimate estimate;
  if (per_step != nullptr) {
    per_step->clear();
    per_step->reserve(path.steps.size());
  }
  const std::vector<TagId>& universe = stats.tags();
  TagDistribution dist;
  dist[stats.root_tag()] = 1.0;

  auto per_node = [&](TagId t, std::uint64_t pair_count) {
    const std::uint64_t c = stats.CountOfTag(t);
    return c == 0 ? 0.0
                  : static_cast<double>(pair_count) / static_cast<double>(c);
  };

  for (const LocationStep& step : path.steps) {
    TagDistribution next;
    double examined = 0;
    const bool name_test = step.test.kind == NodeTest::Kind::kName;
    auto admit = [&](TagId result_tag, double n) {
      if (n <= 0) return;
      if (name_test && result_tag != step.test.tag) return;
      double& slot = next[result_tag];
      slot = std::min(slot + n,
                      static_cast<double>(stats.CountOfTag(result_tag)));
    };

    for (const auto& [t, n] : dist) {
      switch (step.axis) {
        case Axis::kSelf:
          examined += n;
          admit(t, n);
          break;
        case Axis::kAttribute:
          examined += n * per_node(t, stats.AttributeCountAny(t));
          for (const TagId x : universe) {
            admit(x, n * per_node(t, stats.AttributeCount(t, x)));
          }
          break;
        case Axis::kChild:
          examined += n * per_node(t, stats.ChildCountAny(t));
          for (const TagId x : universe) {
            admit(x, n * per_node(t, stats.ChildCount(t, x)));
          }
          break;
        case Axis::kDescendant:
        case Axis::kDescendantOrSelf:
          examined += n * per_node(t, stats.DescendantCountAny(t));
          for (const TagId x : universe) {
            admit(x, n * per_node(t, stats.DescendantCount(t, x)));
          }
          if (step.axis == Axis::kDescendantOrSelf) admit(t, n);
          break;
        case Axis::kParent:
          examined += n;
          for (const TagId x : universe) {
            // #t-nodes whose parent is an x-node, averaged per t-node.
            admit(x, n * per_node(t, stats.ChildCount(x, t)));
          }
          break;
        case Axis::kAncestor:
        case Axis::kAncestorOrSelf:
          for (const TagId x : universe) {
            // E[#x-ancestors of a t-node] = (x,t) descendant pairs / #t.
            const double anc = n * per_node(t, stats.DescendantCount(x, t));
            examined += anc;
            admit(x, anc);
          }
          if (step.axis == Axis::kAncestorOrSelf) admit(t, n);
          break;
        case Axis::kFollowingSibling:
        case Axis::kPrecedingSibling: {
          // Approximate: half of the parent's other children, weighted by
          // the parent-tag distribution of t-nodes.
          for (const TagId p : universe) {
            const double parent_share = per_node(t, stats.ChildCount(p, t));
            if (parent_share <= 0) continue;
            for (const TagId x : universe) {
              const double sib =
                  0.5 * n * parent_share * per_node(p, stats.ChildCount(p, x));
              examined += sib;
              admit(x, sib);
            }
          }
          break;
        }
      }
    }
    estimate.nodes_examined += examined;
    estimate.crossings += examined * stats.crossing_probability();
    dist = std::move(next);
    if (per_step != nullptr) per_step->push_back(Total(dist));
  }
  estimate.result_cardinality = Total(dist);
  // Distinct clusters: the crossings land on the pages that hold the
  // examined nodes; balls-into-bins gives the expected distinct count.
  const double candidate_pages = std::min(
      static_cast<double>(stats.page_count()),
      std::max(1.0, estimate.nodes_examined / stats.nodes_per_page()));
  estimate.clusters_touched =
      1.0 + candidate_pages *
                (1.0 - std::exp(-estimate.crossings / candidate_pages));
  // Without a summary nothing restricts a sweep: XScan visits every page.
  estimate.scan_pages = std::max(1.0, static_cast<double>(stats.page_count()));
  return estimate;
}

double EstimatedProgress(std::uint64_t produced,
                         double estimated_cardinality) {
  const double card = std::max(1.0, estimated_cardinality);
  return std::min(1.0, static_cast<double>(produced) / card);
}

namespace {

// Physical access costs (nanoseconds). The two factors below are
// calibrated against the measured simulator behaviour on fragmented
// layouts: navigational (Simple) access streams retain some locality,
// paying roughly half of a worst-case random read per page; the
// bounded-window C-SCAN elevator of the async path improves on random
// access by about a factor of six, independent of request density.
struct PhysicalReads {
  double sequential_read = 0;
  double random_read = 0;
  double elevator_read = 0;
};

PhysicalReads EstimatePhysicalReads(const DocumentStats& stats,
                                    const DiskModel& disk) {
  constexpr double kSimpleLocality = 0.55;
  constexpr double kElevatorGain = 8.0;
  PhysicalReads reads;
  reads.sequential_read = static_cast<double>(disk.transfer_time);
  const double worst_random = static_cast<double>(
      disk.AccessCost(0, std::max<PageId>(1, stats.page_count() / 3)));
  reads.random_read = reads.sequential_read +
                      kSimpleLocality * (worst_random - reads.sequential_read);
  reads.elevator_read = reads.sequential_read +
                        (worst_random - reads.sequential_read) / kElevatorGain;
  return reads;
}

}  // namespace

PlanCosts EstimatePlanCosts(const DocumentStats& stats,
                            const LocationPath& path, const DiskModel& disk,
                            const CpuCostModel& cpu,
                            const PathSummary* summary) {
  return EstimatePlanCosts(stats, EstimatePath(stats, path, summary),
                           path.length(), disk, cpu);
}

PlanCosts EstimatePlanCosts(const DocumentStats& stats,
                            const PathEstimate& est, std::size_t path_length,
                            const DiskModel& disk, const CpuCostModel& cpu) {
  const double pages = static_cast<double>(stats.page_count());
  // Pages an XScan sweep visits: the whole document, or — with a summary
  // — only the touched-extent union (the sweep skips over the rest).
  const double swept = std::min(std::max(1.0, est.scan_pages), pages);
  const double swept_fraction = pages == 0 ? 1.0 : swept / pages;
  const double touched = std::max(1.0, est.clusters_touched);

  const PhysicalReads reads = EstimatePhysicalReads(stats, disk);
  const double sequential_read = reads.sequential_read;
  const double random_read = reads.random_read;
  const double elevator_read = reads.elevator_read;

  const double hop = static_cast<double>(cpu.record_hop + cpu.node_test);
  const double nav_cpu = est.nodes_examined * hop;
  const double crossing_cpu =
      est.crossings *
      static_cast<double>(cpu.swizzle + cpu.buffer_probe + cpu.set_op);

  PlanCosts costs;
  costs.simple = touched * random_read + nav_cpu +
                 est.crossings * static_cast<double>(cpu.swizzle +
                                                     cpu.buffer_probe);
  // XSchedule overlaps CPU with I/O: total ~ max of the two streams.
  const double xs_io = touched * elevator_read;
  const double xs_cpu = nav_cpu + crossing_cpu;
  costs.xschedule = std::max(xs_io, xs_cpu) + 0.2 * std::min(xs_io, xs_cpu);
  // XScan examines every cluster and speculates on every border; each
  // seed additionally spawns a short intra-cluster enumeration
  // (empirically ~12 hops on XMark-like pages).
  constexpr double kHopsPerSeed = 12.0;
  // Seeds and record enumeration scale with the pages actually swept
  // (borders and records are uniform across the layout, so a restricted
  // sweep meets the swept fraction of both).
  const double seed_count = static_cast<double>(stats.border_records()) *
                            static_cast<double>(path_length) *
                            swept_fraction;
  const double scan_cpu =
      nav_cpu +
      seed_count * (static_cast<double>(cpu.instance_op + cpu.set_op) +
                    kHopsPerSeed * hop) +
      static_cast<double>(stats.node_count()) * swept_fraction * 0.3 *
          static_cast<double>(cpu.record_hop);
  costs.xscan = swept * sequential_read +
                swept * static_cast<double>(cpu.buffer_probe +
                                            cpu.page_install) +
                scan_cpu;
  return costs;
}

PlanKind ChoosePlanKind(const DocumentStats& stats, const PathQuery& query,
                        const DiskModel& disk, const CpuCostModel& cpu,
                        const PathSummary* summary) {
  PlanCosts total;
  for (const LocationPath& path : query.paths) {
    const PlanCosts costs = EstimatePlanCosts(stats, path, disk, cpu, summary);
    total.simple += costs.simple;
    total.xschedule += costs.xschedule;
    total.xscan += costs.xscan;
  }
  return total.Best();
}

DegradedTier ChooseDegradedTier(const DocumentStats& stats,
                                const PathQuery& query,
                                const PlanOptions& requested,
                                const DiskModel& disk,
                                const CpuCostModel& cpu,
                                const PathSummary* summary) {
  // Never shrink the elevator window below this: a pool this shallow
  // still merges overlapping reads but frees most of the admission
  // footprint (queue_k + 2 pages).
  constexpr std::size_t kDegradedQueueFloor = 8;

  DegradedTier tier;
  tier.plan = requested;
  if (requested.kind != PlanKind::kXSchedule || requested.queue_k == 0) {
    return tier;  // nothing with a footprint worth shrinking
  }

  PlanOptions reduced = requested;
  reduced.queue_k =
      std::max(kDegradedQueueFloor, requested.queue_k / 4);
  PlanOptions simple = requested;
  simple.kind = PlanKind::kSimple;
  if (reduced.queue_k >= requested.queue_k) {
    // Already at or below the floor: Simple is the only cheaper tier.
    reduced = simple;
  }

  double reduced_cost = 0;
  double simple_cost = 0;
  // A shallower window weakens SSTF reordering; interpolate the per-path
  // elevator advantage toward the synchronous cost by pool depth.
  const double shrink = static_cast<double>(reduced.queue_k) /
                        static_cast<double>(requested.queue_k);
  for (const LocationPath& path : query.paths) {
    const PlanCosts costs = EstimatePlanCosts(stats, path, disk, cpu, summary);
    tier.requested_cost += costs.xschedule;
    simple_cost += costs.simple;
    const double lost = std::max(costs.simple, costs.xschedule) -
                        costs.xschedule;
    reduced_cost += costs.xschedule + lost * (1.0 - std::sqrt(shrink));
  }
  if (reduced.kind != PlanKind::kSimple && reduced_cost <= simple_cost) {
    tier.plan = reduced;
    tier.degraded_cost = reduced_cost;
  } else {
    tier.plan = simple;
    tier.degraded_cost = simple_cost;
  }
  tier.viable = true;
  return tier;
}

ShardFanoutEstimate EstimateShardFanout(
    const std::vector<double>& per_shard_costs, double result_cardinality,
    double merge_op_cost) {
  ShardFanoutEstimate est;
  est.participants = per_shard_costs.size();
  for (const double cost : per_shard_costs) {
    est.serial_cost += cost;
    est.parallel_cost = std::max(est.parallel_cost, cost);
  }
  // Width-1 routes skip the merge entirely: the owner's result is final.
  if (est.participants > 1 && result_cardinality > 0) {
    est.merge_cost = result_cardinality * merge_op_cost;
  }
  const double fanned = est.parallel_cost + est.merge_cost;
  if (fanned > 0) est.speedup = est.serial_cost / fanned;
  return est;
}

}  // namespace navpath
