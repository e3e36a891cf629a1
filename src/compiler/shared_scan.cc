#include "compiler/shared_scan.h"

#include <algorithm>
#include <memory>

#include "algebra/xstep.h"

namespace navpath {
namespace {

/// One path's private operator stack over the shared cluster context.
struct PathLane {
  FeedOperator* feed = nullptr;
  XAssembly* assembly = nullptr;
  std::vector<std::unique_ptr<PathOperator>> operators;
  int length = 0;
  bool context_fed = false;
  std::uint64_t count = 0;
};

}  // namespace

Result<SharedScanResult> ExecuteQuerySharedScan(Database* db,
                                                const ImportedDocument& doc,
                                                const PathQuery& query) {
  if (query.paths.empty()) {
    return Status::InvalidArgument("query without paths");
  }
  for (const LocationPath& path : query.paths) {
    if (!path.absolute) {
      return Status::InvalidArgument(
          "shared scan supports absolute paths only");
    }
    if (path.HasPredicates()) {
      return Status::NotImplemented(
          "shared scan does not evaluate predicates; use ExecuteQuery");
    }
  }
  NAVPATH_RETURN_NOT_OK(db->ResetMeasurement());

  PlanSharedState shared(db);
  std::vector<PathLane> lanes(query.paths.size());
  int max_length = 0;
  for (std::size_t i = 0; i < query.paths.size(); ++i) {
    const LocationPath& path = query.paths[i];
    PathLane& lane = lanes[i];
    lane.length = static_cast<int>(path.length());
    max_length = std::max(max_length, lane.length);
    auto feed = std::make_unique<FeedOperator>();
    lane.feed = feed.get();
    PathOperator* tip = feed.get();
    lane.operators.push_back(std::move(feed));
    for (int s = 0; s < lane.length; ++s) {
      lane.operators.push_back(std::make_unique<XStep>(
          db, &shared, tip, s + 1, path.steps[static_cast<std::size_t>(s)]));
      tip = lane.operators.back().get();
    }
    XAssemblyOptions asm_options;
    asm_options.path_length = lane.length;
    asm_options.speculative = true;
    asm_options.s_budget = 0;  // no fallback in shared-scan mode
    asm_options.first_step_reaches_all =
        lane.length > 0 &&
        (path.steps[0].axis == Axis::kDescendant ||
         path.steps[0].axis == Axis::kDescendantOrSelf);
    lane.operators.push_back(std::make_unique<XAssembly>(
        db, &shared, tip, /*schedule=*/nullptr, asm_options));
    lane.assembly =
        static_cast<XAssembly*>(lane.operators.back().get());
    NAVPATH_RETURN_NOT_OK(lane.assembly->Open());
  }

  SharedScanResult result;
  result.path_counts.assign(lanes.size(), 0);

  // One sequential pass; every lane sees every cluster.
  for (PageId page = doc.first_page; page <= doc.last_page; ++page) {
    NAVPATH_RETURN_NOT_OK(shared.cluster.Switch(page));
    shared.visited_clusters.insert(page);
    const ClusterView& view = shared.cluster.view();

    for (PathLane& lane : lanes) {
      if (!lane.context_fed && doc.root.page == page) {
        lane.feed->Push(PathInstance::Context(doc.root, doc.root_order));
        db->clock()->ChargeCpu(db->costs().instance_op);
        lane.context_fed = true;
      }
    }
    // Speculative seeds: the slot scan is shared across lanes; each lane
    // receives one seed per (border, step of its own path).
    for (SlotId slot = 0; slot < view.slot_count(); ++slot) {
      view.ChargeHop();
      if (!view.IsLive(slot) || !view.IsBorder(slot)) continue;
      const NodeID border = view.IdOf(slot);
      for (PathLane& lane : lanes) {
        for (int step = 0; step < lane.length; ++step) {
          lane.feed->Push(PathInstance::Seed(border, step));
          db->clock()->ChargeCpu(db->costs().instance_op);
          ++db->metrics()->speculative_instances;
          ++db->metrics()->instances_created;
        }
      }
    }
    // Drain every lane while this cluster is pinned.
    for (std::size_t i = 0; i < lanes.size(); ++i) {
      PathInstance inst;
      for (;;) {
        NAVPATH_ASSIGN_OR_RETURN(const bool have,
                                 lanes[i].assembly->Next(&inst));
        if (!have) break;
        ++result.path_counts[i];
        if (query.mode == PathQuery::Mode::kNodes) {
          result.combined.nodes.push_back(
              LogicalNode{inst.right.node, 0, inst.right.order});
        }
      }
    }
  }
  shared.cluster.Clear();
  for (PathLane& lane : lanes) {
    NAVPATH_RETURN_NOT_OK(lane.assembly->Close());
  }
  for (const std::uint64_t c : result.path_counts) {
    result.combined.count += c;
  }

  SortDocumentOrder(db, &result.combined.nodes);
  result.combined.total_time = db->clock()->now();
  result.combined.cpu_time = db->clock()->cpu_time();
  result.combined.metrics = *db->metrics();
  return result;
}

}  // namespace navpath
