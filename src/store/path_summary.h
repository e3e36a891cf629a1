// Path-summary synopsis: a structural index over distinct root-to-node
// tag paths (Arion et al., "Path Summaries and Path Partitioning in
// Modern XML Databases").
//
// One summary node per distinct root-to-tag path, carrying the exact
// instance count and the cluster-extent list (merged physical page
// ranges) of its instances. Built once at import in O(nodes); the
// summary itself is tiny (proportional to the number of *distinct*
// paths, not nodes).
//
// For absolute, predicate-free location paths whose axes only move
// downward (self / child / descendant / descendant-or-self / attribute),
// the summary answers exactly: starting from the root, every step maps a
// frontier of summary nodes to the matched summary nodes of the next
// step, and the instance set of the result is precisely the union of the
// matched nodes' instance sets. That yields
//   - exact result cardinalities and per-step selected/examined counts
//     for the cost model (replacing independence-assumption estimates),
//   - empty-path proofs (a step with no matching summary node proves the
//     whole query empty without touching a single cluster),
//   - navigation-free count()/existence answers, and
//   - the extent union of all *touched* summary nodes, which bounds the
//     pages any navigational plan must visit (XScan sweep restriction).
// Paths with predicates, upward/sideways axes, or a relative start fall
// outside the summary's exactness domain; callers fall back to
// DocumentStats there.
#ifndef NAVPATH_STORE_PATH_SUMMARY_H_
#define NAVPATH_STORE_PATH_SUMMARY_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "storage/page.h"
#include "xml/dom.h"
#include "xpath/location_path.h"

namespace navpath {

/// A contiguous physical page range [first, last] (inclusive).
struct SummaryExtent {
  PageId first = kInvalidPageId;
  PageId last = kInvalidPageId;

  std::uint64_t pages() const {
    return first == kInvalidPageId ? 0
                                   : static_cast<std::uint64_t>(last) -
                                         first + 1;
  }
  friend bool operator==(const SummaryExtent& a, const SummaryExtent& b) {
    return a.first == b.first && a.last == b.last;
  }
};

/// One committed insertion, described by its root-to-node tag path — the
/// unit of incremental summary maintenance (DocumentUpdater reports these
/// instead of invalidating the synopsis wholesale).
struct SummaryInsert {
  /// Tag path from the document root (inclusive) down to the inserted
  /// node (inclusive), in root-first order.
  std::vector<TagId> tags;
  /// Kind of the inserted node (intermediate steps are always elements).
  DomNodeKind kind = DomNodeKind::kElement;
  /// Logical pages that now hold instances (or border glue) of the path.
  std::vector<PageId> pages;
};

/// One committed deletion, described by its root-to-node tag path — the
/// delete-side counterpart of SummaryInsert. Extents are left untouched
/// (a page is never removed from an extent), which stays conservative for
/// restricted sweeps; only the exact counts shrink.
struct SummaryDelete {
  /// Tag path from the document root (inclusive) down to the deleted
  /// node (inclusive), in root-first order.
  std::vector<TagId> tags;
  DomNodeKind kind = DomNodeKind::kElement;
  /// Number of instances of this exact path removed (subtree deletes
  /// fold repeated paths into one delta).
  std::uint64_t count = 1;
};

/// One page relocation from EvacuateSubtree: every record that lived on
/// `from` now lives on `to` (the border pair left behind keeps `from`
/// reachable, so `from` stays in the extents too — conservative).
struct SummaryPageRemap {
  PageId from = kInvalidPageId;
  PageId to = kInvalidPageId;
};

/// Result of matching one location path against the summary.
struct SummaryMatch {
  /// False when the path is outside the summary's exactness domain
  /// (relative start, predicates, upward/sideways axes); every other
  /// field is meaningless then.
  bool applicable = false;
  /// True when some step has no matching summary node: the query result
  /// is provably empty, no cluster access required.
  bool empty = false;
  /// Index of the first step whose matched set is empty (-1 when none).
  int empty_at = -1;

  struct Step {
    std::uint64_t selected = 0;  // exact result cardinality after step
    std::uint64_t examined = 0;  // exact candidate instances inspected
  };
  std::vector<Step> steps;

  /// Exact result cardinality (== steps.back().selected, 0 when empty).
  std::uint64_t result_count = 0;
  /// Exact total navigation work: sum of examined over all steps.
  std::uint64_t nodes_examined = 0;
  /// Summary nodes matched by the final step (sorted, unique).
  std::vector<std::uint32_t> final_nodes;
  /// Every summary node a navigational evaluation touches: frontiers
  /// plus all candidates examined along the way (sorted, unique).
  /// The extent union of this set bounds the pages any plan must load.
  std::vector<std::uint32_t> touched;
};

/// The synopsis itself. Immutable after Build/Decode.
class PathSummary {
 public:
  static constexpr std::uint32_t kNoParent =
      std::numeric_limits<std::uint32_t>::max();

  struct Node {
    TagId tag = 0;
    DomNodeKind kind = DomNodeKind::kElement;
    std::uint32_t parent = kNoParent;
    std::uint64_t count = 0;               // exact instances of this path
    std::vector<std::uint32_t> children;   // creation (document) order
    std::vector<SummaryExtent> extents;    // merged, sorted by first page
  };

  /// Builds the summary from the DOM in O(nodes). `node_pages[v]` is the
  /// final physical page of DOM node v as placed by the materializer
  /// (import.h's MaterializeDocument fills it on request); `glue_pages`
  /// are the materializer's continuation (owner, page) pairs — each page
  /// holds border glue of owner's child list and is merged into owner's
  /// extents so a restricted sweep never skips it.
  static std::unique_ptr<PathSummary> Build(
      const DomTree& tree, const std::vector<PageId>& node_pages,
      const std::vector<std::pair<DomNodeId, PageId>>& glue_pages = {});

  std::size_t size() const { return nodes_.size(); }
  const Node& node(std::uint32_t i) const { return nodes_[i]; }
  std::uint32_t root() const { return 0; }
  std::uint64_t total_instances() const { return total_instances_; }

  /// True iff `path` lies in the summary's exactness domain: absolute,
  /// predicate-free, downward axes only.
  static bool Supports(const LocationPath& path);

  /// Matches `path`; `applicable` is false when !Supports(path).
  SummaryMatch Match(const LocationPath& path) const;

  /// Merged union of the extents of `nodes` (summary node indices),
  /// sorted by first page: the maximal runs of consecutive pages that
  /// some extent covers. Allocates a bitmap over the extents' page span.
  std::vector<SummaryExtent> ExtentUnion(
      const std::vector<std::uint32_t>& nodes) const;
  /// ExtentPages(ExtentUnion(nodes)), counted from the same bitmap
  /// without building the union.
  std::uint64_t ExtentUnionPages(
      const std::vector<std::uint32_t>& nodes) const;

  static std::uint64_t ExtentPages(const std::vector<SummaryExtent>& extents);

  /// Incremental maintenance: a copy of this summary with `inserts`,
  /// then `deletes`, then `remaps` applied. Each insert bumps the exact
  /// count of its path node (creating summary nodes for previously unseen
  /// paths) and widens the node's extents by the landing pages. Deletes
  /// decrement the exact count of their path node. Extents only grow (a
  /// page is added, never removed), so restricted sweeps stay correct.
  /// Remaps add the destination page to every node whose extents cover
  /// the source page (EvacuateSubtree moves a whole run, so any path that
  /// could live on `from` may now live on `to`). Returns nullptr when a
  /// delta falls outside this summary (unknown path, count underflow,
  /// root mismatch) — the caller degrades to summary-free.
  std::unique_ptr<PathSummary> CloneWithDeltas(
      const std::vector<SummaryInsert>& inserts,
      const std::vector<SummaryDelete>& deletes,
      const std::vector<SummaryPageRemap>& remaps) const;

  /// Deterministic byte encoding (summary nodes in creation order); two
  /// summaries of the same document encode byte-identically.
  void Encode(std::string* out) const;

  /// Inverse of Encode. Returns Status::Corruption on any structural
  /// inconsistency (truncation, forward parent references, unordered
  /// extents, an extent ending at kInvalidPageId).
  static Result<std::unique_ptr<PathSummary>> Decode(const void* data,
                                                     std::size_t size);

 private:
  PathSummary() = default;

  /// Sets bit i of `covered` for every page lo + i that an extent of
  /// `nodes` covers, and returns lo: kInvalidPageId, with `covered`
  /// empty, when the nodes have no extent.
  PageId FillCoverage(const std::vector<std::uint32_t>& nodes,
                      std::vector<std::uint64_t>* covered) const;

  std::vector<Node> nodes_;
  std::uint64_t total_instances_ = 0;
};

}  // namespace navpath

#endif  // NAVPATH_STORE_PATH_SUMMARY_H_
