#include "store/path_summary.h"

#include <algorithm>
#include <bit>
#include <cstring>

namespace navpath {
namespace {

void AppendU8(std::string* out, std::uint8_t v) {
  out->push_back(static_cast<char>(v));
}

void AppendU32(std::string* out, std::uint32_t v) {
  char buf[4];
  std::memcpy(buf, &v, 4);
  out->append(buf, 4);
}

void AppendU64(std::string* out, std::uint64_t v) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  out->append(buf, 8);
}

/// Bounds-checked little cursor over the encoded bytes.
class Reader {
 public:
  Reader(const void* data, std::size_t size)
      : p_(static_cast<const unsigned char*>(data)), left_(size) {}

  bool ReadU8(std::uint8_t* v) {
    if (left_ < 1) return false;
    *v = *p_;
    p_ += 1;
    left_ -= 1;
    return true;
  }
  bool ReadU32(std::uint32_t* v) {
    if (left_ < 4) return false;
    std::memcpy(v, p_, 4);
    p_ += 4;
    left_ -= 4;
    return true;
  }
  bool ReadU64(std::uint64_t* v) {
    if (left_ < 8) return false;
    std::memcpy(v, p_, 8);
    p_ += 8;
    left_ -= 8;
    return true;
  }
  bool exhausted() const { return left_ == 0; }
  std::size_t remaining() const { return left_; }

 private:
  const unsigned char* p_;
  std::size_t left_;
};

// Fixed bytes of one encoded node record (tag 4, kind 1, parent 4,
// count 8, extent count 4) and of one extent (first 4, last 4).
constexpr std::size_t kNodeRecordBytes = 21;
constexpr std::size_t kExtentRecordBytes = 8;

/// Merges a sorted page list into inclusive [first, last] extents.
std::vector<SummaryExtent> MergePages(std::vector<PageId>* pages) {
  std::vector<SummaryExtent> extents;
  std::sort(pages->begin(), pages->end());
  pages->erase(std::unique(pages->begin(), pages->end()), pages->end());
  for (const PageId p : *pages) {
    if (!extents.empty() && p == extents.back().last + 1) {
      extents.back().last = p;
    } else {
      extents.push_back(SummaryExtent{p, p});
    }
  }
  return extents;
}

}  // namespace

std::unique_ptr<PathSummary> PathSummary::Build(
    const DomTree& tree, const std::vector<PageId>& node_pages,
    const std::vector<std::pair<DomNodeId, PageId>>& glue_pages) {
  NAVPATH_CHECK(!tree.empty());
  NAVPATH_CHECK(node_pages.size() == tree.size());
  std::unique_ptr<PathSummary> summary(new PathSummary());

  // summary_of[v] = summary node of DOM node v; filled top-down in
  // document order, so children vectors come out in first-encounter
  // (document) order — the encoding is deterministic by construction.
  std::vector<std::uint32_t> summary_of(tree.size(), kNoParent);
  std::vector<std::vector<PageId>> pages_of;

  auto child_summary = [&](std::uint32_t parent_sid, TagId tag,
                           DomNodeKind kind) {
    // Fan-out of *distinct* child paths is small; a linear scan of the
    // parent's children beats hashing and is order-deterministic.
    for (const std::uint32_t c : summary->nodes_[parent_sid].children) {
      const Node& cn = summary->nodes_[c];
      if (cn.tag == tag && cn.kind == kind) return c;
    }
    const std::uint32_t sid =
        static_cast<std::uint32_t>(summary->nodes_.size());
    Node node;
    node.tag = tag;
    node.kind = kind;
    node.parent = parent_sid;
    summary->nodes_.push_back(std::move(node));
    pages_of.emplace_back();
    summary->nodes_[parent_sid].children.push_back(sid);
    return sid;
  };

  auto record = [&](DomNodeId v, std::uint32_t sid) {
    summary_of[v] = sid;
    ++summary->nodes_[sid].count;
    ++summary->total_instances_;
    pages_of[sid].push_back(node_pages[v]);
  };

  // Root summary node.
  {
    Node node;
    node.tag = tree.node(tree.root()).tag;
    summary->nodes_.push_back(std::move(node));
    pages_of.emplace_back();
    record(tree.root(), 0);
  }

  // Document-order DFS over elements; attributes handled at their owner.
  std::vector<DomNodeId> stack;
  stack.push_back(tree.root());
  while (!stack.empty()) {
    const DomNodeId v = stack.back();
    stack.pop_back();
    const std::uint32_t sid = summary_of[v];
    for (DomNodeId a = tree.node(v).first_attr; a != kNilDomNode;
         a = tree.node(a).next_sibling) {
      record(a, child_summary(sid, tree.node(a).tag, DomNodeKind::kAttribute));
    }
    // Children pushed right-to-left so they are visited in document order.
    for (DomNodeId c = tree.node(v).last_child; c != kNilDomNode;
         c = tree.node(c).prev_sibling) {
      record(c, child_summary(sid, tree.node(c).tag, DomNodeKind::kElement));
      stack.push_back(c);
    }
  }

  // Continuation pages carry border glue of the owner's child list; count
  // them as the owner's so restricted sweeps keep cross-page assembly
  // intact even when no tracked record lives there.
  for (const auto& [owner, page] : glue_pages) {
    pages_of[summary_of[owner]].push_back(page);
  }

  for (std::uint32_t i = 0; i < summary->nodes_.size(); ++i) {
    summary->nodes_[i].extents = MergePages(&pages_of[i]);
  }
  return summary;
}

namespace {

/// Adds `p` to a sorted, non-overlapping extent list, merging with
/// adjacent/containing ranges so the Decode invariants keep holding.
void AddPageToExtents(std::vector<SummaryExtent>* extents, PageId p) {
  std::size_t i = 0;
  while (i < extents->size() && (*extents)[i].last + 1 < p) ++i;
  if (i == extents->size()) {
    extents->push_back(SummaryExtent{p, p});
    return;
  }
  SummaryExtent& e = (*extents)[i];
  if (p + 1 < e.first) {
    extents->insert(extents->begin() + i, SummaryExtent{p, p});
    return;
  }
  e.first = std::min(e.first, p);
  e.last = std::max(e.last, p);
  if (i + 1 < extents->size() && (*extents)[i + 1].first <= e.last + 1) {
    e.last = std::max(e.last, (*extents)[i + 1].last);
    extents->erase(extents->begin() + i + 1);
  }
}

}  // namespace

std::unique_ptr<PathSummary> PathSummary::CloneWithDeltas(
    const std::vector<SummaryInsert>& inserts,
    const std::vector<SummaryDelete>& deletes,
    const std::vector<SummaryPageRemap>& remaps) const {
  std::unique_ptr<PathSummary> out(new PathSummary());
  out->nodes_ = nodes_;
  out->total_instances_ = total_instances_;
  for (const SummaryInsert& ins : inserts) {
    if (ins.tags.empty() || ins.tags.front() != out->nodes_[root()].tag) {
      return nullptr;
    }
    std::uint32_t sid = root();
    for (std::size_t d = 1; d < ins.tags.size(); ++d) {
      const bool leaf = d + 1 == ins.tags.size();
      const DomNodeKind kind = leaf ? ins.kind : DomNodeKind::kElement;
      std::uint32_t child = kNoParent;
      for (const std::uint32_t c : out->nodes_[sid].children) {
        if (out->nodes_[c].tag == ins.tags[d] &&
            out->nodes_[c].kind == kind) {
          child = c;
          break;
        }
      }
      if (child == kNoParent) {
        child = static_cast<std::uint32_t>(out->nodes_.size());
        Node node;
        node.tag = ins.tags[d];
        node.kind = kind;
        node.parent = sid;
        out->nodes_.push_back(std::move(node));
        out->nodes_[sid].children.push_back(child);
      }
      sid = child;
    }
    ++out->nodes_[sid].count;
    ++out->total_instances_;
    for (const PageId p : ins.pages) {
      AddPageToExtents(&out->nodes_[sid].extents, p);
    }
  }
  for (const SummaryDelete& del : deletes) {
    if (del.tags.size() < 2 ||
        del.tags.front() != out->nodes_[out->root()].tag) {
      // Unknown root or an attempt to delete the document root itself.
      return nullptr;
    }
    std::uint32_t sid = out->root();
    for (std::size_t d = 1; d < del.tags.size(); ++d) {
      const bool leaf = d + 1 == del.tags.size();
      const DomNodeKind kind = leaf ? del.kind : DomNodeKind::kElement;
      std::uint32_t child = kNoParent;
      for (const std::uint32_t c : out->nodes_[sid].children) {
        if (out->nodes_[c].tag == del.tags[d] &&
            out->nodes_[c].kind == kind) {
          child = c;
          break;
        }
      }
      if (child == kNoParent) return nullptr;  // path never seen: stale delta
      sid = child;
    }
    if (out->nodes_[sid].count < del.count ||
        out->total_instances_ < del.count) {
      return nullptr;  // count underflow: the deltas cannot be trusted
    }
    out->nodes_[sid].count -= del.count;
    out->total_instances_ -= del.count;
  }
  for (const SummaryPageRemap& remap : remaps) {
    if (remap.from == kInvalidPageId || remap.to == kInvalidPageId) {
      return nullptr;
    }
    for (Node& node : out->nodes_) {
      bool covers = false;
      for (const SummaryExtent& e : node.extents) {
        if (e.first <= remap.from && remap.from <= e.last) {
          covers = true;
          break;
        }
      }
      if (covers) AddPageToExtents(&node.extents, remap.to);
    }
  }
  return out;
}

bool PathSummary::Supports(const LocationPath& path) {
  if (!path.absolute) return false;
  for (const LocationStep& step : path.steps) {
    if (!step.predicates.empty()) return false;
    switch (step.axis) {
      case Axis::kSelf:
      case Axis::kChild:
      case Axis::kDescendant:
      case Axis::kDescendantOrSelf:
      case Axis::kAttribute:
        break;
      case Axis::kParent:
      case Axis::kAncestor:
      case Axis::kAncestorOrSelf:
      case Axis::kFollowingSibling:
      case Axis::kPrecedingSibling:
        // Upward/sideways axes leave the frontier-instance-set argument
        // (DESIGN.md Sec. 11): counts would no longer be exact.
        return false;
    }
  }
  return true;
}

SummaryMatch PathSummary::Match(const LocationPath& path) const {
  SummaryMatch match;
  if (!Supports(path)) return match;
  match.applicable = true;

  const std::uint32_t n = static_cast<std::uint32_t>(nodes_.size());
  std::vector<std::uint8_t> touched(n, 0);
  std::vector<std::uint8_t> in_set(n, 0);  // scratch mask per step

  std::vector<std::uint32_t> frontier = {root()};
  touched[root()] = 1;

  auto count_of = [&](const std::vector<std::uint32_t>& set) {
    std::uint64_t total = 0;
    for (const std::uint32_t s : set) total += nodes_[s].count;
    return total;
  };

  for (std::size_t si = 0; si < path.steps.size(); ++si) {
    const LocationStep& step = path.steps[si];
    // Candidates the navigation inspects for this step, dedup'd via
    // in_set (overlapping descendant subtrees count once).
    std::vector<std::uint32_t> candidates;
    auto add_candidate = [&](std::uint32_t s) {
      if (in_set[s]) return;
      in_set[s] = 1;
      touched[s] = 1;
      candidates.push_back(s);
    };
    switch (step.axis) {
      case Axis::kSelf:
        for (const std::uint32_t f : frontier) add_candidate(f);
        break;
      case Axis::kChild:
      case Axis::kAttribute: {
        const DomNodeKind want = step.axis == Axis::kAttribute
                                     ? DomNodeKind::kAttribute
                                     : DomNodeKind::kElement;
        for (const std::uint32_t f : frontier) {
          for (const std::uint32_t c : nodes_[f].children) {
            if (nodes_[c].kind == want) add_candidate(c);
          }
        }
        break;
      }
      case Axis::kDescendant:
      case Axis::kDescendantOrSelf: {
        std::vector<std::uint32_t> walk;
        for (const std::uint32_t f : frontier) {
          if (step.axis == Axis::kDescendantOrSelf) add_candidate(f);
          walk.push_back(f);
        }
        while (!walk.empty()) {
          const std::uint32_t s = walk.back();
          walk.pop_back();
          for (const std::uint32_t c : nodes_[s].children) {
            if (nodes_[c].kind != DomNodeKind::kElement) continue;
            const bool fresh = !in_set[c];
            add_candidate(c);
            if (fresh) walk.push_back(c);
          }
        }
        break;
      }
      case Axis::kParent:
      case Axis::kAncestor:
      case Axis::kAncestorOrSelf:
      case Axis::kFollowingSibling:
      case Axis::kPrecedingSibling:
        NAVPATH_CHECK_MSG(false, "unreachable: Supports() filtered axis");
    }
    std::sort(candidates.begin(), candidates.end());
    for (const std::uint32_t s : candidates) in_set[s] = 0;

    std::vector<std::uint32_t> matched;
    for (const std::uint32_t s : candidates) {
      if (step.test.Matches(nodes_[s].tag)) matched.push_back(s);
    }

    SummaryMatch::Step info;
    info.examined = count_of(candidates);
    info.selected = count_of(matched);
    match.nodes_examined += info.examined;
    match.steps.push_back(info);

    frontier = std::move(matched);
    if (frontier.empty()) {
      match.empty = true;
      match.empty_at = static_cast<int>(si);
      // Remaining steps select and examine nothing.
      for (std::size_t r = si + 1; r < path.steps.size(); ++r) {
        match.steps.push_back(SummaryMatch::Step{});
      }
      break;
    }
  }

  match.final_nodes = frontier;
  match.result_count = count_of(frontier);
  for (std::uint32_t s = 0; s < n; ++s) {
    if (touched[s]) match.touched.push_back(s);
  }
  return match;
}

PageId PathSummary::FillCoverage(const std::vector<std::uint32_t>& nodes,
                                 std::vector<std::uint64_t>* covered) const {
  // Coverage sweep: mark the pages every extent covers in a bitmap over
  // the extents' page span. Sorting the concatenated extents and folding
  // overlapping or adjacent ones yields exactly the maximal runs of marked
  // pages, since no extent ends at kInvalidPageId (Decode refuses one),
  // where "last + 1" would wrap. The sweep is linear in the extents plus
  // span / 64 words.
  PageId lo = kInvalidPageId;
  PageId hi = 0;
  for (const std::uint32_t s : nodes) {
    NAVPATH_DCHECK(s < nodes_.size());
    for (const SummaryExtent& e : nodes_[s].extents) {
      lo = std::min(lo, e.first);
      hi = std::max(hi, e.last);
    }
  }
  covered->clear();
  if (lo > hi) return kInvalidPageId;
  const std::size_t span = static_cast<std::size_t>(hi - lo) + 1;
  covered->assign((span + 63) / 64, 0);
  std::uint64_t* words = covered->data();
  for (const std::uint32_t s : nodes) {
    for (const SummaryExtent& e : nodes_[s].extents) {
      const std::size_t a = e.first - lo;
      const std::size_t b = e.last - lo;
      const std::uint64_t head = ~std::uint64_t{0} << (a % 64);
      const std::uint64_t tail = ~std::uint64_t{0} >> (63 - b % 64);
      if (a / 64 == b / 64) {
        words[a / 64] |= head & tail;
      } else {
        words[a / 64] |= head;
        std::fill(words + a / 64 + 1, words + b / 64, ~std::uint64_t{0});
        words[b / 64] |= tail;
      }
    }
  }
  return lo;
}

std::vector<SummaryExtent> PathSummary::ExtentUnion(
    const std::vector<std::uint32_t>& nodes) const {
  std::vector<std::uint64_t> covered;
  const PageId lo = FillCoverage(nodes, &covered);
  // Read the maximal runs of marked pages back out. The first bit at or
  // after `from` that is set (or clear); bits past the span are clear, so
  // a run always ends by covered.size() * 64.
  const std::size_t end = covered.size() * 64;
  const auto next = [&covered, end](std::size_t from, bool set) {
    std::size_t w = from / 64;
    if (w >= covered.size()) return end;
    std::uint64_t bits = (set ? covered[w] : ~covered[w]) &
                         (~std::uint64_t{0} << (from % 64));
    while (bits == 0) {
      if (++w == covered.size()) return end;
      bits = set ? covered[w] : ~covered[w];
    }
    return w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
  };
  std::vector<SummaryExtent> merged;
  std::size_t first = next(0, true);
  while (first < end) {
    const std::size_t past = next(first, false);  // one past the run
    merged.push_back(SummaryExtent{static_cast<PageId>(lo + first),
                                   static_cast<PageId>(lo + past - 1)});
    first = next(past, true);
  }
  return merged;
}

std::uint64_t PathSummary::ExtentUnionPages(
    const std::vector<std::uint32_t>& nodes) const {
  std::vector<std::uint64_t> covered;
  FillCoverage(nodes, &covered);
  std::uint64_t pages = 0;
  for (const std::uint64_t word : covered) pages += std::popcount(word);
  return pages;
}

std::uint64_t PathSummary::ExtentPages(
    const std::vector<SummaryExtent>& extents) {
  std::uint64_t total = 0;
  for (const SummaryExtent& e : extents) total += e.pages();
  return total;
}

void PathSummary::Encode(std::string* out) const {
  AppendU32(out, static_cast<std::uint32_t>(nodes_.size()));
  AppendU64(out, total_instances_);
  for (const Node& node : nodes_) {
    AppendU32(out, node.tag);
    AppendU8(out, static_cast<std::uint8_t>(node.kind));
    AppendU32(out, node.parent);
    AppendU64(out, node.count);
    AppendU32(out, static_cast<std::uint32_t>(node.extents.size()));
    for (const SummaryExtent& e : node.extents) {
      AppendU32(out, e.first);
      AppendU32(out, e.last);
    }
  }
}

Result<std::unique_ptr<PathSummary>> PathSummary::Decode(const void* data,
                                                         std::size_t size) {
  Reader reader(data, size);
  std::uint32_t count = 0;
  std::unique_ptr<PathSummary> summary(new PathSummary());
  if (!reader.ReadU32(&count) || !reader.ReadU64(&summary->total_instances_)) {
    return Status::Corruption("path summary header truncated");
  }
  if (count == 0) return Status::Corruption("path summary has no nodes");
  // Bound decoded counts by the bytes left before reserving, so garbage
  // cannot request an unbounded allocation.
  if (count > reader.remaining() / kNodeRecordBytes) {
    return Status::Corruption("path summary node count exceeds input");
  }
  summary->nodes_.reserve(count);
  std::uint64_t instance_sum = 0;
  for (std::uint32_t i = 0; i < count; ++i) {
    Node node;
    std::uint8_t kind = 0;
    std::uint32_t extent_count = 0;
    if (!reader.ReadU32(&node.tag) || !reader.ReadU8(&kind) ||
        !reader.ReadU32(&node.parent) || !reader.ReadU64(&node.count) ||
        !reader.ReadU32(&extent_count)) {
      return Status::Corruption("path summary node truncated");
    }
    if (kind > static_cast<std::uint8_t>(DomNodeKind::kAttribute)) {
      return Status::Corruption("path summary node kind out of range");
    }
    node.kind = static_cast<DomNodeKind>(kind);
    // Creation order places every parent before its children; the root
    // (and only the root) has no parent.
    if (i == 0 ? node.parent != kNoParent : node.parent >= i) {
      return Status::Corruption("path summary parent link out of order");
    }
    if (extent_count > reader.remaining() / kExtentRecordBytes) {
      return Status::Corruption("path summary extent count exceeds input");
    }
    node.extents.reserve(extent_count);
    for (std::uint32_t e = 0; e < extent_count; ++e) {
      SummaryExtent extent;
      if (!reader.ReadU32(&extent.first) || !reader.ReadU32(&extent.last)) {
        return Status::Corruption("path summary extent truncated");
      }
      if (extent.first > extent.last ||
          (!node.extents.empty() &&
           extent.first <= node.extents.back().last)) {
        return Status::Corruption("path summary extents unordered");
      }
      if (extent.last == kInvalidPageId) {
        return Status::Corruption("path summary extent ends past any page");
      }
      node.extents.push_back(extent);
    }
    instance_sum += node.count;
    if (i != 0) summary->nodes_[node.parent].children.push_back(i);
    summary->nodes_.push_back(std::move(node));
  }
  if (!reader.exhausted()) {
    return Status::Corruption("path summary has trailing bytes");
  }
  if (instance_sum != summary->total_instances_) {
    return Status::Corruption("path summary instance counts inconsistent");
  }
  return summary;
}

}  // namespace navpath
