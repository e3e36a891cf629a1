#include "shard/sharded_store.h"

#include <algorithm>
#include <numeric>

#include "store/clustering.h"

namespace navpath {

std::uint64_t ShardFaultSeed(std::uint64_t base, std::size_t shard) {
  if (shard == 0) return base;  // K=1 replays the unsharded fault stream
  // splitmix64 finalizer over (base, shard): well-mixed, stateless,
  // reproducible.
  std::uint64_t z = base + 0x9e3779b97f4a7c15ull * shard;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

namespace {

/// Exact record bytes of the subtree rooted at `node` (elements and
/// their attributes), in the same approximation the clustering policies
/// budget with — so unit weights are cardinality-times-record-bytes in
/// page-true units.
std::uint64_t SubtreeWeight(const DomTree& tree, DomNodeId node) {
  std::uint64_t bytes = 0;
  std::vector<DomNodeId> stack{node};
  while (!stack.empty()) {
    const DomNodeId v = stack.back();
    stack.pop_back();
    bytes += EstimateNodeBytes(tree, v);
    for (DomNodeId a = tree.node(v).first_attr; a != kNilDomNode;
         a = tree.node(a).next_sibling) {
      bytes += EstimateNodeBytes(tree, a);
    }
    for (DomNodeId c = tree.node(v).first_child; c != kNilDomNode;
         c = tree.node(c).next_sibling) {
      stack.push_back(c);
    }
  }
  return bytes;
}

/// Copies the subtree rooted at `src_node` under `dst_parent`, preserving
/// tags (same registry), text, attributes and — the merge invariant —
/// the original order keys.
void CopySubtree(const DomTree& src, DomNodeId src_node, DomTree* dst,
                 DomNodeId dst_parent) {
  std::vector<std::pair<DomNodeId, DomNodeId>> stack;  // (src, dst parent)
  stack.emplace_back(src_node, dst_parent);
  while (!stack.empty()) {
    const auto [s, parent] = stack.back();
    stack.pop_back();
    const DomNode& n = src.node(s);
    const DomNodeId d = dst->AppendChild(parent, n.tag);
    dst->SetOrder(d, n.order);
    if (!n.text.empty()) dst->AppendText(d, n.text);
    for (DomNodeId a = n.first_attr; a != kNilDomNode;
         a = src.node(a).next_sibling) {
      const DomNode& an = src.node(a);
      const DomNodeId da = dst->AddAttribute(d, an.tag, an.text);
      dst->SetOrder(da, an.order);
    }
    // Push children in reverse so the copy preserves sibling order.
    std::vector<DomNodeId> children;
    for (DomNodeId c = n.first_child; c != kNilDomNode;
         c = src.node(c).next_sibling) {
      children.push_back(c);
    }
    for (auto it = children.rbegin(); it != children.rend(); ++it) {
      stack.emplace_back(*it, d);
    }
  }
}

}  // namespace

std::optional<std::size_t> ShardedStore::OwnerOf(std::string_view tag) const {
  const auto it = owner_.find(std::string(tag));
  if (it == owner_.end()) return std::nullopt;
  return units_[it->second].owner;
}

Result<std::unique_ptr<ShardedStore>> ShardedStore::Build(
    const ShardOptions& options) {
  if (options.shards == 0) {
    return Status::InvalidArgument("a sharded store needs at least 1 shard");
  }
  if (!options.source) {
    return Status::InvalidArgument("ShardOptions.source is required");
  }
  if (!options.clustering) {
    return Status::InvalidArgument("ShardOptions.clustering is required");
  }
  if (!options.db.import.build_summary) {
    return Status::InvalidArgument(
        "sharded stores require the path-summary synopsis "
        "(ImportOptions::build_summary): per-shard summaries are the "
        "router's pruning table");
  }

  auto store = std::unique_ptr<ShardedStore>(new ShardedStore());
  const std::uint64_t base_seed = options.db.faults.seed;
  const auto make_db = [&](std::size_t k) {
    DatabaseOptions db_options = options.db;
    db_options.faults.seed = ShardFaultSeed(base_seed, k);
    return std::make_unique<Database>(db_options);
  };

  // Generate the document once, into shard 0's registry.
  std::unique_ptr<Database> home_db = make_db(0);
  const TagRegistry* names = home_db->tags();
  const DomTree tree = options.source(home_db->tags());
  if (tree.empty()) {
    return Status::InvalidArgument("shard source produced an empty "
                                   "document");
  }
  const std::size_t name_count = names->size();

  // Partition it: depth-1 units in first-occurrence (document) order,
  // weighted by exact subtree record bytes.
  store->root_tag_ = tree.TagName(tree.root());
  for (DomNodeId c = tree.node(tree.root()).first_child; c != kNilDomNode;
       c = tree.node(c).next_sibling) {
    const std::string& tag = tree.TagName(c);
    auto [it, inserted] = store->owner_.emplace(tag, store->units_.size());
    if (inserted) {
      ShardUnit unit;
      unit.tag = tag;
      store->units_.push_back(std::move(unit));
    }
    ShardUnit& unit = store->units_[it->second];
    unit.weight += SubtreeWeight(tree, c);
    ++unit.subtrees;
  }
  // LPT greedy: heaviest unit first (ties: earlier in document), placed
  // on the least-loaded shard (ties: lowest id). Deterministic by
  // construction, and at K=1 everything lands on shard 0.
  std::vector<std::size_t> order(store->units_.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return store->units_[a].weight >
                            store->units_[b].weight;
                   });
  std::vector<std::uint64_t> load(options.shards, 0);
  for (const std::size_t u : order) {
    const std::size_t target = static_cast<std::size_t>(
        std::min_element(load.begin(), load.end()) - load.begin());
    store->units_[u].owner = target;
    load[target] += store->units_[u].weight;
  }

  for (std::size_t k = 0; k < options.shards; ++k) {
    ShardState state;
    if (k == 0) {
      state.db = std::move(home_db);
    } else {
      // The same names under the same ids, so the pruned copy below
      // keeps the tree's tag ids verbatim.
      state.db = make_db(k);
      for (TagId id = 0; id < name_count; ++id) {
        NAVPATH_CHECK(state.db->tags()->Intern(names->Name(id)) == id);
      }
    }

    const std::unique_ptr<ClusteringPolicy> policy = options.clustering();
    if (policy == nullptr) {
      return Status::InvalidArgument("clustering factory returned null");
    }

    if (options.shards == 1) {
      // Single shard: import the source document untouched — byte
      // identical to an unsharded Database fed the same options.
      NAVPATH_ASSIGN_OR_RETURN(state.doc,
                               state.db->Import(tree, policy.get()));
    } else {
      // Pruned copy: the root element (text, attributes — the latter only
      // on the home shard so no attribute is replicated) plus the owned
      // depth-1 subtrees, in document order, under their original order
      // keys.
      DomTree shard_tree(state.db->tags());
      const DomNode& root = tree.node(tree.root());
      shard_tree.CreateRoot(root.tag);
      shard_tree.SetOrder(0, root.order);
      if (!root.text.empty()) shard_tree.AppendText(0, root.text);
      if (k == store->home_shard()) {
        for (DomNodeId a = root.first_attr; a != kNilDomNode;
             a = tree.node(a).next_sibling) {
          const DomNode& an = tree.node(a);
          const DomNodeId da = shard_tree.AddAttribute(0, an.tag, an.text);
          shard_tree.SetOrder(da, an.order);
        }
      }
      for (DomNodeId c = root.first_child; c != kNilDomNode;
           c = tree.node(c).next_sibling) {
        const auto it = store->owner_.find(tree.TagName(c));
        NAVPATH_CHECK(it != store->owner_.end());
        if (store->units_[it->second].owner == k) {
          CopySubtree(tree, c, &shard_tree, 0);
        }
      }
      NAVPATH_ASSIGN_OR_RETURN(state.doc,
                               state.db->Import(shard_tree, policy.get()));
    }

    NAVPATH_CHECK(state.db->summary() != nullptr);
    state.stats = DocumentStats::FromSummary(*state.db->summary(), state.doc);
    store->shards_.push_back(std::move(state));
  }
  return store;
}

}  // namespace navpath
