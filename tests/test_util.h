// Shared test utilities: random document generation, explicit clustering,
// and store-vs-oracle comparison helpers.
#ifndef NAVPATH_TESTS_TEST_UTIL_H_
#define NAVPATH_TESTS_TEST_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/random.h"
#include "store/clustering.h"
#include "store/cross_cursor.h"
#include "store/database.h"
#include "xml/dom.h"

namespace navpath {

struct RandomTreeOptions {
  std::size_t node_count = 200;
  int max_fanout = 5;
  int tag_alphabet = 4;  // tags t0..t{n-1}
  int max_text_words = 3;
  int max_attrs = 2;  // random attributes a0..a{k-1} per element
};

/// Builds a random labeled tree (document order == DomNodeId order).
inline DomTree MakeRandomTree(const RandomTreeOptions& options,
                              std::uint64_t seed, TagRegistry* tags) {
  DomTree tree(tags);
  Random rng(seed);
  std::vector<TagId> alphabet;
  for (int i = 0; i < options.tag_alphabet; ++i) {
    alphabet.push_back(tags->Intern("t" + std::to_string(i)));
  }
  auto random_tag = [&] {
    return alphabet[rng.NextBounded(alphabet.size())];
  };
  auto random_text = [&] {
    std::string text;
    const int words =
        static_cast<int>(rng.NextBounded(options.max_text_words + 1));
    for (int i = 0; i < words; ++i) text += "word ";
    return text;
  };
  std::vector<TagId> attr_names;
  for (int i = 0; i < 3; ++i) {
    attr_names.push_back(tags->Intern("a" + std::to_string(i)));
  }
  auto add_attrs = [&](DomNodeId element) {
    const int n =
        static_cast<int>(rng.NextBounded(options.max_attrs + 1));
    for (int i = 0; i < n; ++i) {
      tree.AddAttribute(element, attr_names[rng.NextBounded(3)], "val");
    }
  };
  const DomNodeId root = tree.CreateRoot(random_tag());
  tree.AppendText(root, random_text());
  add_attrs(root);
  // Grow by attaching to a random frontier node, biased towards recent
  // nodes so depth varies.
  std::vector<DomNodeId> frontier{root};
  std::vector<int> child_count{0};
  while (tree.element_count() < options.node_count) {
    const std::size_t pick =
        frontier.size() -
        1 - rng.NextBounded(std::min<std::size_t>(frontier.size(), 8));
    const DomNodeId parent = frontier[pick];
    if (child_count[pick] >= options.max_fanout) {
      frontier.erase(frontier.begin() + static_cast<std::ptrdiff_t>(pick));
      child_count.erase(child_count.begin() +
                        static_cast<std::ptrdiff_t>(pick));
      if (frontier.empty()) {
        frontier.push_back(root);
        child_count.push_back(options.max_fanout);  // root saturated; stop
        break;
      }
      continue;
    }
    ++child_count[pick];
    const DomNodeId child = tree.AppendChild(parent, random_tag());
    tree.AppendText(child, random_text());
    add_attrs(child);
    frontier.push_back(child);
    child_count.push_back(0);
  }
  tree.AssignOrderKeys();
  return tree;
}

/// WARNING: MakeRandomTree appends children to arbitrary frontier nodes,
/// so DomNodeIds are NOT in document order; use node .order fields.
/// (DocOrderClusteringPolicy assumes id order == document order and is
/// only meaningful for parser/generator-built trees.)

/// A clustering policy with a fixed, explicit assignment (for tests).
class ExplicitClusteringPolicy : public ClusteringPolicy {
 public:
  explicit ExplicitClusteringPolicy(ClusterAssignment assignment)
      : assignment_(std::move(assignment)) {}
  ClusterAssignment Assign(const DomTree&) override { return assignment_; }
  const char* name() const override { return "explicit"; }

 private:
  ClusterAssignment assignment_;
};

/// The nodes of `tree` reachable from its root, elements and attributes,
/// in preorder (RemoveSubtree unlinks a subtree but keeps its nodes).
std::vector<DomNodeId> LiveDomNodes(const DomTree& tree);

/// Maps every node's order key (elements AND attributes) to its NodeID by
/// walking the paged store from the root. Fails if the physical tree
/// disagrees structurally with `tree` (its live nodes).
Result<std::unordered_map<std::uint64_t, NodeID>> MapOrderToNodeID(
    Database* db, const ImportedDocument& doc, const DomTree& tree);

/// Compares the counters of two DocumentStats-like objects (anything with
/// its count accessors): the node count, the root tag, and every per-tag
/// and per-tag-pair count over tag ids below `tag_count`. Returns the
/// first few differences, one per line, and their total; empty if none.
template <typename A, typename B>
std::string StatsDifferences(const A& a, const B& b, TagId tag_count) {
  std::string out;
  std::size_t differences = 0;
  auto check = [&](const char* what, TagId x, TagId y, std::uint64_t va,
                   std::uint64_t vb) {
    if (va == vb || ++differences > 5) return;
    out += std::string(what) + "(" + std::to_string(x) + ", " +
           std::to_string(y) + "): " + std::to_string(va) + " vs " +
           std::to_string(vb) + "\n";
  };
  check("node_count", 0, 0, a.node_count(), b.node_count());
  check("root_tag", 0, 0, a.root_tag(), b.root_tag());
  for (TagId x = 0; x < tag_count; ++x) {
    check("CountOfTag", x, x, a.CountOfTag(x), b.CountOfTag(x));
    check("AttributeCountAny", x, x, a.AttributeCountAny(x),
          b.AttributeCountAny(x));
    check("ChildCountAny", x, x, a.ChildCountAny(x), b.ChildCountAny(x));
    check("DescendantCountAny", x, x, a.DescendantCountAny(x),
          b.DescendantCountAny(x));
    for (TagId y = 0; y < tag_count; ++y) {
      check("AttributeCount", x, y, a.AttributeCount(x, y),
            b.AttributeCount(x, y));
      check("ChildCount", x, y, a.ChildCount(x, y), b.ChildCount(x, y));
      check("DescendantCount", x, y, a.DescendantCount(x, y),
            b.DescendantCount(x, y));
    }
  }
  if (differences > 0) {
    out += std::to_string(differences) + " difference(s)";
  }
  return out;
}

/// FNV-1a over 64-bit words: digests of simulated schedules and costs,
/// compared against constants recorded from an earlier build.
struct Fnv1a {
  std::uint64_t h = 1469598103934665603ull;
  void Add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  }
  /// One Add per character (e.g. of Metrics::ToString()).
  void AddText(std::string_view text) {
    for (const char c : text) Add(static_cast<unsigned char>(c));
  }
};

}  // namespace navpath

#endif  // NAVPATH_TESTS_TEST_UTIL_H_
