// Storage inspector: imports a document under a chosen clustering policy
// and dumps the physical layout — per-page fill, record mix, border
// symmetry (a store fsck), and the cluster histogram.
//
//   ./build/examples/storage_inspector [policy] [scale]
//   policy: subtree | doc-order | round-robin | random   (default subtree)
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#include "benchlib/harness.h"
#include "store/tree_page.h"

int main(int argc, char** argv) {
  using namespace navpath;
  FixtureOptions options;
  options.clustering = argc > 1 ? argv[1] : "subtree";
  const double scale = argc > 2 ? std::atof(argv[2]) : 0.02;
  options.db.import.fragmentation = 0.0;

  auto fixture = XMarkFixture::Create(scale, options);
  if (!fixture.ok()) {
    std::fprintf(stderr, "FAILED: %s\n", fixture.status().ToString().c_str());
    return 1;
  }
  Database* db = (*fixture)->db();
  const ImportedDocument& doc = (*fixture)->doc();
  const std::size_t page_size = db->options().page_size;

  std::printf("policy=%s scale=%.2f: %u pages, %llu cores, %llu border "
              "pairs (%llu from chain continuations)\n\n",
              options.clustering.c_str(), scale, doc.page_count(),
              static_cast<unsigned long long>(doc.core_records),
              static_cast<unsigned long long>(doc.border_pairs),
              static_cast<unsigned long long>(doc.continuation_pairs));

  std::uint64_t cores = 0, downs = 0, ups = 0, attrs = 0, used_bytes = 0;
  std::uint64_t broken_partners = 0;
  std::map<int, int> fill_histogram;  // fill decile -> pages
  for (PageId p = doc.first_page; p <= doc.last_page; ++p) {
    auto guard = db->buffer()->Fix(p);
    guard.status().AbortIfNotOk();
    const TreePage page = TreePage::ReadOnly(guard->data(), page_size);
    const std::size_t used = page_size - page.FreeBytes();
    used_bytes += used;
    ++fill_histogram[static_cast<int>(10.0 * used / page_size)];
    for (SlotId s = 0; s < page.slot_count(); ++s) {
      if (!page.IsLive(s)) continue;
      switch (page.KindOf(s)) {
        case RecordKind::kCore:
          ++cores;
          break;
        case RecordKind::kBorderDown:
          ++downs;
          break;
        case RecordKind::kBorderUp:
          ++ups;
          break;
        case RecordKind::kAttribute:
          ++attrs;
          break;
      }
      if (page.IsBorder(s)) {
        const NodeID partner = page.PartnerOf(s);
        auto partner_guard = db->buffer()->Fix(partner.page);
        partner_guard.status().AbortIfNotOk();
        const TreePage partner_page =
            TreePage::ReadOnly(partner_guard->data(), page_size);
        if (partner.slot >= partner_page.slot_count() ||
            !partner_page.IsBorder(partner.slot) ||
            partner_page.PartnerOf(partner.slot) != (NodeID{p, s})) {
          ++broken_partners;
        }
      }
    }
  }

  std::printf(
      "records: %llu cores, %llu attributes, %llu down-borders, "
      "%llu up-borders\n",
      static_cast<unsigned long long>(cores),
      static_cast<unsigned long long>(attrs),
      static_cast<unsigned long long>(downs),
      static_cast<unsigned long long>(ups));
  std::printf("average page fill: %.1f%%\n",
              100.0 * static_cast<double>(used_bytes) /
                  (static_cast<double>(doc.page_count()) *
                   static_cast<double>(page_size)));
  std::printf("fill histogram (decile: pages): ");
  for (const auto& [decile, count] : fill_histogram) {
    std::printf("%d0%%:%d  ", decile, count);
  }
  std::printf("\nborder symmetry check (target(target(x)) == x): %s\n",
              broken_partners == 0 ? "OK"
                                   : ("BROKEN x" +
                                      std::to_string(broken_partners))
                                         .c_str());
  return broken_partners == 0 ? 0 : 1;
}
