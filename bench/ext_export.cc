// Extension: document export (paper Sec. 7 outlook). Compares the
// navigational exporter (logical-order traversal, random I/O on a
// fragmented layout) against the scan-based exporter, whose partial
// document instances are assembled from one sequential pass.
#include <cstdio>

#include "benchlib/harness.h"
#include "store/export.h"
#include "store/scan_export.h"

int main() {
  using namespace navpath;
  const double sf = FastBenchMode() ? 0.05 : 0.25;
  std::printf("Extension — document export at scale %.2f\n", sf);
  FixtureOptions options;
  options.db.import.fragmentation = 0.5;  // aged layout
  auto fixture = XMarkFixture::Create(sf, options);
  if (!fixture.ok()) {
    std::fprintf(stderr, "FAILED: %s\n",
                 fixture.status().ToString().c_str());
    return 1;
  }
  Database* db = (*fixture)->db();

  PrintTableHeader("full-document export",
                   {"exporter", "total[s]", "CPU[s]", "reads", "seq",
                    "bytes"});

  if (!db->ResetMeasurement().ok()) return 1;
  auto navigational = ExportDocument(db, (*fixture)->doc());
  navigational.status().AbortIfNotOk();
  PrintTableRow({"navigational",
                 FormatSeconds(SimClock::ToSeconds(db->clock()->now())),
                 FormatSeconds(SimClock::ToSeconds(db->clock()->cpu_time())),
                 std::to_string(db->metrics()->disk_reads),
                 std::to_string(db->metrics()->disk_seq_reads),
                 std::to_string(navigational->size())});

  if (!db->ResetMeasurement().ok()) return 1;
  auto scanned = ScanExportDocument(db, (*fixture)->doc());
  scanned.status().AbortIfNotOk();
  PrintTableRow({"scan+stitch",
                 FormatSeconds(SimClock::ToSeconds(db->clock()->now())),
                 FormatSeconds(SimClock::ToSeconds(db->clock()->cpu_time())),
                 std::to_string(db->metrics()->disk_reads),
                 std::to_string(db->metrics()->disk_seq_reads),
                 std::to_string(scanned->size())});

  if (*navigational != *scanned) {
    std::fprintf(stderr, "MISMATCH between exporters\n");
    return 1;
  }
  std::printf("\noutputs byte-identical: yes\n");
  return 0;
}
