// Tests for database save/load.
#include <gtest/gtest.h>

#include <sys/resource.h>
#include <unistd.h>

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>

#include "compiler/cost_model.h"
#include "compiler/executor.h"
#include "storage/checksum.h"
#include "store/export.h"
#include "store/persistence.h"
#include "store/update.h"
#include "store/verify.h"
#include "xml/parser.h"
#include "tests/test_util.h"
#include "xmark/generator.h"
#include "xpath/oracle.h"
#include "xpath/parser.h"

namespace navpath {
namespace {

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

TEST(PersistenceTest, RoundTripPreservesDocument) {
  DatabaseOptions options;
  options.page_size = 1024;
  options.buffer_pages = 128;
  Database db(options);
  XMarkOptions xmark;
  xmark.scale = 0.005;
  const DomTree tree = GenerateXMark(xmark, db.tags());
  SubtreeClusteringPolicy policy(896);
  auto doc = db.Import(tree, &policy);
  ASSERT_TRUE(doc.ok());

  auto original = ExportDocument(&db, *doc);
  ASSERT_TRUE(original.ok());

  const std::string path = TempPath("roundtrip.nvph");
  ASSERT_TRUE(SaveDatabase(&db, *doc, path).ok());

  auto loaded = LoadDatabase(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->doc.core_records, doc->core_records);
  EXPECT_EQ(loaded->doc.attribute_records, doc->attribute_records);
  EXPECT_EQ(loaded->doc.border_pairs, doc->border_pairs);

  // fsck + byte-identical export from the reloaded database.
  auto report = VerifyStore(loaded->db.get(), loaded->doc);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  auto reloaded = ExportDocument(loaded->db.get(), loaded->doc);
  ASSERT_TRUE(reloaded.ok());
  EXPECT_EQ(*reloaded, *original);

  // Queries behave identically on the reloaded database.
  auto query = ParseQuery("count(/site/regions//item/@id)",
                          loaded->db->tags());
  ASSERT_TRUE(query.ok());
  ExecuteOptions exec;
  exec.plan.kind = PlanKind::kXSchedule;
  auto before = ExecuteQuery(&db, *doc, *query, exec);
  auto after = ExecuteQuery(loaded->db.get(), loaded->doc, *query, exec);
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(before->count, after->count);
  EXPECT_EQ(before->metrics.disk_reads, after->metrics.disk_reads);
  // Timing matches up to the initial head position (the fresh database's
  // head starts parked; the original's sits wherever import left it).
  EXPECT_NEAR(static_cast<double>(before->total_time),
              static_cast<double>(after->total_time), 20e6 /* 20ms */);

  std::remove(path.c_str());
}

TEST(PersistenceTest, FailedSaveKeepsThePreviousFile) {
  DatabaseOptions options;
  options.page_size = 1024;
  options.buffer_pages = 128;
  Database db(options);
  XMarkOptions xmark;
  xmark.scale = 0.005;
  const DomTree tree = GenerateXMark(xmark, db.tags());
  SubtreeClusteringPolicy policy(896);
  auto doc = db.Import(tree, &policy);
  ASSERT_TRUE(doc.ok());

  const std::string path = TempPath("failed_save.nvph");
  ASSERT_TRUE(SaveDatabase(&db, *doc, path).ok());
  const std::uintmax_t size = std::filesystem::file_size(path);

  // A file-size limit of half the file makes the second save fail
  // part-way: its writes get EFBIG (SIGXFSZ ignored, so the process
  // survives). The limit and the handler are restored right after.
  rlimit saved{};
  ASSERT_EQ(getrlimit(RLIMIT_FSIZE, &saved), 0);
  rlimit half = saved;
  half.rlim_cur = static_cast<rlim_t>(size / 2);
  void (*const handler)(int) = std::signal(SIGXFSZ, SIG_IGN);
  ASSERT_EQ(setrlimit(RLIMIT_FSIZE, &half), 0);
  const Status failed = SaveDatabase(&db, *doc, path);
  ASSERT_EQ(setrlimit(RLIMIT_FSIZE, &saved), 0);
  std::signal(SIGXFSZ, handler);
  EXPECT_TRUE(failed.IsIOError()) << failed.ToString();

  // The previous file is intact and loads; the temp file is gone.
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  EXPECT_EQ(std::filesystem::file_size(path), size);
  auto loaded = LoadDatabase(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->doc.core_records, doc->core_records);
  std::remove(path.c_str());
}

TEST(PersistenceTest, SurvivesUpdatesBeforeSave) {
  DatabaseOptions options;
  options.page_size = 512;
  Database db(options);
  auto tree = ParseXml("<r><a/><b/></r>", db.tags());
  ASSERT_TRUE(tree.ok());
  SubtreeClusteringPolicy policy(448);
  ImportedDocument doc = *db.Import(*tree, &policy);
  DocumentUpdater updater(&db, &doc);
  auto inserted = updater.InsertElement(doc.root, kInvalidNodeID,
                                        db.tags()->Intern("n"), "x",
                                        {{db.tags()->Intern("k"), "v"}});
  ASSERT_TRUE(inserted.ok());

  const std::string path = TempPath("updated.nvph");
  ASSERT_TRUE(SaveDatabase(&db, doc, path).ok());
  auto loaded = LoadDatabase(path);
  ASSERT_TRUE(loaded.ok());
  auto exported = ExportDocument(loaded->db.get(), loaded->doc);
  ASSERT_TRUE(exported.ok());
  EXPECT_EQ(*exported, "<r><n k=\"v\">x</n><a/><b/></r>");
  std::remove(path.c_str());
}

TEST(PersistenceTest, RoundTripPreservesSummary) {
  DatabaseOptions options;
  options.page_size = 1024;
  Database db(options);
  XMarkOptions xmark;
  xmark.scale = 0.005;
  const DomTree tree = GenerateXMark(xmark, db.tags());
  SubtreeClusteringPolicy policy(896);
  auto doc = db.Import(tree, &policy);
  ASSERT_TRUE(doc.ok());
  ASSERT_NE(db.summary(), nullptr);
  std::string original_bytes;
  db.summary()->Encode(&original_bytes);

  const std::string path = TempPath("summary_roundtrip.nvph");
  ASSERT_TRUE(SaveDatabase(&db, *doc, path).ok());
  auto loaded = LoadDatabase(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded->summary_status.ok())
      << loaded->summary_status.ToString();
  ASSERT_NE(loaded->db->summary(), nullptr);
  std::string reloaded_bytes;
  loaded->db->summary()->Encode(&reloaded_bytes);
  EXPECT_EQ(reloaded_bytes, original_bytes);

  // The reloaded synopsis answers count queries without navigating.
  auto query = ParseQuery("count(/site/regions//item)", loaded->db->tags());
  ASSERT_TRUE(query.ok());
  ExecuteOptions exec;
  exec.plan.kind = PlanKind::kXSchedule;
  auto result = ExecuteQuery(loaded->db.get(), loaded->doc, *query, exec);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->count, OracleCount(tree, *query, tree.root()));
  EXPECT_EQ(result->metrics.clusters_visited, 0u);
  EXPECT_EQ(result->metrics.disk_reads, 0u);

  // The optimizer's statistics, derived from the reloaded synopsis, are
  // those of the source tree.
  const DocumentStats reloaded_stats =
      DocumentStats::FromSummary(*loaded->db->summary(), loaded->doc);
  const DocumentStats source_stats =
      DocumentStats::Build(tree, *doc, options.page_size);
  EXPECT_EQ(StatsDifferences(reloaded_stats, source_stats,
                             static_cast<TagId>(db.tags()->size())),
            "");
  EXPECT_EQ(reloaded_stats.tags(), source_stats.tags());
  EXPECT_EQ(reloaded_stats.page_count(), source_stats.page_count());
  EXPECT_EQ(reloaded_stats.crossing_probability(),
            source_stats.crossing_probability());
  std::remove(path.c_str());
}

TEST(PersistenceTest, ChainDeeperThanTheXmlParserAllowsPlansFromItsSummary) {
  // ParseXml refuses documents nested deeper than 256 levels, so a saved
  // 300-deep chain cannot be exported and re-parsed; its statistics come
  // from the summary the file carries.
  DatabaseOptions options;
  options.page_size = 512;
  Database db(options);
  DomTree tree(db.tags());
  DomNodeId v = tree.CreateRoot(db.tags()->Intern("r"));
  const TagId d = db.tags()->Intern("d");
  for (int i = 0; i < 300; ++i) v = tree.AppendChild(v, d);
  tree.AssignOrderKeys();
  SubtreeClusteringPolicy policy(448);
  auto doc = db.Import(tree, &policy);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();

  const std::string path = TempPath("deep_chain.nvph");
  ASSERT_TRUE(SaveDatabase(&db, *doc, path).ok());
  auto loaded = LoadDatabase(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  std::remove(path.c_str());
  const PathSummary* summary = loaded->db->summary();
  ASSERT_NE(summary, nullptr);
  const DocumentStats stats =
      DocumentStats::FromSummary(*summary, loaded->doc);
  EXPECT_EQ(stats.CountOfTag(d), 300u);
  EXPECT_EQ(stats.DescendantCount(d, d), 299u * 300u / 2);

  auto query = ParseQuery("count(//d)", loaded->db->tags());
  ASSERT_TRUE(query.ok());
  const PlanKind chosen =
      ChoosePlanKind(stats, *query, loaded->db->options().disk_model,
                     loaded->db->costs(), summary);
  for (const PlanKind kind :
       {chosen, PlanKind::kSimple, PlanKind::kXSchedule, PlanKind::kXScan}) {
    SCOPED_TRACE(PlanKindName(kind));
    ExecuteOptions exec;
    exec.plan.kind = kind;
    exec.plan.use_summary = false;  // navigate all 300 levels
    auto result = ExecuteQuery(loaded->db.get(), loaded->doc, *query, exec);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->count, 300u);
  }
}

TEST(PersistenceTest, SavesToAFileNameWithoutADirectory) {
  // The directory synced after the rename is then the working directory.
  DatabaseOptions options;
  options.page_size = 512;
  Database db(options);
  auto tree = ParseXml("<r><a/><b/></r>", db.tags());
  ASSERT_TRUE(tree.ok());
  SubtreeClusteringPolicy policy(448);
  auto doc = db.Import(*tree, &policy);
  ASSERT_TRUE(doc.ok());
  const std::filesystem::path previous = std::filesystem::current_path();
  std::filesystem::current_path(::testing::TempDir());
  const Status saved = SaveDatabase(&db, *doc, "relative.nvph");
  auto loaded = LoadDatabase("relative.nvph");
  std::remove("relative.nvph");
  std::filesystem::current_path(previous);
  ASSERT_TRUE(saved.ok()) << saved.ToString();
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->doc.core_records, doc->core_records);
}

TEST(PersistenceTest, CorruptSummaryBlockDegradesToSummaryFreeLoad) {
  DatabaseOptions options;
  options.page_size = 1024;
  Database db(options);
  XMarkOptions xmark;
  xmark.scale = 0.005;
  const DomTree tree = GenerateXMark(xmark, db.tags());
  SubtreeClusteringPolicy policy(896);
  auto doc = db.Import(tree, &policy);
  ASSERT_TRUE(doc.ok());
  auto original = ExportDocument(&db, *doc);
  ASSERT_TRUE(original.ok());

  const std::string path = TempPath("summary_corrupt.nvph");
  ASSERT_TRUE(SaveDatabase(&db, *doc, path).ok());

  // Flip one byte inside the summary block. The block's bytes are the
  // summary's own encoding, so locate them by searching the file.
  std::string encoded;
  db.summary()->Encode(&encoded);
  {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    std::string file;
    char buf[4096];
    std::size_t got;
    while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) {
      file.append(buf, got);
    }
    std::fclose(f);
    const std::size_t at = file.find(encoded);
    ASSERT_NE(at, std::string::npos);
    f = std::fopen(path.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, static_cast<long>(at + encoded.size() / 2),
                         SEEK_SET),
              0);
    std::fputc(file[at + encoded.size() / 2] ^ 0x40, f);
    std::fclose(f);
  }

  // The summary is derived data: the load succeeds, records the damage,
  // and the database works — navigationally — without a synopsis.
  auto loaded = LoadDatabase(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_FALSE(loaded->summary_status.ok());
  EXPECT_EQ(loaded->db->summary(), nullptr);
  auto exported = ExportDocument(loaded->db.get(), loaded->doc);
  ASSERT_TRUE(exported.ok());
  EXPECT_EQ(*exported, *original);
  auto query = ParseQuery("count(/site/regions//item)", loaded->db->tags());
  ASSERT_TRUE(query.ok());
  ExecuteOptions exec;
  exec.plan.kind = PlanKind::kXSchedule;
  auto result = ExecuteQuery(loaded->db.get(), loaded->doc, *query, exec);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->count, OracleCount(tree, *query, tree.root()));
  EXPECT_GT(result->metrics.clusters_visited, 0u);
  std::remove(path.c_str());
}

TEST(PersistenceTest, RejectsGarbageFiles) {
  const std::string path = TempPath("garbage.nvph");
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("this is not a database", f);
    std::fclose(f);
  }
  EXPECT_FALSE(LoadDatabase(path).ok());
  EXPECT_FALSE(LoadDatabase(TempPath("missing.nvph")).ok());
  std::remove(path.c_str());
}

/// Writes a v4 file header by hand: magic, version, `page_size`,
/// `page_count`, an empty tag table and a zeroed catalog, then `tail`
/// (the summary and versioned-root blocks and whatever follows).
void WriteV4Header(const std::string& path, std::uint32_t page_size,
                   std::uint32_t page_count, const std::string& tail) {
  std::string bytes = "NVPH";
  const auto u32 = [&bytes](std::uint32_t v) {
    bytes.append(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  u32(4);  // version
  u32(page_size);
  u32(page_count);
  u32(0);  // tag count
  // Catalog: root page, root slot, root order, first/last page, then five
  // 64-bit record counts.
  bytes.append(4 + 4 + 8 + 4 + 4 + 5 * 8, '\0');
  bytes += tail;
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

std::string U8(std::uint8_t v) { return std::string(1, static_cast<char>(v)); }
std::string U32(std::uint32_t v) {
  return std::string(reinterpret_cast<const char*>(&v), sizeof(v));
}
std::string U64(std::uint64_t v) {
  return std::string(reinterpret_cast<const char*>(&v), sizeof(v));
}

TEST(PersistenceTest, RejectsPageSizesThePageLayoutCannotAddress) {
  const std::string path = TempPath("bad_page_size.nvph");
  const std::string no_blocks = U8(0) + U8(0);
  for (const std::uint32_t page_size : {0u, 1u, 0x10000u, 0xFFFFFFFFu}) {
    WriteV4Header(path, page_size, 0, no_blocks);
    auto loaded = LoadDatabase(path);
    EXPECT_TRUE(loaded.status().IsCorruption())
        << page_size << ": " << loaded.status().ToString();
  }
  // The same header with a usable page size and no pages loads.
  WriteV4Header(path, 512, 0, no_blocks);
  EXPECT_TRUE(LoadDatabase(path).ok());
  std::remove(path.c_str());
}

TEST(PersistenceTest, RejectsCountsLargerThanTheFile) {
  const std::string path = TempPath("bad_counts.nvph");
  // A page count no file this size can hold, and a versioned-root block
  // whose mapping count would reserve ~32 GiB.
  WriteV4Header(path, 512, 0xFFFFFFFFu,
                U8(0) + U8(1) + U64(0) + U32(0xFFFFFFF0u) + U64(0));
  auto loaded = LoadDatabase(path);
  EXPECT_TRUE(loaded.status().IsCorruption()) << loaded.status().ToString();
  // A page count the file could hold at the header, but a mapping count
  // that the bytes left after a large summary block cannot.
  WriteV4Header(path, 512, 1,
                U8(1) + U64(600) + std::string(600, 'x') + U32(0) + U8(1) +
                    U64(0) + U32(1));
  loaded = LoadDatabase(path);
  ASSERT_TRUE(loaded.status().IsCorruption()) << loaded.status().ToString();
  EXPECT_NE(loaded.status().message().find("mapping table"),
            std::string::npos)
      << loaded.status().ToString();
  std::remove(path.c_str());
}

TEST(PersistenceTest, RejectsSummaryLengthLargerThanTheFile) {
  // A 2 GiB summary block in a file of a hundred bytes is refused from its
  // length field, before a buffer for it is allocated.
  const std::string path = TempPath("bad_summary_length.nvph");
  WriteV4Header(path, 512, 0, U8(1) + U64(1ull << 31) + std::string(16, 'x'));
  auto loaded = LoadDatabase(path);
  ASSERT_TRUE(loaded.status().IsCorruption()) << loaded.status().ToString();
  EXPECT_NE(loaded.status().message().find("summary block length"),
            std::string::npos)
      << loaded.status().ToString();
  std::remove(path.c_str());
}

TEST(PersistenceTest, SummaryExtentPastTheLastPageDegradesToNoSummary) {
  // A one-node summary with a valid CRC whose extent names page 0 of a
  // file that holds no pages: the synopsis is dropped, the load succeeds.
  const auto summary_block = [](std::uint32_t extent_count) {
    std::string encoded = U32(1) + U64(1);  // one node, one instance
    encoded += U32(0) + U8(0) + U32(0xFFFFFFFFu) + U64(1);
    encoded += U32(extent_count);
    for (std::uint32_t i = 0; i < extent_count; ++i) encoded += U64(0);
    const std::uint32_t crc = Crc32c(
        reinterpret_cast<const std::byte*>(encoded.data()), encoded.size());
    return U8(1) + U64(encoded.size()) + encoded + U32(crc) + U8(0);
  };
  const std::string path = TempPath("summary_past_end.nvph");
  WriteV4Header(path, 512, 0, summary_block(1));
  auto loaded = LoadDatabase(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded->summary_status.IsCorruption())
      << loaded->summary_status.ToString();
  EXPECT_EQ(loaded->db->summary(), nullptr);
  // The zeroed catalog of a file without pages names no document.
  EXPECT_EQ(loaded->doc.page_count(), 0u);
  // The same summary without the extent is kept.
  WriteV4Header(path, 512, 0, summary_block(0));
  loaded = LoadDatabase(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded->summary_status.ok())
      << loaded->summary_status.ToString();
  EXPECT_NE(loaded->db->summary(), nullptr);
  std::remove(path.c_str());
}

TEST(PersistenceTest, PagelessFileVerifiesAsAnEmptyStore) {
  // navq's \stats runs VerifyStore on whatever it opened; a file without
  // pages is an empty store, not a read past the end of the segment.
  const std::string path = TempPath("pageless.nvph");
  WriteV4Header(path, 512, 0, U8(0) + U8(0));
  auto loaded = LoadDatabase(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  auto report = VerifyStore(loaded->db.get(), loaded->doc);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->pages, 0u);
  EXPECT_EQ(report->core_records, 0u);
  EXPECT_EQ(report->reachable_cores, 0u);
  EXPECT_EQ(loaded->db->metrics()->disk_reads, 0u);
  std::remove(path.c_str());
}

TEST(PersistenceTest, TruncatedFileDetected) {
  DatabaseOptions options;
  options.page_size = 512;
  Database db(options);
  auto tree = ParseXml("<r><a/></r>", db.tags());
  ASSERT_TRUE(tree.ok());
  SubtreeClusteringPolicy policy(448);
  auto doc = db.Import(*tree, &policy);
  ASSERT_TRUE(doc.ok());
  const std::string path = TempPath("truncated.nvph");
  ASSERT_TRUE(SaveDatabase(&db, *doc, path).ok());
  // Chop off the page data.
  {
    std::FILE* f = std::fopen(path.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, 0, SEEK_END), 0);
    const long size = std::ftell(f);
    std::fclose(f);
    ASSERT_EQ(truncate(path.c_str(), size - 600), 0);
  }
  EXPECT_FALSE(LoadDatabase(path).ok());
  std::remove(path.c_str());
}

/// A saved multi-page document and the byte offset of its catalog, found
/// by walking the tag table that precedes it.
struct SavedFile {
  std::string bytes;
  std::size_t catalog = 0;
  std::uint32_t page_count = 0;
  std::uint32_t last_page = 0;
};

void SaveMultiPageFile(const std::string& path, SavedFile* saved) {
  DatabaseOptions options;
  options.page_size = 1024;
  Database db(options);
  XMarkOptions xmark;
  xmark.scale = 0.002;
  const DomTree tree = GenerateXMark(xmark, db.tags());
  SubtreeClusteringPolicy policy(896);
  auto doc = db.Import(tree, &policy);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  ASSERT_TRUE(SaveDatabase(&db, *doc, path).ok());
  ASSERT_TRUE(LoadDatabase(path).ok());

  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  char chunk[4096];
  std::size_t n = 0;
  while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0) {
    saved->bytes.append(chunk, n);
  }
  std::fclose(f);
  const auto u32_at = [&](std::size_t at) {
    std::uint32_t v = 0;
    std::memcpy(&v, saved->bytes.data() + at, sizeof(v));
    return v;
  };
  // magic, version, page size, page count, tag count, then the tags.
  saved->page_count = u32_at(12);
  ASSERT_GT(saved->page_count, 2u);
  std::size_t at = 20;
  for (std::uint32_t t = u32_at(16); t > 0; --t) at += 4 + u32_at(at);
  saved->catalog = at;
  saved->last_page = u32_at(at + 20);
}

/// Writes `saved` to `path` with the catalog's 32-bit field at byte
/// `field` (0 root page, 4 root slot, 16 first page, 20 last page)
/// replaced by `value`.
void WritePatchedCatalog(const std::string& path, const SavedFile& saved,
                         std::size_t field, std::uint32_t value) {
  std::string bytes = saved.bytes;
  std::memcpy(bytes.data() + saved.catalog + field, &value, sizeof(value));
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

TEST(PersistenceTest, RejectsCatalogRootSlotThatIsNotALiveCoreRecord) {
  // A root slot past the page's slot directory must not load: exporting
  // the document would read a tag from outside the directory.
  const std::string path = TempPath("bad_root_slot.nvph");
  SavedFile saved;
  ASSERT_NO_FATAL_FAILURE(SaveMultiPageFile(path, &saved));
  ASSERT_NO_FATAL_FAILURE(WritePatchedCatalog(path, saved, 4, 60000));
  auto loaded = LoadDatabase(path);
  ASSERT_TRUE(loaded.status().IsCorruption()) << loaded.status().ToString();
  EXPECT_NE(loaded.status().message().find("root slot"), std::string::npos)
      << loaded.status().ToString();
  std::remove(path.c_str());
}

TEST(PersistenceTest, RejectsCatalogRootPagePastTheLastPage) {
  const std::string path = TempPath("bad_root_page.nvph");
  SavedFile saved;
  ASSERT_NO_FATAL_FAILURE(SaveMultiPageFile(path, &saved));
  ASSERT_NO_FATAL_FAILURE(
      WritePatchedCatalog(path, saved, 0, saved.page_count + 5));
  auto loaded = LoadDatabase(path);
  ASSERT_TRUE(loaded.status().IsCorruption()) << loaded.status().ToString();
  EXPECT_NE(loaded.status().message().find("root page"), std::string::npos)
      << loaded.status().ToString();
  std::remove(path.c_str());
}

TEST(PersistenceTest, RejectsCatalogPageRangePastTheLastPage) {
  // A last page past the file must not load: the document would report
  // pages the file does not hold.
  const std::string path = TempPath("bad_page_range.nvph");
  SavedFile saved;
  ASSERT_NO_FATAL_FAILURE(SaveMultiPageFile(path, &saved));
  ASSERT_NO_FATAL_FAILURE(
      WritePatchedCatalog(path, saved, 20, saved.page_count + 100));
  auto loaded = LoadDatabase(path);
  EXPECT_TRUE(loaded.status().IsCorruption()) << loaded.status().ToString();
  // A first page after the last page is refused the same way.
  ASSERT_NO_FATAL_FAILURE(
      WritePatchedCatalog(path, saved, 16, saved.last_page + 1));
  loaded = LoadDatabase(path);
  EXPECT_TRUE(loaded.status().IsCorruption()) << loaded.status().ToString();
  std::remove(path.c_str());
}

}  // namespace
}  // namespace navpath
