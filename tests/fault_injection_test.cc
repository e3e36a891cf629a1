// Tests for the storage robustness layer: seeded fault injection, page
// checksum trailers, retry/backoff recovery, async->sync degradation, and
// corruption detection across persistence save/load.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "compiler/executor.h"
#include "storage/checksum.h"
#include "storage/fault_injector.h"
#include "store/persistence.h"
#include "xmark/generator.h"
#include "xpath/parser.h"

namespace navpath {
namespace {

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

// --- Checksum primitives -------------------------------------------------

TEST(ChecksumTest, KnownAnswer) {
  // The canonical CRC32C check value (RFC 3720 appendix-style vector).
  const char digits[] = "123456789";
  EXPECT_EQ(Crc32c(reinterpret_cast<const std::byte*>(digits), 9),
            0xE3069283u);
}

TEST(ChecksumTest, ChainsAcrossCalls) {
  const char data[] = "cost-sensitive reordering";
  const auto* bytes = reinterpret_cast<const std::byte*>(data);
  const std::size_t n = sizeof(data) - 1;
  const std::uint32_t whole = Crc32c(bytes, n);
  const std::uint32_t split = Crc32c(bytes + 7, n - 7, Crc32c(bytes, 7));
  EXPECT_EQ(whole, split);
}

TEST(ChecksumTest, DetectsSingleBitFlip) {
  std::vector<std::byte> page(512, std::byte{0xAB});
  const std::uint32_t clean = Crc32c(page.data(), page.size());
  page[317] ^= std::byte{0x04};
  EXPECT_NE(Crc32c(page.data(), page.size()), clean);
}

TEST(ChecksumTest, MatchesPortableReferenceEverywhere) {
  // Crc32c may run on the SSE4.2 kernel; it must agree with the byte-wise
  // table walk on every length, alignment and seed, or saved files and
  // page trailers would differ between machines. The kernel checksums
  // rounds of three 2728-byte blocks, then a serial tail
  // (storage/checksum.cc), so the lengths cover every multiple of the
  // block size, and ±1 and ±8 around each, up to two rounds: past a full
  // 8 KiB page.
  constexpr std::size_t kBlock = 2728;
  constexpr std::size_t kMaxLength = 2 * 3 * kBlock + 8;
  std::vector<std::byte> buf(kMaxLength + 8);
  std::uint32_t x = 0x12345678u;
  for (std::byte& b : buf) {
    x = x * 1664525u + 1013904223u;
    b = static_cast<std::byte>(x >> 24);
  }
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n <= 64; ++n) lengths.push_back(n);
  for (std::size_t base = kBlock; base + 8 <= kMaxLength; base += kBlock) {
    for (const std::size_t n : {base - 8, base - 1, base, base + 1, base + 8}) {
      lengths.push_back(n);
    }
  }
  for (const std::size_t n :
       {100u, 255u, 511u, 1000u, 4095u, 4096u, 8191u, 8192u, 8193u, 9000u}) {
    lengths.push_back(n);
  }
  for (std::size_t offset = 0; offset < 8; ++offset) {
    const std::byte* data = buf.data() + offset;
    for (const std::size_t n : lengths) {
      const std::uint32_t whole = Crc32cPortable(data, n);
      EXPECT_EQ(Crc32c(data, n), whole)
          << "offset " << offset << " length " << n;
      for (const std::uint32_t init : {0x1u, 0xE3069283u, 0xFFFFFFFFu}) {
        EXPECT_EQ(Crc32c(data, n, init), Crc32cPortable(data, n, init))
            << "offset " << offset << " length " << n << " init " << init;
      }
      // Chained: the second part continues the first part's checksum,
      // split in the middle and one round in.
      for (const std::size_t split : {n / 2, std::min(n, 3 * kBlock)}) {
        EXPECT_EQ(Crc32c(data + split, n - split, Crc32c(data, split)), whole)
            << "offset " << offset << " length " << n << " split " << split;
      }
    }
  }
}

// --- Fault schedule determinism ------------------------------------------

FaultInjectorOptions NoisyOptions(std::uint64_t seed) {
  FaultInjectorOptions options;
  options.seed = seed;
  options.transient_read_error_rate = 0.1;
  options.transient_write_error_rate = 0.05;
  options.corruption_rate = 0.05;
  options.latency_spike_rate = 0.1;
  options.permanent_bad_pages = {7};
  return options;
}

TEST(FaultInjectorTest, SameSeedSameSchedule) {
  FaultInjector a(NoisyOptions(42));
  FaultInjector b(NoisyOptions(42));
  for (PageId p = 0; p < 500; ++p) {
    const auto fa = a.NextReadFault(p % 11);
    const auto fb = b.NextReadFault(p % 11);
    EXPECT_EQ(fa.transient_error, fb.transient_error);
    EXPECT_EQ(fa.corrupt, fb.corrupt);
    EXPECT_EQ(fa.extra_latency, fb.extra_latency);
    const auto wa = a.NextWriteFault(p % 7);
    const auto wb = b.NextWriteFault(p % 7);
    EXPECT_EQ(wa.transient_error, wb.transient_error);
    EXPECT_EQ(wa.extra_latency, wb.extra_latency);
  }
  EXPECT_EQ(a.decisions(), b.decisions());
}

TEST(FaultInjectorTest, DifferentSeedsDiverge) {
  FaultInjector a(NoisyOptions(1));
  FaultInjector b(NoisyOptions(2));
  int differences = 0;
  for (PageId p = 0; p < 500; ++p) {
    const auto fa = a.NextReadFault(p % 11);
    const auto fb = b.NextReadFault(p % 11);
    differences += fa.transient_error != fb.transient_error ||
                   fa.corrupt != fb.corrupt ||
                   fa.extra_latency != fb.extra_latency;
  }
  EXPECT_GT(differences, 0);
}

TEST(FaultInjectorTest, PermanentBadPageAlwaysCorrupts) {
  FaultInjectorOptions options;
  options.seed = 9;
  options.permanent_bad_pages = {3};
  FaultInjector injector(options);
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(injector.NextReadFault(3).corrupt);
    EXPECT_FALSE(injector.NextReadFault(4).corrupt);
  }
}

// --- End-to-end query behaviour under faults -----------------------------

struct FaultyFixture {
  DatabaseOptions options;
  Database db;
  ImportedDocument doc;

  explicit FaultyFixture(const FaultInjectorOptions& faults,
                         double xmark_scale = 0.005)
      : options(MakeOptions(faults)), db(options) {
    XMarkOptions xmark;
    xmark.scale = xmark_scale;
    const DomTree tree = GenerateXMark(xmark, db.tags());
    SubtreeClusteringPolicy policy(896);
    doc = *db.Import(tree, &policy);
  }

  static DatabaseOptions MakeOptions(const FaultInjectorOptions& faults) {
    DatabaseOptions o;
    o.page_size = 1024;
    o.buffer_pages = 64;
    o.faults = faults;
    // The test injects faults at rates far above any realistic device so
    // that every recovery path is exercised on a small document; give the
    // retry loop enough attempts that a run of back-to-back injected
    // faults on one page cannot exhaust it.
    o.retry.max_attempts = 8;
    return o;
  }

  Result<QueryRunResult> Run(const std::string& query, PlanKind kind) {
    auto parsed = ParseQuery(query, db.tags());
    parsed.status().AbortIfNotOk();
    ExecuteOptions exec;
    exec.plan.kind = kind;
    exec.collect_nodes = true;
    return ExecuteQuery(&db, doc, *parsed, exec);
  }
};

std::vector<std::uint64_t> OrdersOf(const QueryRunResult& result) {
  std::vector<std::uint64_t> orders;
  orders.reserve(result.nodes.size());
  for (const LogicalNode& node : result.nodes) orders.push_back(node.order);
  return orders;
}

constexpr const char* kTestQuery = "/site/regions//item";

FaultInjectorOptions TransientFaults(std::uint64_t seed) {
  FaultInjectorOptions faults;
  faults.seed = seed;
  faults.transient_read_error_rate = 0.10;  // ~1 in 10 read attempts fails
  faults.corruption_rate = 0.02;            // transient bit flips
  faults.latency_spike_rate = 0.02;
  return faults;
}

TEST(FaultInjectionTest, TransientFaultsRecoverWithIdenticalResults) {
  FaultyFixture clean(FaultInjectorOptions{});
  for (const PlanKind kind :
       {PlanKind::kSimple, PlanKind::kXSchedule, PlanKind::kXScan}) {
    auto expected = clean.Run(kTestQuery, kind);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    ASSERT_GT(expected->count, 0u);
    EXPECT_EQ(clean.db.metrics()->faults_injected, 0u);

    FaultyFixture faulty(TransientFaults(1234));
    auto survived = faulty.Run(kTestQuery, kind);
    ASSERT_TRUE(survived.ok())
        << PlanKindName(kind) << ": " << survived.status().ToString();
    EXPECT_EQ(survived->count, expected->count) << PlanKindName(kind);
    EXPECT_EQ(OrdersOf(*survived), OrdersOf(*expected)) << PlanKindName(kind);
    // The run really did hit faults and really did recover from them
    // (via sync retries, async->sync fallbacks, or both).
    EXPECT_GT(survived->metrics.faults_injected, 0u) << PlanKindName(kind);
    EXPECT_GT(survived->metrics.fault_retries +
                  survived->metrics.fault_fallbacks,
              0u)
        << PlanKindName(kind);
    // Recovery costs time: the faulty run cannot be faster.
    EXPECT_GE(survived->total_time, expected->total_time);
  }
}

TEST(FaultInjectionTest, SameFaultSeedReproducesRunExactly) {
  FaultyFixture a(TransientFaults(77));
  FaultyFixture b(TransientFaults(77));
  auto ra = a.Run(kTestQuery, PlanKind::kXSchedule);
  auto rb = b.Run(kTestQuery, PlanKind::kXSchedule);
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  EXPECT_EQ(OrdersOf(*ra), OrdersOf(*rb));
  EXPECT_EQ(ra->total_time, rb->total_time);
  EXPECT_EQ(ra->metrics.faults_injected, rb->metrics.faults_injected);
  EXPECT_EQ(ra->metrics.fault_retries, rb->metrics.fault_retries);
  EXPECT_EQ(ra->metrics.corruptions_detected,
            rb->metrics.corruptions_detected);
  EXPECT_EQ(ra->metrics.fault_fallbacks, rb->metrics.fault_fallbacks);
  EXPECT_EQ(ra->metrics.disk_reads, rb->metrics.disk_reads);

  FaultyFixture c(TransientFaults(78));
  auto rc = c.Run(kTestQuery, PlanKind::kXSchedule);
  ASSERT_TRUE(rc.ok());
  // A different seed yields the same *results* but a different schedule.
  EXPECT_EQ(OrdersOf(*rc), OrdersOf(*ra));
  EXPECT_NE(rc->total_time, ra->total_time);
}

TEST(FaultInjectionTest, PermanentlyBadPageSurfacesCorruption) {
  // Find the root's page in a clean import, then poison it.
  FaultyFixture clean(FaultInjectorOptions{});
  const PageId bad_page = clean.doc.root.page;

  FaultInjectorOptions faults;
  faults.seed = 5;
  faults.permanent_bad_pages = {bad_page};
  FaultyFixture faulty(faults);
  ASSERT_EQ(faulty.doc.root.page, bad_page);  // deterministic import

  for (const PlanKind kind :
       {PlanKind::kSimple, PlanKind::kXSchedule, PlanKind::kXScan}) {
    auto result = faulty.Run(kTestQuery, kind);
    ASSERT_FALSE(result.ok()) << PlanKindName(kind);
    EXPECT_TRUE(result.status().IsCorruption())
        << PlanKindName(kind) << ": " << result.status().ToString();
  }
  EXPECT_GT(faulty.db.metrics()->corruptions_detected, 0u);
}

TEST(FaultInjectionTest, DirtyWriteBackRetriesTransientWriteFaults) {
  SimClock clock;
  Metrics metrics;
  CpuCostModel costs;
  SimulatedDisk disk(DiskModel(), 512, &clock, &metrics);
  FaultInjectorOptions options;
  options.seed = 21;
  options.transient_write_error_rate = 0.4;
  FaultInjector injector(options);
  disk.SetFaultInjector(&injector);
  BufferManager bm(&disk, 4, costs, &clock, &metrics);

  for (int i = 0; i < 8; ++i) {
    auto guard = bm.NewPage();
    ASSERT_TRUE(guard.ok()) << guard.status().ToString();
    guard->mutable_data()[0] = static_cast<std::byte>(i + 1);
    guard->MarkDirty();
  }
  ASSERT_TRUE(bm.FlushAll().ok());
  EXPECT_GT(metrics.fault_retries, 0u);

  // Every page image reached the disk intact despite the write faults.
  disk.SetFaultInjector(nullptr);
  ASSERT_TRUE(bm.InvalidateAll().ok());
  for (PageId p = 0; p < 8; ++p) {
    auto guard = bm.Fix(p);
    ASSERT_TRUE(guard.ok());
    EXPECT_EQ(guard->data()[0], static_cast<std::byte>(p + 1));
  }
}

// --- Persistence round trip ----------------------------------------------

TEST(FaultInjectionTest, ChecksumRoundTripThroughPersistence) {
  FaultyFixture fixture(FaultInjectorOptions{});
  auto before = fixture.Run(kTestQuery, PlanKind::kXSchedule);
  ASSERT_TRUE(before.ok());

  const std::string path = TempPath("fault_roundtrip.nvph");
  ASSERT_TRUE(SaveDatabase(&fixture.db, fixture.doc, path).ok());

  // A clean file loads and answers queries identically.
  auto loaded = LoadDatabase(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  auto query = ParseQuery(kTestQuery, loaded->db->tags());
  ASSERT_TRUE(query.ok());
  ExecuteOptions exec;
  exec.plan.kind = PlanKind::kXSchedule;
  exec.collect_nodes = true;
  auto after = ExecuteQuery(loaded->db.get(), loaded->doc, *query, exec);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(OrdersOf(*after), OrdersOf(*before));
  std::remove(path.c_str());
}

TEST(FaultInjectionTest, CorruptedSaveFileIsRejectedAtLoad) {
  FaultyFixture fixture(FaultInjectorOptions{});
  const std::string path = TempPath("fault_corrupt.nvph");
  ASSERT_TRUE(SaveDatabase(&fixture.db, fixture.doc, path).ok());

  // Flip one payload byte of the last page (the file ends with that
  // page's payload followed by its 8-byte trailer).
  {
    std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(file.good());
    file.seekg(0, std::ios::end);
    const std::streamoff size = file.tellg();
    const std::streamoff target = size - 8 - 100;
    file.seekg(target);
    char byte = 0;
    file.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x10);
    file.seekp(target);
    file.write(&byte, 1);
  }
  auto loaded = LoadDatabase(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsCorruption())
      << loaded.status().ToString();
  std::remove(path.c_str());
}

}  // namespace
}  // namespace navpath
