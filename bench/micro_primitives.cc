// Microbenchmarks (google-benchmark, real wall time) for the navigational
// primitives and buffer operations: the cost asymmetry between
// intra-cluster navigation, buffer probes and cross-cluster swizzling is
// the paper's Sec. 3.5/3.6 premise.
#include <benchmark/benchmark.h>

#include <vector>

#include "algebra/path_instance.h"
#include "common/random.h"
#include "storage/checksum.h"
#include "store/cross_cursor.h"
#include "tests/test_util.h"

namespace navpath {
namespace {

struct MicroFixture {
  Database db;
  ImportedDocument doc;

  static DatabaseOptions Options() {
    DatabaseOptions options;
    options.page_size = 8192;
    options.buffer_pages = 512;
    return options;
  }

  explicit MicroFixture(bool scattered) : db(Options()) {
    RandomTreeOptions tree_options;
    tree_options.node_count = 20000;
    tree_options.max_fanout = 8;
    const DomTree tree = MakeRandomTree(tree_options, 7, db.tags());
    if (scattered) {
      RandomClusteringPolicy policy(7168, 3);
      doc = *db.Import(tree, &policy);
    } else {
      SubtreeClusteringPolicy policy(7168);
      doc = *db.Import(tree, &policy);
    }
  }
};

void BM_BufferFixHit(benchmark::State& state) {
  MicroFixture f(/*scattered=*/false);
  (void)f.db.buffer()->Fix(f.doc.root.page);  // warm
  for (auto _ : state) {
    auto guard = f.db.buffer()->Fix(f.doc.root.page);
    benchmark::DoNotOptimize(guard->data());
  }
}
BENCHMARK(BM_BufferFixHit);

void BM_FixSwizzle(benchmark::State& state) {
  MicroFixture f(/*scattered=*/false);
  for (auto _ : state) {
    auto guard = f.db.buffer()->FixSwizzle(f.doc.root.page);
    benchmark::DoNotOptimize(guard->data());
  }
}
BENCHMARK(BM_FixSwizzle);

void BM_IntraClusterDfs(benchmark::State& state) {
  MicroFixture f(/*scattered=*/false);
  auto guard = f.db.buffer()->Fix(f.doc.root.page);
  const ClusterView view = f.db.MakeView(*guard);
  for (auto _ : state) {
    AxisCursor cursor(view, Axis::kDescendant, f.doc.root.slot);
    NavEntry entry;
    std::uint64_t seen = 0;
    while (cursor.Next(&entry)) ++seen;
    benchmark::DoNotOptimize(seen);
  }
}
BENCHMARK(BM_IntraClusterDfs);

void BM_CrossClusterDescendant(benchmark::State& state) {
  const bool scattered = state.range(0) == 1;
  MicroFixture f(scattered);
  CrossClusterCursor cursor(&f.db);
  for (auto _ : state) {
    cursor.Start(Axis::kDescendant, f.doc.root).AbortIfNotOk();
    LogicalNode node;
    std::uint64_t seen = 0;
    for (;;) {
      auto more = cursor.Next(&node);
      more.status().AbortIfNotOk();
      if (!*more) break;
      ++seen;
    }
    benchmark::DoNotOptimize(seen);
  }
  state.SetItemsProcessed(state.iterations() * 20000);
}
BENCHMARK(BM_CrossClusterDescendant)->Arg(0)->Arg(1);

void BM_PathInstanceHandling(benchmark::State& state) {
  PathInstance inst = PathInstance::Context(NodeID{1, 2}, 3);
  for (auto _ : state) {
    PathInstance copy = inst;
    copy.right.step += 1;
    benchmark::DoNotOptimize(copy.right.Key());
    benchmark::DoNotOptimize(copy.full(4));
  }
}
BENCHMARK(BM_PathInstanceHandling);

// CRC32C over one 8 KiB page, as run on every miss read, prefetch
// completion and write-back: the dispatched Crc32c (SSE4.2 where the CPU
// has it) against the byte-wise reference.
void RunChecksum(benchmark::State& state,
                 std::uint32_t (*crc)(const std::byte*, std::size_t,
                                      std::uint32_t)) {
  std::vector<std::byte> page(8192);
  Random rng(7);
  for (std::byte& b : page) b = static_cast<std::byte>(rng.NextU64());
  for (auto _ : state) {
    benchmark::DoNotOptimize(crc(page.data(), page.size(), 0));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(page.size()));
}

void BM_Crc32c(benchmark::State& state) { RunChecksum(state, Crc32c); }
BENCHMARK(BM_Crc32c);

void BM_Crc32cPortable(benchmark::State& state) {
  RunChecksum(state, Crc32cPortable);
}
BENCHMARK(BM_Crc32cPortable);

}  // namespace
}  // namespace navpath

BENCHMARK_MAIN();
