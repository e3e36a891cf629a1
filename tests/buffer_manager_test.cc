// Unit tests for the buffer manager: pinning, LRU eviction, write-back,
// prefetch, swizzle accounting, a seeded differential run of the
// replacement policy and the install log against brute-force references,
// and a seeded run that checks every frame's bytes while installs exchange
// the staging buffer with the frames they fill.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <vector>

#include "common/random.h"
#include "storage/buffer_manager.h"
#include "storage/fault_injector.h"

namespace navpath {
namespace {

constexpr std::size_t kPage = 512;

struct BufferFixture {
  SimClock clock;
  Metrics metrics;
  CpuCostModel costs;
  SimulatedDisk disk{DiskModel(), kPage, &clock, &metrics};
  BufferManager bm;

  explicit BufferFixture(std::size_t capacity)
      : bm(&disk, capacity, costs, &clock, &metrics) {}

  PageId NewDiskPage(std::uint8_t fill) {
    const PageId id = disk.AllocatePage();
    std::vector<std::byte> buf(kPage, static_cast<std::byte>(fill));
    disk.WriteSync(id, buf.data()).AbortIfNotOk();
    return id;
  }
};

TEST(BufferManagerTest, MissThenHit) {
  BufferFixture f(4);
  const PageId p = f.NewDiskPage(0x5A);
  {
    auto guard = f.bm.Fix(p);
    ASSERT_TRUE(guard.ok());
    EXPECT_EQ(guard->data()[0], static_cast<std::byte>(0x5A));
  }
  EXPECT_EQ(f.metrics.buffer_misses, 1u);
  {
    auto guard = f.bm.Fix(p);
    ASSERT_TRUE(guard.ok());
  }
  EXPECT_EQ(f.metrics.buffer_hits, 1u);
  EXPECT_EQ(f.metrics.buffer_misses, 1u);
}

TEST(BufferManagerTest, EvictsLeastRecentlyUsed) {
  BufferFixture f(2);
  const PageId a = f.NewDiskPage(1);
  const PageId b = f.NewDiskPage(2);
  const PageId c = f.NewDiskPage(3);
  { auto g = f.bm.Fix(a); ASSERT_TRUE(g.ok()); }
  { auto g = f.bm.Fix(b); ASSERT_TRUE(g.ok()); }
  { auto g = f.bm.Fix(a); ASSERT_TRUE(g.ok()); }  // refresh a
  { auto g = f.bm.Fix(c); ASSERT_TRUE(g.ok()); }  // must evict b
  EXPECT_TRUE(f.bm.IsResident(a));
  EXPECT_FALSE(f.bm.IsResident(b));
  EXPECT_TRUE(f.bm.IsResident(c));
  EXPECT_EQ(f.metrics.buffer_evictions, 1u);
}

TEST(BufferManagerTest, PinnedPagesSurviveEviction) {
  BufferFixture f(2);
  const PageId a = f.NewDiskPage(1);
  const PageId b = f.NewDiskPage(2);
  const PageId c = f.NewDiskPage(3);
  auto ga = f.bm.Fix(a);
  ASSERT_TRUE(ga.ok());
  { auto g = f.bm.Fix(b); ASSERT_TRUE(g.ok()); }
  { auto g = f.bm.Fix(c); ASSERT_TRUE(g.ok()); }  // evicts b, not pinned a
  EXPECT_TRUE(f.bm.IsResident(a));
  EXPECT_FALSE(f.bm.IsResident(b));
}

TEST(BufferManagerTest, AllPinnedIsResourceExhausted) {
  BufferFixture f(2);
  const PageId a = f.NewDiskPage(1);
  const PageId b = f.NewDiskPage(2);
  const PageId c = f.NewDiskPage(3);
  auto ga = f.bm.Fix(a);
  auto gb = f.bm.Fix(b);
  ASSERT_TRUE(ga.ok());
  ASSERT_TRUE(gb.ok());
  EXPECT_TRUE(f.bm.Fix(c).status().IsResourceExhausted());
}

TEST(BufferManagerTest, DirtyPageWrittenBackOnEviction) {
  BufferFixture f(1);
  const PageId a = f.NewDiskPage(1);
  const PageId b = f.NewDiskPage(2);
  {
    auto guard = f.bm.Fix(a);
    ASSERT_TRUE(guard.ok());
    guard->mutable_data()[0] = static_cast<std::byte>(0x77);
    guard->MarkDirty();
  }
  { auto g = f.bm.Fix(b); ASSERT_TRUE(g.ok()); }  // evicts dirty a
  EXPECT_GE(f.metrics.disk_writes, 1u);
  {
    auto guard = f.bm.Fix(a);
    ASSERT_TRUE(guard.ok());
    EXPECT_EQ(guard->data()[0], static_cast<std::byte>(0x77));
  }
}

TEST(BufferManagerTest, NewPageAllocatesAndPins) {
  BufferFixture f(4);
  auto guard = f.bm.NewPage();
  ASSERT_TRUE(guard.ok());
  EXPECT_EQ(guard->page_id(), 0u);
  std::memset(guard->mutable_data(), 0x42, kPage);
  guard->MarkDirty();
  guard->Release();
  ASSERT_TRUE(f.bm.FlushAll().ok());
  std::vector<std::byte> buf(kPage);
  ASSERT_TRUE(f.disk.ReadSync(0, buf.data()).ok());
  EXPECT_EQ(buf[7], static_cast<std::byte>(0x42));
}

TEST(BufferManagerTest, SwizzleAccounting) {
  BufferFixture f(4);
  const PageId a = f.NewDiskPage(1);
  { auto g = f.bm.Fix(a); ASSERT_TRUE(g.ok()); }
  EXPECT_EQ(f.metrics.swizzle_ops, 0u);
  { auto g = f.bm.FixSwizzle(a); ASSERT_TRUE(g.ok()); }
  EXPECT_EQ(f.metrics.swizzle_ops, 1u);
}

TEST(BufferManagerTest, PrefetchLifecycle) {
  BufferFixture f(8);
  const PageId a = f.NewDiskPage(1);
  const PageId b = f.NewDiskPage(2);
  auto o1 = f.bm.Prefetch(a);
  ASSERT_TRUE(o1.ok());
  EXPECT_EQ(*o1, BufferManager::PrefetchOutcome::kSubmitted);
  auto o2 = f.bm.Prefetch(a);
  ASSERT_TRUE(o2.ok());
  EXPECT_EQ(*o2, BufferManager::PrefetchOutcome::kInFlight);
  auto o3 = f.bm.Prefetch(b);
  ASSERT_TRUE(o3.ok());
  EXPECT_EQ(*o3, BufferManager::PrefetchOutcome::kSubmitted);
  EXPECT_TRUE(f.bm.HasPrefetchInFlight());
  for (int i = 0; i < 2; ++i) {
    auto done = f.bm.WaitAnyPrefetch();
    ASSERT_TRUE(done.ok());
    EXPECT_TRUE(f.bm.IsResident(*done));
  }
  EXPECT_FALSE(f.bm.HasPrefetchInFlight());
  // The page is now resident: fixing it is a hit, and further prefetches
  // report residency.
  const auto hits_before = f.metrics.buffer_hits;
  { auto g = f.bm.Fix(a); ASSERT_TRUE(g.ok()); }
  EXPECT_EQ(f.metrics.buffer_hits, hits_before + 1);
  auto o4 = f.bm.Prefetch(a);
  ASSERT_TRUE(o4.ok());
  EXPECT_EQ(*o4, BufferManager::PrefetchOutcome::kResident);
}

TEST(BufferManagerTest, CrossOwnerPrefetchesShareOneDriveRequest) {
  // Two queries prefetch one page: the in-flight table merges the second
  // request, so the drive serves one read and one completion installs the
  // page, claimed for the queries that asked.
  BufferFixture f(2);
  const PageId a = f.NewDiskPage(1);
  const PageId b = f.NewDiskPage(2);
  const PageId c = f.NewDiskPage(3);
  auto first = f.bm.Prefetch(a, /*owner=*/1);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(*first, BufferManager::PrefetchOutcome::kSubmitted);
  auto second = f.bm.Prefetch(a, /*owner=*/2);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*second, BufferManager::PrefetchOutcome::kInFlight);
  EXPECT_EQ(f.metrics.async_requests, 1u);
  EXPECT_EQ(f.disk.pending_requests(), 1u);
  EXPECT_EQ(f.metrics.requests_merged, 1u);
  // A repeat by an owner already registered is not a merge.
  auto repeat = f.bm.Prefetch(a, /*owner=*/2);
  ASSERT_TRUE(repeat.ok());
  EXPECT_EQ(*repeat, BufferManager::PrefetchOutcome::kInFlight);
  EXPECT_EQ(f.metrics.requests_merged, 1u);
  EXPECT_EQ(f.bm.PendingFor(1), 1u);
  EXPECT_EQ(f.bm.PendingFor(2), 1u);

  auto done = f.bm.WaitAnyPrefetch();
  ASSERT_TRUE(done.ok());
  EXPECT_EQ(*done, a);
  EXPECT_TRUE(f.bm.IsResident(a));
  EXPECT_FALSE(f.bm.HasPrefetchInFlight());
  EXPECT_EQ(f.disk.pending_requests(), 0u);
  EXPECT_EQ(f.metrics.disk_reads, 1u);
  // Claimed: a is the least recently used frame, yet the miss on c evicts
  // the unclaimed b.
  { auto g = f.bm.Fix(b); ASSERT_TRUE(g.ok()); }
  { auto g = f.bm.Fix(c); ASSERT_TRUE(g.ok()); }
  EXPECT_TRUE(f.bm.IsResident(a));
  EXPECT_FALSE(f.bm.IsResident(b));
}

TEST(BufferManagerTest, InstallCounterAdvancesOnlyOnInstalls) {
  // XSchedule skips its scan for clusters a sibling query installed while
  // this counter stands still, so it must move on every way a page
  // becomes resident and on nothing else.
  BufferFixture f(2);
  const PageId a = f.NewDiskPage(1);
  const PageId b = f.NewDiskPage(2);
  const PageId c = f.NewDiskPage(3);
  const PageId d = f.NewDiskPage(4);
  EXPECT_EQ(f.bm.installs(), 0u);

  { auto g = f.bm.Fix(a); ASSERT_TRUE(g.ok()); }  // miss
  EXPECT_EQ(f.bm.installs(), 1u);
  { auto g = f.bm.Fix(a); ASSERT_TRUE(g.ok()); }  // hit
  EXPECT_EQ(f.bm.installs(), 1u);

  ASSERT_TRUE(f.bm.Prefetch(b, /*owner=*/1).ok());
  EXPECT_EQ(f.bm.installs(), 1u);  // submitting installs nothing
  auto waited = f.bm.WaitAnyPrefetch();
  ASSERT_TRUE(waited.ok());
  EXPECT_EQ(*waited, b);
  EXPECT_EQ(f.bm.installs(), 2u);

  ASSERT_TRUE(f.bm.Prefetch(c, /*owner=*/1).ok());
  auto early = f.bm.PollAnyPrefetch();  // the drive is not done yet
  ASSERT_TRUE(early.ok());
  EXPECT_EQ(*early, kInvalidPageId);
  EXPECT_EQ(f.bm.installs(), 2u);
  f.clock.WaitUntil(f.clock.now() + kSimSecond);
  const auto evictions = f.metrics.buffer_evictions;
  auto polled = f.bm.PollAnyPrefetch();
  ASSERT_TRUE(polled.ok());
  EXPECT_EQ(*polled, c);
  // One install, although it also evicted `a` to make room.
  EXPECT_EQ(f.metrics.buffer_evictions, evictions + 1);
  EXPECT_FALSE(f.bm.IsResident(a));
  EXPECT_EQ(f.bm.installs(), 3u);

  ASSERT_TRUE(f.bm.Discard(c).ok());
  EXPECT_EQ(f.bm.installs(), 3u);

  {
    auto g = f.bm.NewPage();
    ASSERT_TRUE(g.ok());
  }
  EXPECT_EQ(f.bm.installs(), 4u);

  std::vector<std::byte> image(kPage, std::byte{9});
  { auto g = f.bm.AdoptPage(d, image.data()); ASSERT_TRUE(g.ok()); }
  EXPECT_EQ(f.bm.installs(), 5u);
  // Adopting a resident id overwrites its frame in place.
  { auto g = f.bm.AdoptPage(d, image.data()); ASSERT_TRUE(g.ok()); }
  EXPECT_EQ(f.bm.installs(), 5u);

  ASSERT_TRUE(f.bm.InvalidateAll().ok());
  EXPECT_EQ(f.bm.installs(), 5u);
}

TEST(BufferManagerTest, InvalidateAllDropsCleanly) {
  BufferFixture f(4);
  const PageId a = f.NewDiskPage(1);
  { auto g = f.bm.Fix(a); ASSERT_TRUE(g.ok()); }
  EXPECT_TRUE(f.bm.IsResident(a));
  ASSERT_TRUE(f.bm.InvalidateAll().ok());
  EXPECT_FALSE(f.bm.IsResident(a));
  EXPECT_EQ(f.bm.pages_resident(), 0u);
}

TEST(BufferManagerTest, PageTableAnswersForIdsItHasNotGrownTo) {
  // The page table is a vector indexed by page id and grown on install;
  // ids beyond it, including kInvalidPageId, are simply not resident.
  BufferFixture f(2);
  EXPECT_FALSE(f.bm.IsResident(0));
  EXPECT_FALSE(f.bm.IsResident(kInvalidPageId));
  const PageId a = f.NewDiskPage(1);
  f.NewDiskPage(2);
  { auto g = f.bm.Fix(a); ASSERT_TRUE(g.ok()); }
  EXPECT_TRUE(f.bm.IsResident(a));
  EXPECT_FALSE(f.bm.IsResident(kInvalidPageId));
  EXPECT_FALSE(f.bm.IsResident(kInvalidPageId - 1));
  EXPECT_FALSE(f.bm.IsResident(f.disk.num_pages()));
  EXPECT_FALSE(f.bm.IsResident(f.disk.num_pages() + 1000));
  // A miss on an id past the disk's end fails at the drive and installs
  // nothing, so it does not grow the table either.
  EXPECT_FALSE(f.bm.Fix(f.disk.num_pages()).ok());
  EXPECT_FALSE(f.bm.IsResident(f.disk.num_pages()));
  EXPECT_EQ(f.bm.pages_resident(), 1u);
}

TEST(BufferManagerTest, PagesResidentTracksInstallsAndRemovals) {
  BufferFixture f(3);
  std::vector<PageId> pages;
  for (std::uint8_t i = 0; i < 6; ++i) pages.push_back(f.NewDiskPage(i));
  // pages_resident() is a running count; the page table itself is the
  // ground truth.
  const auto expect_count = [&](std::size_t n, const char* after) {
    std::size_t resident = 0;
    for (PageId p = 0; p < f.disk.num_pages(); ++p) {
      if (f.bm.IsResident(p)) ++resident;
    }
    EXPECT_EQ(resident, n) << after;
    EXPECT_EQ(f.bm.pages_resident(), n) << after;
  };
  expect_count(0, "start");
  { auto g = f.bm.Fix(pages[0]); ASSERT_TRUE(g.ok()); }
  { auto g = f.bm.Fix(pages[1]); ASSERT_TRUE(g.ok()); }
  { auto g = f.bm.Fix(pages[0]); ASSERT_TRUE(g.ok()); }
  expect_count(2, "two misses and a hit");
  ASSERT_TRUE(f.bm.Prefetch(pages[2]).ok());
  expect_count(2, "prefetch submitted");
  ASSERT_TRUE(f.bm.WaitAnyPrefetch().ok());
  expect_count(3, "prefetch installed");
  { auto g = f.bm.Fix(pages[3]); ASSERT_TRUE(g.ok()); }
  expect_count(3, "miss that evicts");
  EXPECT_FALSE(f.bm.IsResident(pages[1]));  // the LRU page went
  ASSERT_TRUE(f.bm.Discard(pages[0]).ok());
  expect_count(2, "discard");
  ASSERT_TRUE(f.bm.Discard(pages[0]).ok());
  expect_count(2, "discard of a page no longer resident");
  {
    auto g = f.bm.NewPage();
    ASSERT_TRUE(g.ok());
  }
  expect_count(3, "new page");
  std::vector<std::byte> image(kPage, std::byte{7});
  { auto g = f.bm.AdoptPage(pages[3], image.data()); ASSERT_TRUE(g.ok()); }
  expect_count(3, "adopt of a resident page");
  ASSERT_TRUE(f.bm.InvalidateAll().ok());
  expect_count(0, "invalidate all");
  for (const PageId p : {pages[5], pages[4], pages[3], pages[2]}) {
    auto g = f.bm.Fix(p);
    ASSERT_TRUE(g.ok());
  }
  expect_count(3, "refill after invalidate");
  { auto g = f.bm.AdoptPage(pages[1], image.data()); ASSERT_TRUE(g.ok()); }
  expect_count(3, "adopt that evicts");
  EXPECT_TRUE(f.bm.IsResident(pages[1]));
}

TEST(BufferManagerTest, InvalidateRefusesWhilePinned) {
  BufferFixture f(4);
  const PageId a = f.NewDiskPage(1);
  auto g = f.bm.Fix(a);
  ASSERT_TRUE(g.ok());
  EXPECT_FALSE(f.bm.InvalidateAll().ok());
}

// Brute-force reference for the replacement policy: an LRU stamp per
// resident page, restamped on every use, and a full argmin scan on every
// eviction that prefers unpinned unclaimed pages over unpinned claimed
// ones. Also remembers each page's latest install number, the reference
// for InstalledSince.
struct ReferencePool {
  struct Entry {
    std::uint64_t stamp = 0;
    int pins = 0;
    bool claimed = false;
  };
  explicit ReferencePool(std::size_t pool) : capacity(pool) {}

  std::size_t capacity;
  std::map<PageId, Entry> resident;
  std::map<PageId, std::vector<std::uint32_t>> in_flight;
  std::map<PageId, std::uint64_t> installed_at;
  std::uint64_t stamps = 0;
  std::uint64_t installs = 0;
  std::uint64_t evictions = 0;

  /// False when every frame is pinned (the buffer's ResourceExhausted).
  bool Install(PageId page, bool claimed) {
    if (resident.size() == capacity) {
      PageId victim = kInvalidPageId;
      for (const bool want_claimed : {false, true}) {
        std::uint64_t oldest = ~0ull;
        for (const auto& [p, e] : resident) {
          if (e.pins == 0 && e.claimed == want_claimed && e.stamp < oldest) {
            oldest = e.stamp;
            victim = p;
          }
        }
        if (victim != kInvalidPageId) break;
      }
      if (victim == kInvalidPageId) return false;
      resident.erase(victim);
      ++evictions;
    }
    resident[page] = Entry{++stamps, 0, claimed};
    installed_at[page] = ++installs;
    return true;
  }

  /// Fix or AdoptPage: install if needed, then pin, unclaim and restamp.
  bool Use(PageId page) {
    if (resident.count(page) == 0 && !Install(page, false)) return false;
    Entry& e = resident[page];
    e.stamp = ++stamps;
    e.claimed = false;
    ++e.pins;
    return true;
  }

  void Prefetch(PageId page, std::uint32_t owner) {
    if (auto it = resident.find(page); it != resident.end()) {
      if (owner != 0) it->second.claimed = true;
      return;
    }
    std::vector<std::uint32_t>& owners = in_flight[page];
    if (std::find(owners.begin(), owners.end(), owner) == owners.end()) {
      owners.push_back(owner);
    }
  }

  /// A prefetch of `page` completed.
  bool Complete(PageId page) {
    const std::vector<std::uint32_t> owners = in_flight[page];
    in_flight.erase(page);
    if (resident.count(page) != 0) return true;
    return Install(page, std::any_of(owners.begin(), owners.end(),
                                     [](std::uint32_t o) { return o != 0; }));
  }

  /// Resident pages installed after install number `since`, newest first.
  std::vector<PageId> InstalledSince(std::uint64_t since) const {
    std::vector<std::pair<std::uint64_t, PageId>> hits;
    for (const auto& [page, e] : resident) {
      (void)e;
      const std::uint64_t seq = installed_at.at(page);
      if (seq > since) hits.emplace_back(seq, page);
    }
    std::sort(hits.rbegin(), hits.rend());
    std::vector<PageId> pages;
    for (const auto& hit : hits) pages.push_back(hit.second);
    return pages;
  }
};

TEST(BufferManagerTest, RandomOpsMatchBruteForceReference) {
  // Random fixes, pins, owner-tagged prefetches, completions, adopts,
  // discards and invalidations on a small pool over a larger disk. After
  // every step the resident set, the eviction count, the install count
  // and InstalledSince at every stamp must equal the reference's, and the
  // install log must stay within twice the pool.
  constexpr std::size_t kPool = 6;
  constexpr PageId kDiskPages = 24;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    BufferFixture f(kPool);
    for (PageId p = 0; p < kDiskPages; ++p) {
      f.NewDiskPage(static_cast<std::uint8_t>(p));
    }
    ReferencePool ref(kPool);
    Random rng(seed);
    std::vector<PageGuard> held;
    std::map<PageId, int> held_count;
    const std::vector<std::byte> image(kPage, std::byte{0x3C});
    for (int step = 0; step < 600; ++step) {
      const PageId page = static_cast<PageId>(rng.NextBounded(kDiskPages));
      const std::uint64_t op = rng.NextBounded(100);
      if (op < 35) {
        const bool ok = ref.Use(page);
        auto guard = f.bm.Fix(page);
        ASSERT_EQ(guard.ok(), ok) << guard.status().ToString();
        if (!ok) {
          EXPECT_TRUE(guard.status().IsResourceExhausted());
        } else if (rng.NextBool(0.3)) {
          ++held_count[page];
          held.push_back(std::move(*guard));
        } else {
          --ref.resident[page].pins;
        }
      } else if (op < 50) {
        if (!held.empty()) {
          const std::size_t i = rng.NextBounded(held.size());
          const PageId released = held[i].page_id();
          held.erase(held.begin() + static_cast<std::ptrdiff_t>(i));
          --held_count[released];
          --ref.resident[released].pins;
        }
      } else if (op < 70) {
        const auto owner = static_cast<std::uint32_t>(rng.NextBounded(3));
        ref.Prefetch(page, owner);
        ASSERT_TRUE(f.bm.Prefetch(page, owner).ok());
      } else if (op < 85) {
        // Keep a frame unpinned, so the completion can always install.
        const auto pinned = static_cast<std::size_t>(std::count_if(
            held_count.begin(), held_count.end(),
            [](const auto& entry) { return entry.second > 0; }));
        if (f.bm.HasPrefetchInFlight() && pinned < kPool) {
          Result<PageId> done = kInvalidPageId;
          if (rng.NextBool(0.5)) {
            done = f.bm.WaitAnyPrefetch();
          } else {
            f.clock.ChargeCpu(
                static_cast<SimTime>(rng.NextBounded(20)) * kSimMillisecond);
            done = f.bm.PollAnyPrefetch();
          }
          ASSERT_TRUE(done.ok()) << done.status().ToString();
          if (*done != kInvalidPageId) {
            ASSERT_TRUE(ref.Complete(*done));
          }
        }
      } else if (op < 92) {
        const bool ok = ref.Use(page);
        auto guard = f.bm.AdoptPage(page, image.data());
        ASSERT_EQ(guard.ok(), ok) << guard.status().ToString();
        if (ok) --ref.resident[page].pins;
      } else if (op < 98) {
        if (held_count[page] == 0) {
          ref.resident.erase(page);
          ASSERT_TRUE(f.bm.Discard(page).ok());
        }
      } else if (held.empty()) {
        ref.resident.clear();
        ASSERT_TRUE(f.bm.InvalidateAll().ok());
      }

      for (PageId p = 0; p < kDiskPages; ++p) {
        ASSERT_EQ(f.bm.IsResident(p), ref.resident.count(p) == 1)
            << "step " << step << " page " << p;
      }
      ASSERT_EQ(f.metrics.buffer_evictions, ref.evictions) << "step " << step;
      ASSERT_EQ(f.bm.installs(), ref.installs) << "step " << step;
      ASSERT_LE(f.bm.install_log_size(), 2 * kPool);
      for (std::uint64_t since = 0; since <= ref.installs; ++since) {
        std::vector<PageId> got;
        f.bm.InstalledSince(since, &got);
        ASSERT_EQ(got, ref.InstalledSince(since))
            << "step " << step << " since " << since;
      }
    }
  }
}

// Fills `out` with bytes drawn from `rng`, so images of different pages
// differ.
void RandomImage(Random* rng, std::vector<std::byte>* out) {
  out->resize(kPage);
  for (std::byte& b : *out) b = static_cast<std::byte>(rng->NextU64());
}

bool SameBytes(const std::byte* got, const std::byte* want) {
  return std::memcmp(got, want, kPage) == 0;
}

TEST(BufferManagerTest, RandomOpsKeepEveryFrameImageExact) {
  // An install hands the frame the staging buffer and takes the frame's
  // old buffer as the next one. Random fixes (some writing through a
  // dirty guard), prefetch waits and polls, evictions, NewPage,
  // AdoptPage, Discard and InvalidateAll on a small pool; after every
  // step each resident frame must hold its page's drive image, or the
  // bytes last written to it through the buffer, and no two frames may
  // share a buffer. A page that left the pool dirty, other than by
  // Discard, must have been written back with those bytes.
  constexpr std::size_t kPool = 5;
  constexpr PageId kDiskPages = 16;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    BufferFixture f(kPool);
    Random rng(seed);
    std::vector<std::byte> image;
    for (PageId p = 0; p < kDiskPages; ++p) {
      RandomImage(&rng, &image);
      const PageId id = f.disk.AllocatePage();
      ASSERT_TRUE(f.disk.WriteSync(id, image.data()).ok());
    }
    // The bytes last written through the buffer to each resident page.
    std::map<PageId, std::vector<std::byte>> written;
    std::vector<PageGuard> held;
    for (int step = 0; step < 500; ++step) {
      const PageId page = static_cast<PageId>(rng.NextBounded(
          f.disk.num_pages()));
      const bool held_page = std::any_of(
          held.begin(), held.end(),
          [page](const PageGuard& g) { return g.page_id() == page; });
      std::vector<PageId> discarded;
      const std::uint64_t op = rng.NextBounded(100);
      if (op < 35) {
        auto guard = f.bm.Fix(page);
        ASSERT_TRUE(guard.ok()) << guard.status().ToString();
        if (rng.NextBool(0.4)) {
          RandomImage(&rng, &image);
          std::memcpy(guard->mutable_data(), image.data(), kPage);
          guard->MarkDirty();
          written[page] = image;
        }
        if (held.size() + 1 < kPool && rng.NextBool(0.3)) {
          held.push_back(std::move(*guard));
        }
      } else if (op < 45) {
        if (!held.empty()) {
          held.erase(held.begin() +
                     static_cast<std::ptrdiff_t>(rng.NextBounded(held.size())));
        }
      } else if (op < 65) {
        const auto owner = static_cast<std::uint32_t>(rng.NextBounded(3));
        ASSERT_TRUE(f.bm.Prefetch(page, owner).ok());
      } else if (op < 80) {
        if (f.bm.HasPrefetchInFlight()) {
          Result<PageId> done = kInvalidPageId;
          if (rng.NextBool(0.5)) {
            done = f.bm.WaitAnyPrefetch();
          } else {
            f.clock.ChargeCpu(
                static_cast<SimTime>(rng.NextBounded(20)) * kSimMillisecond);
            done = f.bm.PollAnyPrefetch();
          }
          ASSERT_TRUE(done.ok()) << done.status().ToString();
        }
      } else if (op < 85) {
        auto guard = f.bm.NewPage();
        ASSERT_TRUE(guard.ok()) << guard.status().ToString();
        written[guard->page_id()] = std::vector<std::byte>(kPage);
      } else if (op < 92) {
        RandomImage(&rng, &image);
        auto guard = f.bm.AdoptPage(page, image.data());
        ASSERT_TRUE(guard.ok()) << guard.status().ToString();
        written[page] = image;
      } else if (op < 98) {
        if (!held_page) {
          ASSERT_TRUE(f.bm.Discard(page).ok());
          discarded.push_back(page);
        }
      } else if (held.empty()) {
        ASSERT_TRUE(f.bm.InvalidateAll().ok());
      }

      for (auto it = written.begin(); it != written.end();) {
        if (f.bm.IsResident(it->first)) {
          ++it;
          continue;
        }
        if (std::find(discarded.begin(), discarded.end(), it->first) ==
            discarded.end()) {
          ASSERT_TRUE(SameBytes(f.disk.RawPage(it->first), it->second.data()))
              << "step " << step << ": page " << it->first
              << " left the pool without its written bytes";
        }
        it = written.erase(it);
      }
      std::vector<const std::byte*> buffers;
      for (std::size_t i = 0; i < f.bm.capacity(); ++i) {
        const std::byte* data = f.bm.FrameData(i);
        if (data != nullptr) buffers.push_back(data);
        const PageId resident = f.bm.FramePage(i);
        if (resident == kInvalidPageId) continue;
        const auto it = written.find(resident);
        ASSERT_TRUE(SameBytes(data, it != written.end()
                                        ? it->second.data()
                                        : f.disk.RawPage(resident)))
            << "step " << step << ": frame " << i << " page " << resident;
      }
      std::sort(buffers.begin(), buffers.end());
      ASSERT_EQ(std::adjacent_find(buffers.begin(), buffers.end()),
                buffers.end())
          << "step " << step << ": two frames share a buffer";
    }
  }
}

TEST(BufferManagerTest, CorruptAsyncCompletionInstallsTheCleanReread) {
  // An asynchronous read that delivers flipped bits lands in the staging
  // buffer; the synchronous re-read must overwrite it there before the
  // install hands that buffer to a frame. Pick a fault seed whose first
  // read decision corrupts and whose second (the re-read) is clean.
  FaultInjectorOptions faults;
  faults.corruption_rate = 0.5;
  for (faults.seed = 1;; ++faults.seed) {
    FaultInjector probe(faults);
    if (!probe.NextReadFault(3).corrupt) continue;
    std::vector<std::byte> scratch(kPage);
    probe.CorruptPayload(scratch.data(), kPage);  // as the delivery does
    if (!probe.NextReadFault(3).Any()) break;
  }
  for (const bool wait : {true, false}) {
    SCOPED_TRACE(wait ? "WaitAnyPrefetch" : "PollAnyPrefetch");
    BufferFixture f(2);
    for (std::uint8_t fill = 1; fill <= 4; ++fill) f.NewDiskPage(fill);
    // Fill the pool, so the completion's install takes a victim's frame.
    for (const PageId p : {PageId{1}, PageId{2}}) {
      ASSERT_TRUE(f.bm.Fix(p).ok());
    }
    FaultInjector injector(faults);
    f.disk.SetFaultInjector(&injector);
    ASSERT_TRUE(f.bm.Prefetch(3).ok());
    Result<PageId> done = kInvalidPageId;
    if (wait) {
      done = f.bm.WaitAnyPrefetch();
    } else {
      f.clock.ChargeCpu(100 * kSimMillisecond);
      done = f.bm.PollAnyPrefetch();
    }
    f.disk.SetFaultInjector(nullptr);
    ASSERT_TRUE(done.ok()) << done.status().ToString();
    EXPECT_EQ(*done, 3u);
    EXPECT_EQ(injector.decisions(), 2u);
    EXPECT_EQ(f.metrics.corruptions_detected, 1u);
    EXPECT_EQ(f.metrics.fault_fallbacks, 1u);
    auto guard = f.bm.Fix(3);
    ASSERT_TRUE(guard.ok());
    EXPECT_TRUE(SameBytes(guard->data(), f.disk.RawPage(3)));
    // The next install reuses the other frame's buffer; both stay exact.
    auto other = f.bm.Fix(0);
    ASSERT_TRUE(other.ok());
    EXPECT_TRUE(SameBytes(other->data(), f.disk.RawPage(0)));
    EXPECT_TRUE(SameBytes(guard->data(), f.disk.RawPage(3)));
  }
}

// --- Content generations ----------------------------------------------------

// Each event that may change a page's bytes moves its content generation.
TEST(BufferManagerTest, GenerationMovesOnEveryContentEvent) {
  BufferFixture f(4);
  const PageId p = f.NewDiskPage(1);
  std::uint64_t g = f.bm.ContentGeneration(p);
  auto moved = [&](const char* event) {
    const std::uint64_t now = f.bm.ContentGeneration(p);
    EXPECT_GT(now, g) << event;
    g = now;
  };
  {
    auto guard = f.bm.Fix(p);
    ASSERT_TRUE(guard.ok());
    guard->mutable_data()[0] = std::byte{2};
    moved("mutable access handed out");
    guard->MarkDirty();
  }
  moved("mutable guard released");

  auto fresh = f.bm.NewPage();
  ASSERT_TRUE(fresh.ok());
  const PageId q = fresh->page_id();
  EXPECT_GT(f.bm.ContentGeneration(q), 0u) << "NewPage";
  fresh->Release();

  const std::vector<std::byte> content(kPage, std::byte{9});
  {
    auto adopted = f.bm.AdoptPage(p, content.data());  // resident
    ASSERT_TRUE(adopted.ok());
  }
  moved("AdoptPage over a resident frame");
  ASSERT_TRUE(f.bm.Discard(p).ok());
  moved("Discard");
  {
    auto adopted = f.bm.AdoptPage(p, content.data());  // not resident
    ASSERT_TRUE(adopted.ok());
  }
  moved("AdoptPage of an id with no frame");
}

// A hit, a clean eviction, a written-back eviction, a prefetch and its
// claim, and const access leave the generation alone.
TEST(BufferManagerTest, GenerationHoldsWithoutContentEvents) {
  BufferFixture f(2);
  const PageId a = f.NewDiskPage(1);
  const PageId b = f.NewDiskPage(2);
  const PageId c = f.NewDiskPage(3);
  {
    auto guard = f.bm.Fix(a);  // miss
    ASSERT_TRUE(guard.ok());
    guard->mutable_data()[0] = std::byte{7};
    guard->MarkDirty();
  }
  const std::uint64_t ga = f.bm.ContentGeneration(a);
  const std::uint64_t gb = f.bm.ContentGeneration(b);
  const std::uint64_t gc = f.bm.ContentGeneration(c);
  {
    auto guard = f.bm.Fix(a);  // hit
    ASSERT_TRUE(guard.ok());
    EXPECT_EQ(guard->data()[0], std::byte{7});  // const access
  }
  ASSERT_TRUE(f.bm.Fix(b).ok());
  ASSERT_TRUE(f.bm.Fix(c).ok());  // evicts the dirty `a`, written back
  ASSERT_TRUE(f.bm.Fix(a).ok());  // evicts the clean `b`
  ASSERT_TRUE(f.bm.Prefetch(b, /*owner=*/1).ok());
  ASSERT_TRUE(f.bm.WaitAnyPrefetch().ok());
  ASSERT_TRUE(f.bm.Prefetch(b, /*owner=*/2).ok());  // claim, resident
  EXPECT_EQ(f.bm.ContentGeneration(a), ga);
  EXPECT_EQ(f.bm.ContentGeneration(b), gb);
  EXPECT_EQ(f.bm.ContentGeneration(c), gc);
  EXPECT_EQ(f.metrics.buffer_evictions, 3u);
}

// While any guard holding mutable access to a page is alive, its stamp
// says no derived cache may be trusted; moving the guard keeps that.
TEST(BufferManagerTest, StampIsUnstableWhileAWriterLives) {
  BufferFixture f(4);
  const PageId p = f.NewDiskPage(1);
  EXPECT_EQ(f.bm.ContentStamp(p), f.bm.ContentGeneration(p));
  auto reader = f.bm.Fix(p);
  ASSERT_TRUE(reader.ok());
  auto writer = f.bm.Fix(p);
  ASSERT_TRUE(writer.ok());
  writer->mutable_data();
  EXPECT_EQ(f.bm.ContentStamp(p), BufferManager::kUnstableContent);
  PageGuard moved = std::move(*writer);
  EXPECT_EQ(f.bm.ContentStamp(p), BufferManager::kUnstableContent);
  reader->Release();
  EXPECT_EQ(f.bm.ContentStamp(p), BufferManager::kUnstableContent);
  moved.Release();
  EXPECT_EQ(f.bm.ContentStamp(p), f.bm.ContentGeneration(p));
}

}  // namespace
}  // namespace navpath
