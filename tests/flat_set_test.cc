// Differential tests of FlatSet against std::unordered_set: seeded random
// insert/contains/erase/clear sequences over key pools that include keys
// crowded onto a few home slots, runs that wrap around the table's end,
// the set's own empty-slot marker, growth from an empty table, and a large
// table reused after clear(). FlatSetPool: its bound and its empty tables.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/flat_set.h"
#include "common/random.h"

namespace navpath {
namespace {

// Keys whose multiplicative hash lands in a chosen region of the table at
// every capacity: the hash is the top bits of key * C, so key = P * C^-1
// (mod 2^64) has product P. Products near 2^64 home on the last slot and
// their runs wrap to slot 0; products near 0 and near 2^63 home on slot 0
// and on the middle slot. This mirrors FlatSet's hash constant only to aim
// the keys; the differential checks hold for any hash.
constexpr std::uint64_t kHashMultiplier = 0x9e3779b97f4a7c15ull;

std::uint64_t InverseMod2To64(std::uint64_t odd) {
  std::uint64_t inverse = odd;  // correct to 3 bits; Newton doubles it
  for (int i = 0; i < 5; ++i) inverse *= 2 - odd * inverse;
  return inverse;
}

std::vector<std::uint64_t> CrowdedProducts() {
  std::vector<std::uint64_t> products;
  for (std::uint64_t r = 0; r < 24; ++r) {
    products.push_back(~std::uint64_t{0} - r);         // last slot, wraps
    products.push_back(r);                             // slot 0
    products.push_back((std::uint64_t{1} << 63) + r);  // middle slot
  }
  return products;
}

template <typename Key>
std::vector<Key> KeyPool(Random* rng) {
  std::vector<Key> pool;
  const std::uint64_t inverse = InverseMod2To64(kHashMultiplier);
  if constexpr (sizeof(Key) == 8) {
    for (const std::uint64_t p : CrowdedProducts()) {
      pool.push_back(p * inverse);
    }
  } else {
    // A narrower key is widened before hashing, so aim with products whose
    // preimage fits: search small keys for high and low top bits.
    for (std::uint64_t k = 0; pool.size() < 48 && k < (1u << 20); ++k) {
      const std::uint64_t top = (k * kHashMultiplier) >> 58;
      if (top == 0 || top == 63) pool.push_back(static_cast<Key>(k));
    }
  }
  pool.push_back(std::numeric_limits<Key>::max());  // the empty marker
  pool.push_back(std::numeric_limits<Key>::max() - 1);
  pool.push_back(0);
  for (int i = 0; i < 64; ++i) pool.push_back(static_cast<Key>(i));
  for (int i = 0; i < 128; ++i) {
    pool.push_back(static_cast<Key>(rng->NextU64()));
  }
  return pool;
}

template <typename Key>
void RunDifferential(std::uint64_t seed) {
  Random rng(seed);
  const std::vector<Key> pool = KeyPool<Key>(&rng);
  FlatSet<Key> set;
  std::unordered_set<Key> reference;
  for (int op = 0; op < 20000; ++op) {
    const Key key = pool[rng.NextBounded(pool.size())];
    const std::uint64_t dice = rng.NextBounded(1000);
    if (dice < 450) {
      ASSERT_EQ(set.insert(key), reference.insert(key).second)
          << "insert " << key << " op " << op;
    } else if (dice < 700) {
      ASSERT_EQ(set.erase(key), reference.erase(key) > 0)
          << "erase " << key << " op " << op;
    } else if (dice < 998) {
      ASSERT_EQ(set.contains(key), reference.count(key) > 0)
          << "contains " << key << " op " << op;
    } else {
      set.clear();
      reference.clear();
    }
    ASSERT_EQ(set.size(), reference.size()) << "op " << op;
  }
  for (const Key key : pool) {
    EXPECT_EQ(set.contains(key), reference.count(key) > 0) << key;
  }
}

TEST(FlatSetTest, MatchesUnorderedSetOn64BitKeys) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE(seed);
    RunDifferential<std::uint64_t>(seed);
  }
}

TEST(FlatSetTest, MatchesUnorderedSetOn32BitKeys) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE(seed);
    RunDifferential<std::uint32_t>(seed);
  }
}

TEST(FlatSetTest, CrowdedRunsSurviveErasureInAnyOrder) {
  // Fill one long run that wraps the table's end, then erase its members
  // in a seeded order: every backward shift must keep the rest reachable.
  const std::uint64_t inverse = InverseMod2To64(kHashMultiplier);
  std::vector<std::uint64_t> keys;
  for (const std::uint64_t p : CrowdedProducts()) keys.push_back(p * inverse);
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    FlatSet<std::uint64_t> set;
    for (const std::uint64_t k : keys) ASSERT_TRUE(set.insert(k));
    Random rng(seed);
    std::vector<std::uint64_t> order = keys;
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.NextBounded(i)]);
    }
    for (std::size_t i = 0; i < order.size(); ++i) {
      ASSERT_TRUE(set.erase(order[i])) << "seed " << seed << " step " << i;
      ASSERT_FALSE(set.contains(order[i]));
      for (std::size_t j = i + 1; j < order.size(); ++j) {
        ASSERT_TRUE(set.contains(order[j]))
            << "seed " << seed << " lost a key after erase " << i;
      }
    }
    EXPECT_EQ(set.size(), 0u);
  }
}

TEST(FlatSetTest, EmptyMarkerIsAnOrdinaryMember) {
  constexpr std::uint32_t kMarker = std::numeric_limits<std::uint32_t>::max();
  FlatSet<std::uint32_t> set;
  EXPECT_FALSE(set.contains(kMarker));
  EXPECT_FALSE(set.erase(kMarker));
  EXPECT_TRUE(set.insert(kMarker));
  EXPECT_FALSE(set.insert(kMarker));
  EXPECT_TRUE(set.contains(kMarker));
  EXPECT_EQ(set.size(), 1u);
  EXPECT_TRUE(set.insert(7));
  EXPECT_EQ(set.size(), 2u);
  EXPECT_TRUE(set.erase(kMarker));
  EXPECT_FALSE(set.contains(kMarker));
  EXPECT_TRUE(set.contains(7));
  EXPECT_EQ(set.size(), 1u);
  EXPECT_TRUE(set.insert(kMarker));
  set.clear();
  EXPECT_FALSE(set.contains(kMarker));
  EXPECT_EQ(set.size(), 0u);
}

TEST(FlatSetTest, GrowsFromEmpty) {
  FlatSet<std::uint64_t> set;
  EXPECT_EQ(set.size(), 0u);
  EXPECT_FALSE(set.contains(0));
  EXPECT_FALSE(set.erase(0));
  for (std::uint64_t k = 0; k < 5000; ++k) {
    ASSERT_TRUE(set.insert(k * 4096));  // page-aligned packs: low bits equal
    ASSERT_EQ(set.size(), k + 1);
  }
  for (std::uint64_t k = 0; k < 5000; ++k) {
    ASSERT_TRUE(set.contains(k * 4096)) << k;
    ASSERT_FALSE(set.contains(k * 4096 + 1)) << k;
  }
  set.clear();
  EXPECT_EQ(set.size(), 0u);
  EXPECT_FALSE(set.contains(0));
  EXPECT_TRUE(set.insert(0));
}

TEST(FlatSetTest, MovedFromSetIsEmptyAndUsable) {
  FlatSet<std::uint64_t> a;
  for (std::uint64_t k = 0; k < 100; ++k) a.insert(k);
  a.insert(~std::uint64_t{0});
  FlatSet<std::uint64_t> b(std::move(a));
  EXPECT_EQ(b.size(), 101u);
  EXPECT_EQ(a.size(), 0u);  // moves leave the source empty
  EXPECT_FALSE(a.contains(5));
  EXPECT_FALSE(a.contains(~std::uint64_t{0}));
  EXPECT_TRUE(a.insert(5));
  EXPECT_EQ(a.size(), 1u);
  a = std::move(b);
  EXPECT_EQ(a.size(), 101u);
  EXPECT_TRUE(a.contains(99));
  EXPECT_EQ(b.size(), 0u);
  b = FlatSet<std::uint64_t>();
  EXPECT_EQ(b.size(), 0u);
}

TEST(FlatSetTest, ClearedLargeTableMatchesUnorderedSetOnReuse) {
  // A per-query table from the pool arrives cleared but keeps its grown
  // capacity; the next query must see exactly its own keys.
  Random rng(7);
  FlatSet<std::uint64_t> set;
  std::unordered_set<std::uint64_t> reference;
  for (int i = 0; i < 100000; ++i) {
    const std::uint64_t key = rng.NextU64();
    ASSERT_EQ(set.insert(key), reference.insert(key).second);
  }
  ASSERT_EQ(set.size(), reference.size());
  const std::size_t grown = set.capacity();
  set.clear();
  EXPECT_EQ(set.size(), 0u);
  EXPECT_EQ(set.capacity(), grown);
  for (const std::uint64_t key : reference) {
    ASSERT_FALSE(set.contains(key)) << key;
  }
  reference.clear();
  for (int op = 0; op < 100000; ++op) {
    const std::uint64_t key = rng.NextBounded(5000) * 4096;
    const std::uint64_t dice = rng.NextBounded(3);
    if (dice == 0) {
      ASSERT_EQ(set.insert(key), reference.insert(key).second) << op;
    } else if (dice == 1) {
      ASSERT_EQ(set.erase(key), reference.erase(key) > 0) << op;
    } else {
      ASSERT_EQ(set.contains(key), reference.count(key) > 0) << op;
    }
    ASSERT_EQ(set.size(), reference.size()) << op;
  }
  EXPECT_EQ(set.capacity(), grown);  // never shrinks, never needed to grow
}

TEST(FlatSetPoolTest, HoldsAtMostItsBoundAndHandsOutEmptyTables) {
  using Pool = FlatSetPool<std::uint64_t>;
  Pool pool;
  EXPECT_EQ(pool.idle(), 0u);
  EXPECT_EQ(pool.Take().capacity(), 0u);  // nothing idle: a new table
  pool.GiveBack(FlatSet<std::uint64_t>());  // never grew: not kept
  EXPECT_EQ(pool.idle(), 0u);
  // Give back twice the bound, table i holding 10 * (i + 1) keys.
  for (std::size_t i = 0; i < 2 * Pool::kMaxIdle; ++i) {
    FlatSet<std::uint64_t> table;
    for (std::uint64_t k = 0; k < 10 * (i + 1); ++k) table.insert(k);
    pool.GiveBack(std::move(table));
    ASSERT_LE(pool.idle(), Pool::kMaxIdle);
  }
  EXPECT_EQ(pool.idle(), Pool::kMaxIdle);
  // The last table kept is the first handed out: the pool is a stack.
  std::size_t last_capacity = ~std::size_t{0};
  for (std::size_t i = 0; i < Pool::kMaxIdle; ++i) {
    FlatSet<std::uint64_t> table = pool.Take();
    EXPECT_EQ(table.size(), 0u);
    EXPECT_GT(table.capacity(), 0u);
    EXPECT_LE(table.capacity(), last_capacity);
    last_capacity = table.capacity();
    for (std::uint64_t k = 0; k < 10 * (Pool::kMaxIdle + 1); ++k) {
      ASSERT_FALSE(table.contains(k)) << "table " << i << " key " << k;
    }
  }
  EXPECT_EQ(pool.idle(), 0u);
}

}  // namespace
}  // namespace navpath
