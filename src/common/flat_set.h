// FlatSet: an open-addressing hash set of unsigned integer keys.
//
// The membership sets on the pull path (XAssembly's R, the per-query
// result dedup sets, the visited-cluster set) are probed once per path
// instance. A node-based std::unordered_set allocates on every insert and
// frees on every erase and clear; this set keeps its keys in one
// power-of-two array instead:
//   * linear probing from a multiplicative (Fibonacci) hash of the key,
//     taken from the product's high bits, at most half the slots in use;
//   * erase shifts the rest of the probe run back into the hole rather
//     than leaving a tombstone, so churn never lengthens probe runs;
//   * the all-ones key marks an empty slot and is itself tracked by a
//     flag, so every key value can be stored.
// FlatSetPool, below, recycles the per-query tables between queries.
//
// There is deliberately no iteration API. The order of a hash table is an
// accident of its hash and capacity; a set that cannot be walked cannot
// leak that order into a simulated schedule, so swapping the container
// moves host time only (DESIGN.md, "Host-side containers").
#ifndef NAVPATH_COMMON_FLAT_SET_H_
#define NAVPATH_COMMON_FLAT_SET_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <type_traits>
#include <utility>
#include <vector>

namespace navpath {

template <typename Key>
class FlatSet {
  static_assert(std::is_unsigned_v<Key> && sizeof(Key) <= 8,
                "FlatSet holds unsigned integer keys of up to 64 bits");

 public:
  FlatSet() = default;
  // Moves leave the source empty (its table goes with the move), so a
  // moved-from set is as usable as a fresh one.
  FlatSet(FlatSet&& other) noexcept { Swap(other); }
  FlatSet& operator=(FlatSet&& other) noexcept {
    FlatSet taken(std::move(other));
    Swap(taken);
    return *this;
  }

  std::size_t size() const { return used_ + (has_empty_key_ ? 1 : 0); }
  /// Slots in the table (0 until the first insert).
  std::size_t capacity() const { return slots_.size(); }

  bool contains(Key key) const {
    if (key == kEmpty) return has_empty_key_;
    return !slots_.empty() && slots_[Probe(key)] == key;
  }

  /// Adds `key`; true when it was not present yet.
  bool insert(Key key) {
    if (key == kEmpty) return !std::exchange(has_empty_key_, true);
    if (slots_.empty()) Rehash(kMinCapacity);
    std::size_t i = Probe(key);
    if (slots_[i] == key) return false;
    if (2 * (used_ + 1) > slots_.size()) {
      Rehash(2 * slots_.size());
      i = Probe(key);
    }
    slots_[i] = key;
    ++used_;
    return true;
  }

  /// Removes `key`; true when it was present.
  bool erase(Key key) {
    if (key == kEmpty) return std::exchange(has_empty_key_, false);
    if (slots_.empty()) return false;
    std::size_t hole = Probe(key);
    if (slots_[hole] != key) return false;
    // Backward-shift deletion: a later key of the run moves into the hole
    // unless its home slot lies cyclically after the hole, where moving it
    // would put it before its home and make it unreachable.
    for (std::size_t j = (hole + 1) & mask_; slots_[j] != kEmpty;
         j = (j + 1) & mask_) {
      const std::size_t from_home = (j - Home(slots_[j])) & mask_;
      if (from_home >= ((j - hole) & mask_)) {
        slots_[hole] = slots_[j];
        hole = j;
      }
    }
    slots_[hole] = kEmpty;
    --used_;
    return true;
  }

  /// Empties the set and keeps its table for reuse. Assign a
  /// default-constructed set to release the memory instead.
  void clear() {
    slots_.assign(slots_.size(), kEmpty);
    used_ = 0;
    has_empty_key_ = false;
  }

 private:
  static constexpr Key kEmpty = std::numeric_limits<Key>::max();
  static constexpr std::size_t kMinCapacity = 16;

  void Swap(FlatSet& other) noexcept {
    slots_.swap(other.slots_);
    std::swap(mask_, other.mask_);
    std::swap(shift_, other.shift_);
    std::swap(used_, other.used_);
    std::swap(has_empty_key_, other.has_empty_key_);
  }

  std::size_t Home(Key key) const {
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(key) * 0x9e3779b97f4a7c15ull) >> shift_);
  }

  /// Slot holding `key`, or the empty slot that ends its probe run. The
  /// table is never more than half full, so the run always ends.
  std::size_t Probe(Key key) const {
    std::size_t i = Home(key);
    while (slots_[i] != key && slots_[i] != kEmpty) i = (i + 1) & mask_;
    return i;
  }

  void Rehash(std::size_t capacity) {
    const std::vector<Key> old =
        std::exchange(slots_, std::vector<Key>(capacity, kEmpty));
    mask_ = capacity - 1;
    shift_ = 64 - std::countr_zero(capacity);
    for (const Key key : old) {
      if (key != kEmpty) slots_[Probe(key)] = key;
    }
  }

  std::vector<Key> slots_;  // kEmpty or a member; size is a power of two
  std::size_t mask_ = 0;
  int shift_ = 64;  // 64 - log2(capacity)
  std::size_t used_ = 0;  // members in slots_ (excludes kEmpty itself)
  bool has_empty_key_ = false;
};

/// A bounded stack of idle tables for the per-query membership sets
/// (XAssembly's R and the result dedup sets). A query takes a table when
/// it starts and gives it back when it ends, so the next query starts
/// from a table that has already grown instead of rehashing up from 16
/// slots. Emptying a table costs its full capacity, so sets that live for
/// one step and hold a handful of keys do not belong here.
template <typename Key>
class FlatSetPool {
 public:
  /// Idle tables kept at most; a table given back beyond that is freed.
  static constexpr std::size_t kMaxIdle = 16;

  /// The table given back last, emptied, or a new one when none is idle.
  FlatSet<Key> Take() {
    if (idle_.empty()) return FlatSet<Key>();
    FlatSet<Key> table = std::move(idle_.back());
    idle_.pop_back();
    table.clear();
    return table;
  }

  /// Keeps `table` for a later Take while fewer than kMaxIdle are idle. A
  /// table that never grew is not worth a place and is dropped.
  void GiveBack(FlatSet<Key> table) {
    if (table.capacity() != 0 && idle_.size() < kMaxIdle) {
      idle_.push_back(std::move(table));
    }
  }

  std::size_t idle() const { return idle_.size(); }

 private:
  std::vector<FlatSet<Key>> idle_;
};

}  // namespace navpath

#endif  // NAVPATH_COMMON_FLAT_SET_H_
