#ifndef NDV_COMMON_FLAT_HASH_H_
#define NDV_COMMON_FLAT_HASH_H_

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/check.h"

namespace ndv {

// A flat open-addressing set specialized for 64-bit value hashes (the
// output of Column::HashAt / Hash64 / HashBytes). Keys are assumed to be
// well mixed already, so a slot is addressed by the low bits of the key
// directly — no second hash. Linear probing over a power-of-two table keeps
// a lookup on one or two cache lines, where std::unordered_set pays a
// pointer chase per element; this is the kernel under every exact-NDV scan
// in the library. FrequencyProfile::FromValues and ReservoirProfile count
// with the same layout and growth policy in {key, count} slot arrays.
//
// Layout and policy:
//  - slot key 0 marks an empty slot; the real key 0 is stored out of line
//    (has_zero_), so the full uint64_t range is usable;
//  - capacity is a power of two, at least kMinCapacity once non-empty;
//  - the table doubles when a non-zero insert would push the load factor
//    over 3/4, re-inserting every key (linear probing has no tombstones
//    because the set does not support erase).
//
// The set is not thread-safe; parallel scans build one per chunk and merge
// (see ExactDistinctHashSet).

namespace flat_hash_internal {

inline constexpr int64_t kMinCapacity = 16;

// Smallest power-of-two capacity that holds `keys` non-zero keys at <= 3/4
// load.
inline int64_t CapacityFor(int64_t keys) {
  int64_t capacity = kMinCapacity;
  while (keys * 4 > capacity * 3) capacity *= 2;
  return capacity;
}

// One slot of a {key, count} table; key 0 marks an empty slot, so the key
// 0 is counted out of line.
struct CountSlot {
  uint64_t key;
  int64_t count;
};

// Index of the slot holding `key`, or of the empty slot where it belongs:
// the low bits of the (already mixed) key, probed linearly over a
// power-of-two table with at least one empty slot.
inline size_t FindCountSlot(const std::vector<CountSlot>& slots,
                            uint64_t key) {
  NDV_DCHECK_EQ(slots.size() & (slots.size() - 1), size_t{0});
  const size_t mask = slots.size() - 1;
  size_t index = static_cast<size_t>(key) & mask;
  while (slots[index].key != 0 && slots[index].key != key) {
    index = (index + 1) & mask;
  }
  return index;
}

// Doubles a {key, count} table, re-inserting every occupied slot.
inline void DoubleCountSlots(std::vector<CountSlot>& slots) {
  std::vector<CountSlot> old = std::move(slots);
  slots.assign(old.size() * 2, CountSlot{0, 0});
  for (const CountSlot& slot : old) {
    if (slot.key != 0) slots[FindCountSlot(slots, slot.key)] = slot;
  }
}

}  // namespace flat_hash_internal

// A set of 64-bit hashes. Supports Insert / Contains / ForEach / MergeFrom.
class FlatHashSet {
 public:
  FlatHashSet() = default;
  // Pre-sizes the table for `expected_keys` distinct keys.
  explicit FlatHashSet(int64_t expected_keys) { Reserve(expected_keys); }

  // Ensures capacity for `expected_keys` distinct keys without rehashing.
  void Reserve(int64_t expected_keys) {
    NDV_CHECK(expected_keys >= 0);
    if (expected_keys == 0) return;
    const int64_t capacity = flat_hash_internal::CapacityFor(expected_keys);
    if (capacity > Capacity()) Rehash(capacity);
  }

  // Inserts `key`; returns true when it was not present before.
  bool Insert(uint64_t key) {
    if (key == 0) {
      if (has_zero_) return false;
      has_zero_ = true;
      return true;
    }
    if ((used_ + 1) * 4 > Capacity() * 3) {
      Rehash(std::max(flat_hash_internal::kMinCapacity, Capacity() * 2));
    }
    const size_t index = FindIndex(keys_, key);
    if (keys_[index] == key) return false;
    keys_[index] = key;
    ++used_;
    // Growth policy invariant: load factor stays <= 3/4 after every insert.
    NDV_DCHECK_LE(used_ * 4, Capacity() * 3);
    return true;
  }

  bool Contains(uint64_t key) const {
    if (key == 0) return has_zero_;
    if (used_ == 0) return false;
    return keys_[FindIndex(keys_, key)] == key;
  }

  // Inserts every key of `other` (set union).
  void MergeFrom(const FlatHashSet& other) {
    Reserve(size() + other.size());
    other.ForEach([this](uint64_t key) { Insert(key); });
  }

  // Number of distinct keys inserted.
  int64_t size() const { return used_ + (has_zero_ ? 1 : 0); }
  bool empty() const { return size() == 0; }

  // Current slot count (the zero key lives out of line and is not a slot).
  int64_t Capacity() const { return static_cast<int64_t>(keys_.size()); }

  // Table memory in bytes (the dominant footprint; excludes the object
  // header).
  int64_t MemoryBytes() const {
    return Capacity() * static_cast<int64_t>(sizeof(uint64_t));
  }

  // Calls fn(key) for every key: 0 first (if present), then the non-zero
  // keys in slot order. Slot order depends on the insertion history, so
  // callers must not rely on it beyond determinism for an identical
  // sequence of operations.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    if (has_zero_) fn(uint64_t{0});
    for (uint64_t key : keys_) {
      if (key != 0) fn(key);
    }
  }

  void Clear() {
    keys_.clear();
    used_ = 0;
    has_zero_ = false;
  }

 private:
  // Index of the slot holding `key`, or of the empty slot where it belongs.
  // The masking below is only sound on a non-empty power-of-two table.
  static size_t FindIndex(const std::vector<uint64_t>& keys, uint64_t key) {
    NDV_DCHECK(!keys.empty());
    NDV_DCHECK_EQ(keys.size() & (keys.size() - 1), size_t{0});
    const size_t mask = keys.size() - 1;
    size_t index = static_cast<size_t>(key) & mask;
    while (keys[index] != 0 && keys[index] != key) {
      index = (index + 1) & mask;
    }
    return index;
  }

  void Rehash(int64_t new_capacity) {
    NDV_DCHECK((new_capacity & (new_capacity - 1)) == 0);
    NDV_DCHECK_GE(new_capacity, flat_hash_internal::kMinCapacity);
    NDV_DCHECK_GT(new_capacity, Capacity());
    std::vector<uint64_t> old = std::move(keys_);
    keys_.assign(static_cast<size_t>(new_capacity), 0);
    for (uint64_t key : old) {
      if (key != 0) keys_[FindIndex(keys_, key)] = key;
    }
  }

  std::vector<uint64_t> keys_;
  int64_t used_ = 0;  // non-zero keys stored in slots
  bool has_zero_ = false;
};

}  // namespace ndv

#endif  // NDV_COMMON_FLAT_HASH_H_
