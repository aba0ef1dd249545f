// Flat open-addressing hash map from 64-bit keys to small POD values.
//
// Backs the tables probed on every request (the FTL write buffer's page
// table, sectorLogFTL's sector -> subpage log map): one contiguous slot
// array, linear probing, Fibonacci hashing, and backward-shift deletion,
// so there are no tombstones and no per-node heap allocations. The all-ones key is the empty-slot sentinel and cannot be
// stored.
//
// Iteration order (for_each) depends on the table's capacity and history;
// callers whose output must be canonical sort what they collect.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

namespace esp::util {

template <typename V>
class FlatMap {
  static_assert(std::is_trivially_copyable_v<V>,
                "FlatMap values are moved by plain copies");

 public:
  /// Reserved: marks an empty slot, so it can never be a key.
  static constexpr std::uint64_t kEmptyKey = ~std::uint64_t{0};

  FlatMap() { rebuild(kMinCapacity); }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// Slot count (a power of two).
  std::size_t capacity() const { return slots_.size(); }

  V* find(std::uint64_t key) {
    const std::size_t i = locate(key);
    return i == kNpos ? nullptr : &slots_[i].value;
  }
  const V* find(std::uint64_t key) const {
    const std::size_t i = locate(key);
    return i == kNpos ? nullptr : &slots_[i].value;
  }
  bool contains(std::uint64_t key) const { return locate(key) != kNpos; }

  /// Inserts `key` -> `value` unless `key` is present. Returns the stored
  /// value (valid until the next insert or erase) and whether it is new.
  /// Throws std::invalid_argument for the reserved key.
  std::pair<V*, bool> try_emplace(std::uint64_t key, const V& value = V{}) {
    if (key == kEmptyKey)
      throw std::invalid_argument("FlatMap: the all-ones key is reserved");
    std::size_t i = home(key);
    while (slots_[i].key != kEmptyKey) {
      if (slots_[i].key == key) return {&slots_[i].value, false};
      i = (i + 1) & mask_;
    }
    if ((size_ + 1) * kLoadDen > slots_.size() * kLoadNum) {
      rebuild(slots_.size() * 2);
      i = home(key);
      while (slots_[i].key != kEmptyKey) i = (i + 1) & mask_;
    }
    slots_[i] = Slot{key, value};
    ++size_;
    return {&slots_[i].value, true};
  }

  /// Inserts or overwrites.
  void insert_or_assign(std::uint64_t key, const V& value) {
    auto [v, fresh] = try_emplace(key, value);
    if (!fresh) *v = value;
  }

  /// Removes `key`; returns true when it was present.
  bool erase(std::uint64_t key) {
    const std::size_t i = locate(key);
    if (i == kNpos) return false;
    erase_slot(i);
    return true;
  }

  /// Removes `key` and returns its value, if present.
  std::optional<V> take(std::uint64_t key) {
    const std::size_t i = locate(key);
    if (i == kNpos) return std::nullopt;
    const V value = slots_[i].value;
    erase_slot(i);
    return value;
  }

  void clear() {
    slots_.clear();
    rebuild(kMinCapacity);
  }

  /// Grows the table so `n` entries fit without a rehash.
  void reserve(std::size_t n) {
    std::size_t cap = slots_.size();
    while (n * kLoadDen > cap * kLoadNum) cap *= 2;
    if (cap != slots_.size()) rebuild(cap);
  }

  /// Probe-layout introspection (tests): the slot a key hashes to, and the
  /// slot it occupies (all ones when absent).
  std::size_t home_slot(std::uint64_t key) const { return home(key); }
  std::size_t slot_of(std::uint64_t key) const { return locate(key); }

  /// Calls f(key, value) for every entry, in table order.
  template <typename F>
  void for_each(F&& f) const {
    for (const Slot& s : slots_)
      if (s.key != kEmptyKey) f(s.key, s.value);
  }

 private:
  struct Slot {
    std::uint64_t key;
    V value;
  };

  static constexpr std::size_t kNpos = ~std::size_t{0};
  static constexpr std::size_t kMinCapacity = 16;
  // Maximum load factor 7/8. Right after a doubling the table is 7/16
  // full, so 16-byte slots cost 16-37 bytes per entry: never more than a
  // node-based map's heap node plus bucket pointer.
  static constexpr std::size_t kLoadNum = 7;
  static constexpr std::size_t kLoadDen = 8;

  std::size_t home(std::uint64_t key) const {
    // Fibonacci hashing: the top bits of key * 2^64/phi spread runs of
    // consecutive keys evenly over the table.
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> shift_);
  }

  std::size_t locate(std::uint64_t key) const {
    if (key == kEmptyKey) return kNpos;
    std::size_t i = home(key);
    while (true) {
      const std::uint64_t k = slots_[i].key;
      if (k == key) return i;
      if (k == kEmptyKey) return kNpos;
      i = (i + 1) & mask_;
    }
  }

  /// Backward-shift deletion: pulls every later member of the probe
  /// cluster whose home is not in (hole, its slot] back into the hole, so
  /// lookups never need tombstones.
  void erase_slot(std::size_t hole) {
    std::size_t j = hole;
    while (true) {
      j = (j + 1) & mask_;
      const std::uint64_t k = slots_[j].key;
      if (k == kEmptyKey) break;
      if (((j - home(k)) & mask_) >= ((j - hole) & mask_)) {
        slots_[hole] = slots_[j];
        hole = j;
      }
    }
    slots_[hole].key = kEmptyKey;
    --size_;
  }

  void rebuild(std::size_t capacity) {
    std::vector<Slot> old;
    old.swap(slots_);
    slots_.assign(capacity, Slot{kEmptyKey, V{}});
    mask_ = capacity - 1;
    shift_ = 64;
    for (std::size_t c = capacity; c > 1; c >>= 1) --shift_;
    size_ = 0;
    for (const Slot& s : old) {
      if (s.key == kEmptyKey) continue;
      std::size_t i = home(s.key);
      while (slots_[i].key != kEmptyKey) i = (i + 1) & mask_;
      slots_[i] = s;
      ++size_;
    }
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  unsigned shift_ = 64;
  std::size_t size_ = 0;
};

}  // namespace esp::util
