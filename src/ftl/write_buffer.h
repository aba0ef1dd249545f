// Host write buffer (fgmFTL, subFTL and sectorLogFTL front end).
//
// Buffers dirty 4-KB sectors so that small *asynchronous* writes can be
// merged into full-page programs before reaching flash. Synchronous writes
// pass through: the FTL extracts them (plus any contiguous buffered
// neighbors -- a free merge) immediately, which is exactly why sync-heavy
// workloads defeat the FGM scheme (paper Sec. 2).
//
// The buffer only stores tokens; flush policy lives in the owning FTL.
//
// Layout: one flat table keyed by logical page holds each page's presence
// and small-write bit masks plus the offset of its per-slot (token, seq)
// record in a pooled array; extractions fill one reusable member vector.
// The steady-state request path therefore allocates nothing.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "nand/geometry.h"
#include "util/flat_map.h"
#include "util/serialize.h"

namespace esp::ftl {

struct BufferedSector {
  std::uint64_t sector = 0;
  std::uint64_t token = 0;
  bool small = false;  ///< originated from a small host request
};

class WriteBuffer {
 public:
  /// `sectors_per_page` (1..kMaxSubpagesPerPage) fixes the logical page
  /// that page-group extraction merges by.
  WriteBuffer(std::size_t capacity_sectors, std::uint32_t sectors_per_page);

  /// Inserts or overwrites a dirty sector. Returns true when the sector was
  /// already buffered (write hit).
  bool insert(std::uint64_t sector, std::uint64_t token, bool small);

  /// Read hit: fills `token` and returns true when the sector is buffered.
  bool lookup(std::uint64_t sector, std::uint64_t* token) const;

  /// Drops a sector (TRIM). Returns true when it was present.
  bool erase(std::uint64_t sector);

  // Every extraction returns a reference to one member vector: it stays
  // valid until the next extraction (or drain) on this buffer.

  /// Removes and returns the maximal run of buffered sectors contiguous
  /// with (and including) `sector`, sorted ascending. Empty when `sector`
  /// is not buffered.
  const std::vector<BufferedSector>& extract_run(std::uint64_t sector);

  /// Removes and returns the least-recently-written sector's contiguous
  /// run (capacity eviction). Empty when the buffer is empty.
  const std::vector<BufferedSector>& extract_oldest_run();

  /// Page-granular merge unit: removes and returns every buffered sector
  /// belonging to the maximal chain of consecutive logical pages that each
  /// hold at least one buffered sector, containing `sector`'s page. Sorted
  /// ascending. This is the "merge small writes with consecutive logical
  /// block addresses" unit of the paper's buffered FTLs: sectors of the
  /// same page always flush into the same physical page.
  const std::vector<BufferedSector>& extract_page_group(std::uint64_t sector);

  /// Removes and returns the least-recently-written sector's page group.
  const std::vector<BufferedSector>& extract_oldest_page_group();

  /// Removes and returns everything, ordered by write age (oldest first,
  /// each entry expanded to its contiguous run).
  const std::vector<BufferedSector>& drain();

  std::size_t size() const { return size_; }
  std::size_t capacity() const { return capacity_; }
  bool over_capacity() const { return size_ > capacity_; }
  bool empty() const { return size_ == 0; }

  /// Entries held by the insertion log's storage: live and stale entries
  /// plus any consumed prefix not yet reclaimed (bounded-memory
  /// regression tests).
  std::size_t age_log_size() const { return age_log_.size(); }

  /// Snapshot support. Entries are archived in sorted-sector order (the
  /// table is only ever probed by key, so its slot order is not behavior;
  /// sorting makes the archive canonical). The unconsumed age log is saved
  /// verbatim, stale entries included, so LRU eviction order is exact.
  void save_state(util::StateWriter& w) const;
  void load_state(util::StateReader& r);

 private:
  static_assert(nand::kMaxSubpagesPerPage <= 8, "page masks are 8 bits");

  struct Page {
    std::uint8_t present = 0;  ///< bit s: sector s of the page is buffered
    std::uint8_t small = 0;    ///< bit s: ... and came from a small request
    std::uint32_t base = 0;    ///< first of the page's slots_ records
  };
  struct Slot {
    std::uint64_t token;
    std::uint64_t seq;
  };

  bool is_live(std::uint64_t seq, std::uint64_t sector) const;
  /// Oldest live age-log entry's sector, dropping stale entries in front
  /// of it; false when the log holds none.
  bool oldest_live(std::uint64_t* sector);
  void append_run(std::uint64_t sector);
  void append_page_group(std::uint64_t sector);
  /// Moves the buffered sectors in slots [first, last] of page `lpn`
  /// (table entry `page`) to out_; drops the page once it is empty.
  void take_slots(Page* page, std::uint64_t lpn, std::uint32_t first,
                  std::uint32_t last);
  std::uint32_t alloc_page();
  /// Drops stale age-log entries (overwritten or extracted sectors). Called
  /// when stale entries dominate so the log stays O(live entries) even
  /// under overwrite-only workloads that never trigger the lazy pruning at
  /// extraction.
  void compact_age_log();

  std::size_t capacity_;
  std::uint32_t spp_;
  std::uint64_t next_seq_ = 0;
  std::size_t size_ = 0;  ///< buffered sectors
  util::FlatMap<Page> pages_;
  std::vector<Slot> slots_;                ///< spp_ records per page
  std::vector<std::uint32_t> free_bases_;  ///< released slots_ records
  /// Insertion log (seq, sector) for LRU eviction; stale entries skipped
  /// lazily. Entries before age_head_ are consumed.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> age_log_;
  std::size_t age_head_ = 0;
  std::vector<BufferedSector> out_;  ///< extraction result, reused
};

}  // namespace esp::ftl
