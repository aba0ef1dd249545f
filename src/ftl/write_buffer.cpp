#include "ftl/write_buffer.h"

#include <algorithm>
#include <stdexcept>

namespace esp::ftl {
namespace {

bool has(std::uint8_t mask, std::uint32_t slot) {
  return ((mask >> slot) & 1u) != 0;
}

/// First slot of the run of set bits in `mask` that ends at `slot`.
std::uint32_t run_floor(std::uint8_t mask, std::uint32_t slot) {
  while (slot > 0 && has(mask, slot - 1)) --slot;
  return slot;
}

/// Last slot (< spp) of the run of set bits in `mask` that starts at `slot`.
std::uint32_t run_ceil(std::uint8_t mask, std::uint32_t slot,
                       std::uint32_t spp) {
  while (slot + 1 < spp && has(mask, slot + 1)) ++slot;
  return slot;
}

/// Consumed age-log entries are reclaimed once they are at least this many
/// and at least half of the log's storage (amortized O(1) per entry).
constexpr std::size_t kMinReclaim = 64;

}  // namespace

WriteBuffer::WriteBuffer(std::size_t capacity_sectors,
                         std::uint32_t sectors_per_page)
    : capacity_(capacity_sectors), spp_(sectors_per_page) {
  if (spp_ == 0 || spp_ > nand::kMaxSubpagesPerPage)
    throw std::invalid_argument(
        "WriteBuffer: sectors_per_page must be in 1..kMaxSubpagesPerPage");
}

std::uint32_t WriteBuffer::alloc_page() {
  if (!free_bases_.empty()) {
    const std::uint32_t base = free_bases_.back();
    free_bases_.pop_back();
    return base;
  }
  const auto base = static_cast<std::uint32_t>(slots_.size());
  slots_.resize(slots_.size() + spp_);
  return base;
}

bool WriteBuffer::insert(std::uint64_t sector, std::uint64_t token,
                         bool small) {
  const std::uint64_t seq = next_seq_++;
  const auto slot = static_cast<std::uint32_t>(sector % spp_);
  const auto [page, fresh_page] = pages_.try_emplace(sector / spp_);
  if (fresh_page) page->base = alloc_page();
  const auto bit = static_cast<std::uint8_t>(1u << slot);
  const bool hit = (page->present & bit) != 0;
  page->present |= bit;
  if (small)
    page->small |= bit;
  else
    page->small &= static_cast<std::uint8_t>(~bit);
  slots_[page->base + slot] = Slot{token, seq};
  if (!hit) ++size_;
  age_log_.emplace_back(seq, sector);
  // Overwrite-heavy workloads (one hot sector rewritten forever) append a
  // log entry per insert but never extract, so lazy pruning alone lets the
  // log grow without bound. Compact once stale entries outnumber live
  // ones 2:1; amortized O(1) per insert.
  if (age_log_.size() - age_head_ > 2 * size_ + 16) compact_age_log();
  return hit;
}

bool WriteBuffer::is_live(std::uint64_t seq, std::uint64_t sector) const {
  const Page* page = pages_.find(sector / spp_);
  const auto slot = static_cast<std::uint32_t>(sector % spp_);
  return page && has(page->present, slot) &&
         slots_[page->base + slot].seq == seq;
}

void WriteBuffer::compact_age_log() {
  std::size_t kept = 0;
  for (std::size_t i = age_head_; i < age_log_.size(); ++i) {
    const auto [seq, sector] = age_log_[i];
    if (is_live(seq, sector)) age_log_[kept++] = age_log_[i];
  }
  age_log_.resize(kept);
  age_head_ = 0;
}

bool WriteBuffer::lookup(std::uint64_t sector, std::uint64_t* token) const {
  const Page* page = pages_.find(sector / spp_);
  const auto slot = static_cast<std::uint32_t>(sector % spp_);
  if (!page || !has(page->present, slot)) return false;
  if (token) *token = slots_[page->base + slot].token;
  return true;
}

bool WriteBuffer::erase(std::uint64_t sector) {
  const std::uint64_t lpn = sector / spp_;
  Page* page = pages_.find(lpn);
  const auto slot = static_cast<std::uint32_t>(sector % spp_);
  if (!page || !has(page->present, slot)) return false;
  const auto keep = static_cast<std::uint8_t>(~(1u << slot));
  page->present &= keep;
  page->small &= keep;
  --size_;
  if (page->present == 0) {
    free_bases_.push_back(page->base);
    pages_.erase(lpn);
  }
  return true;
}

void WriteBuffer::take_slots(Page* page, std::uint64_t lpn,
                             std::uint32_t first, std::uint32_t last) {
  std::uint8_t taken = 0;
  for (std::uint32_t s = first; s <= last; ++s) {
    if (!has(page->present, s)) continue;
    out_.push_back(BufferedSector{lpn * spp_ + s, slots_[page->base + s].token,
                                  has(page->small, s)});
    taken |= static_cast<std::uint8_t>(1u << s);
    --size_;
  }
  page->present &= static_cast<std::uint8_t>(~taken);
  page->small &= static_cast<std::uint8_t>(~taken);
  if (page->present == 0) {
    free_bases_.push_back(page->base);
    pages_.erase(lpn);
  }
}

void WriteBuffer::append_run(std::uint64_t sector) {
  std::uint64_t lpn = sector / spp_;
  Page* page = pages_.find(lpn);
  const auto slot = static_cast<std::uint32_t>(sector % spp_);
  if (!page || !has(page->present, slot)) return;
  // Walk down to the start of the contiguous run, then sweep upward.
  std::uint32_t first = run_floor(page->present, slot);
  while (first == 0 && lpn > 0) {
    const Page* prev = pages_.find(lpn - 1);
    if (!prev || !has(prev->present, spp_ - 1)) break;
    --lpn;
    first = run_floor(prev->present, spp_ - 1);
  }
  for (;; ++lpn, first = 0) {
    page = pages_.find(lpn);
    if (!page || !has(page->present, first)) break;
    const std::uint32_t last = run_ceil(page->present, first, spp_);
    take_slots(page, lpn, first, last);
    if (last != spp_ - 1) break;
  }
}

void WriteBuffer::append_page_group(std::uint64_t sector) {
  const std::uint64_t lpn = sector / spp_;
  const Page* page = pages_.find(lpn);
  if (!page || !has(page->present, static_cast<std::uint32_t>(sector % spp_)))
    return;
  // A page is in the table exactly while it holds a buffered sector.
  std::uint64_t lo = lpn;
  while (lo > 0 && pages_.contains(lo - 1)) --lo;
  std::uint64_t hi = lpn;
  while (pages_.contains(hi + 1)) ++hi;
  for (std::uint64_t p = lo; p <= hi; ++p)
    take_slots(pages_.find(p), p, 0, spp_ - 1);
}

bool WriteBuffer::oldest_live(std::uint64_t* sector) {
  bool found = false;
  while (age_head_ < age_log_.size()) {
    const auto [seq, s] = age_log_[age_head_];
    if (is_live(seq, s)) {
      *sector = s;
      found = true;
      break;
    }
    ++age_head_;  // stale: overwritten or already extracted
  }
  // Reclaim the consumed prefix. A consumer that evicts from the front
  // while the producer appends at the back never trips the stale:live
  // compaction, so without this the storage would grow without bound.
  if (age_head_ == age_log_.size()) {
    age_log_.clear();
    age_head_ = 0;
  } else if (age_head_ >= kMinReclaim && 2 * age_head_ >= age_log_.size()) {
    age_log_.erase(age_log_.begin(),
                   age_log_.begin() + static_cast<std::ptrdiff_t>(age_head_));
    age_head_ = 0;
  }
  return found;
}

const std::vector<BufferedSector>& WriteBuffer::extract_run(
    std::uint64_t sector) {
  out_.clear();
  append_run(sector);
  return out_;
}

const std::vector<BufferedSector>& WriteBuffer::extract_oldest_run() {
  out_.clear();
  std::uint64_t sector = 0;
  if (oldest_live(&sector)) append_run(sector);
  return out_;
}

const std::vector<BufferedSector>& WriteBuffer::extract_page_group(
    std::uint64_t sector) {
  out_.clear();
  append_page_group(sector);
  return out_;
}

const std::vector<BufferedSector>& WriteBuffer::extract_oldest_page_group() {
  out_.clear();
  std::uint64_t sector = 0;
  if (oldest_live(&sector)) append_page_group(sector);
  return out_;
}

const std::vector<BufferedSector>& WriteBuffer::drain() {
  out_.clear();
  std::uint64_t sector = 0;
  while (size_ > 0 && oldest_live(&sector)) append_run(sector);
  age_log_.clear();
  age_head_ = 0;
  return out_;
}

namespace {
struct ArchivedEntry {
  std::uint64_t sector;
  std::uint64_t token;
  std::uint64_t seq;
  std::uint8_t small;
  std::uint8_t pad[7];  ///< archived as zeros
};
static_assert(sizeof(ArchivedEntry) == 32);
}  // namespace

void WriteBuffer::save_state(util::StateWriter& w) const {
  w.tag("WBUF");
  w.u64(capacity_);
  w.u64(next_seq_);
  std::vector<std::uint64_t> lpns;
  lpns.reserve(pages_.size());
  pages_.for_each([&lpns](std::uint64_t lpn, const Page&) {
    lpns.push_back(lpn);
  });
  std::sort(lpns.begin(), lpns.end());
  std::vector<ArchivedEntry> sorted;
  sorted.reserve(size_);
  for (const std::uint64_t lpn : lpns) {
    const Page& page = *pages_.find(lpn);
    for (std::uint32_t s = 0; s < spp_; ++s) {
      if (!has(page.present, s)) continue;
      const Slot& slot = slots_[page.base + s];
      sorted.push_back({lpn * spp_ + s, slot.token, slot.seq,
                        has(page.small, s) ? std::uint8_t{1} : std::uint8_t{0},
                        {}});
    }
  }
  w.pod_vec(sorted);
  // The unconsumed log, pair by pair: the layout StateReader::pair_vec reads.
  w.u64(age_log_.size() - age_head_);
  for (std::size_t i = age_head_; i < age_log_.size(); ++i) {
    w.u64(age_log_[i].first);
    w.u64(age_log_[i].second);
  }
}

void WriteBuffer::load_state(util::StateReader& r) {
  r.tag("WBUF");
  if (r.u64() != capacity_)
    throw std::runtime_error("WriteBuffer::load_state: capacity mismatch");
  next_seq_ = r.u64();
  std::vector<ArchivedEntry> sorted;
  r.pod_vec(sorted);
  pages_.clear();
  slots_.clear();
  free_bases_.clear();
  size_ = 0;
  for (const ArchivedEntry& e : sorted) {
    const auto slot = static_cast<std::uint32_t>(e.sector % spp_);
    const auto [page, fresh_page] = pages_.try_emplace(e.sector / spp_);
    if (fresh_page) page->base = alloc_page();
    const auto bit = static_cast<std::uint8_t>(1u << slot);
    if (!(page->present & bit)) ++size_;
    page->present |= bit;
    if (e.small != 0) page->small |= bit;
    slots_[page->base + slot] = Slot{e.token, e.seq};
  }
  r.pair_vec(age_log_);
  age_head_ = 0;
}

}  // namespace esp::ftl
