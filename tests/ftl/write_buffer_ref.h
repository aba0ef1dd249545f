// Reference write buffer: the original sector-keyed implementation
// (std::unordered_map of sectors + std::deque age log, one std::vector
// returned per extraction), frozen as the differential-test oracle for
// ftl::WriteBuffer. Only save_state changed: the archive's padding bytes
// are named and zeroed, so its output is deterministic byte for byte, and
// the age log is written pair by pair (the same bytes as before).
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ftl/write_buffer.h"
#include "util/serialize.h"

namespace esp::ftl::ref {

class RefWriteBuffer {
 public:
  explicit RefWriteBuffer(std::size_t capacity_sectors)
      : capacity_(capacity_sectors) {}

  bool insert(std::uint64_t sector, std::uint64_t token, bool small) {
    const std::uint64_t seq = next_seq_++;
    auto [it, fresh] = entries_.try_emplace(sector, Entry{token, seq, small});
    if (!fresh) {
      it->second.token = token;
      it->second.seq = seq;
      it->second.small = small;
    }
    age_log_.emplace_back(seq, sector);
    if (age_log_.size() > 2 * entries_.size() + 16) compact_age_log();
    return !fresh;
  }

  bool lookup(std::uint64_t sector, std::uint64_t* token) const {
    const auto it = entries_.find(sector);
    if (it == entries_.end()) return false;
    if (token) *token = it->second.token;
    return true;
  }

  bool erase(std::uint64_t sector) { return entries_.erase(sector) > 0; }

  std::vector<BufferedSector> extract_run(std::uint64_t sector) {
    std::vector<BufferedSector> run;
    if (!entries_.contains(sector)) return run;
    std::uint64_t lo = sector;
    while (lo > 0 && entries_.contains(lo - 1)) --lo;
    for (std::uint64_t s = lo;; ++s) {
      const auto it = entries_.find(s);
      if (it == entries_.end()) break;
      run.push_back(BufferedSector{s, it->second.token, it->second.small});
      entries_.erase(it);
    }
    return run;
  }

  std::vector<BufferedSector> extract_oldest_run() {
    while (!age_log_.empty()) {
      const auto [seq, sector] = age_log_.front();
      const auto it = entries_.find(sector);
      if (it == entries_.end() || it->second.seq != seq) {
        age_log_.pop_front();
        continue;
      }
      return extract_run(sector);
    }
    return {};
  }

  std::vector<BufferedSector> extract_page_group(
      std::uint64_t sector, std::uint32_t sectors_per_page) {
    std::vector<BufferedSector> group;
    if (!entries_.contains(sector)) return group;
    const auto page_has = [this, sectors_per_page](std::uint64_t lpn) {
      for (std::uint32_t s = 0; s < sectors_per_page; ++s)
        if (entries_.contains(lpn * sectors_per_page + s)) return true;
      return false;
    };
    std::uint64_t lo = sector / sectors_per_page;
    while (lo > 0 && page_has(lo - 1)) --lo;
    std::uint64_t hi = sector / sectors_per_page;
    while (page_has(hi + 1)) ++hi;
    for (std::uint64_t lpn = lo; lpn <= hi; ++lpn) {
      for (std::uint32_t s = 0; s < sectors_per_page; ++s) {
        const std::uint64_t cur = lpn * sectors_per_page + s;
        const auto it = entries_.find(cur);
        if (it == entries_.end()) continue;
        group.push_back(
            BufferedSector{cur, it->second.token, it->second.small});
        entries_.erase(it);
      }
    }
    return group;
  }

  std::vector<BufferedSector> extract_oldest_page_group(
      std::uint32_t sectors_per_page) {
    while (!age_log_.empty()) {
      const auto [seq, sector] = age_log_.front();
      const auto it = entries_.find(sector);
      if (it == entries_.end() || it->second.seq != seq) {
        age_log_.pop_front();
        continue;
      }
      return extract_page_group(sector, sectors_per_page);
    }
    return {};
  }

  std::vector<BufferedSector> drain() {
    std::vector<BufferedSector> all;
    while (!entries_.empty()) {
      auto run = extract_oldest_run();
      all.insert(all.end(), run.begin(), run.end());
    }
    age_log_.clear();
    return all;
  }

  std::size_t size() const { return entries_.size(); }
  bool over_capacity() const { return entries_.size() > capacity_; }
  bool empty() const { return entries_.empty(); }
  std::size_t age_log_size() const { return age_log_.size(); }

  void save_state(util::StateWriter& w) const {
    w.tag("WBUF");
    w.u64(capacity_);
    w.u64(next_seq_);
    std::vector<ArchivedEntry> sorted;
    sorted.reserve(entries_.size());
    for (const auto& [sector, e] : entries_)
      sorted.push_back({sector, e.token, e.seq,
                        e.small ? std::uint8_t{1} : std::uint8_t{0}, {}});
    std::sort(sorted.begin(), sorted.end(),
              [](const ArchivedEntry& a, const ArchivedEntry& b) {
                return a.sector < b.sector;
              });
    w.pod_vec(sorted);
    w.u64(age_log_.size());
    for (const auto& [seq, sector] : age_log_) {
      w.u64(seq);
      w.u64(sector);
    }
  }

 private:
  struct Entry {
    std::uint64_t token;
    std::uint64_t seq;
    bool small;
  };
  struct ArchivedEntry {
    std::uint64_t sector;
    std::uint64_t token;
    std::uint64_t seq;
    std::uint8_t small;
    std::uint8_t pad[7];
  };

  void compact_age_log() {
    std::deque<std::pair<std::uint64_t, std::uint64_t>> live;
    for (const auto& [seq, sector] : age_log_) {
      const auto it = entries_.find(sector);
      if (it != entries_.end() && it->second.seq == seq)
        live.emplace_back(seq, sector);
    }
    age_log_.swap(live);
  }

  std::size_t capacity_;
  std::uint64_t next_seq_ = 0;
  std::unordered_map<std::uint64_t, Entry> entries_;
  std::deque<std::pair<std::uint64_t, std::uint64_t>> age_log_;
};

}  // namespace esp::ftl::ref
