#include "ftl/write_buffer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "ftl/write_buffer_ref.h"
#include "util/rng.h"
#include "util/serialize.h"

namespace esp::ftl {
namespace {

TEST(WriteBuffer, InsertAndLookup) {
  WriteBuffer buf(8, 4);
  EXPECT_FALSE(buf.insert(5, 100, true));
  std::uint64_t token = 0;
  EXPECT_TRUE(buf.lookup(5, &token));
  EXPECT_EQ(token, 100u);
  EXPECT_FALSE(buf.lookup(6, &token));
}

TEST(WriteBuffer, OverwriteReportsHit) {
  WriteBuffer buf(8, 4);
  buf.insert(5, 100, true);
  EXPECT_TRUE(buf.insert(5, 200, false));
  std::uint64_t token = 0;
  buf.lookup(5, &token);
  EXPECT_EQ(token, 200u);
  EXPECT_EQ(buf.size(), 1u);
}

TEST(WriteBuffer, ExtractRunReturnsContiguousSorted) {
  WriteBuffer buf(16, 4);
  for (const std::uint64_t s : {3, 5, 4, 7, 10}) buf.insert(s, s * 10, true);
  const auto run = buf.extract_run(4);
  ASSERT_EQ(run.size(), 3u);
  EXPECT_EQ(run[0].sector, 3u);
  EXPECT_EQ(run[1].sector, 4u);
  EXPECT_EQ(run[2].sector, 5u);
  EXPECT_EQ(run[1].token, 40u);
  // Extracted entries are gone; others remain.
  EXPECT_EQ(buf.size(), 2u);
  EXPECT_TRUE(buf.lookup(7, nullptr));
}

TEST(WriteBuffer, ExtractRunMissingSectorEmpty) {
  WriteBuffer buf(8, 4);
  buf.insert(1, 1, true);
  EXPECT_TRUE(buf.extract_run(5).empty());
  EXPECT_EQ(buf.size(), 1u);
}

TEST(WriteBuffer, ExtractRunAtSectorZero) {
  WriteBuffer buf(8, 4);
  buf.insert(0, 7, true);
  buf.insert(1, 8, true);
  const auto run = buf.extract_run(0);
  ASSERT_EQ(run.size(), 2u);
  EXPECT_EQ(run[0].sector, 0u);
}

TEST(WriteBuffer, OldestRunIsLeastRecentlyWritten) {
  WriteBuffer buf(16, 4);
  buf.insert(100, 1, true);
  buf.insert(200, 2, true);
  buf.insert(100, 3, true);  // refresh 100: now 200 is oldest
  const auto run = buf.extract_oldest_run();
  ASSERT_EQ(run.size(), 1u);
  EXPECT_EQ(run[0].sector, 200u);
}

TEST(WriteBuffer, OldestRunIncludesNeighbors) {
  WriteBuffer buf(16, 4);
  buf.insert(50, 1, true);
  buf.insert(51, 2, true);
  buf.insert(90, 3, true);
  const auto run = buf.extract_oldest_run();
  ASSERT_EQ(run.size(), 2u);
  EXPECT_EQ(run[0].sector, 50u);
  EXPECT_EQ(run[1].sector, 51u);
}

TEST(WriteBuffer, OverCapacityFlag) {
  WriteBuffer buf(2, 4);
  buf.insert(1, 1, true);
  buf.insert(2, 2, true);
  EXPECT_FALSE(buf.over_capacity());
  buf.insert(3, 3, true);
  EXPECT_TRUE(buf.over_capacity());
}

TEST(WriteBuffer, EraseDropsEntry) {
  WriteBuffer buf(8, 4);
  buf.insert(5, 1, true);
  EXPECT_TRUE(buf.erase(5));
  EXPECT_FALSE(buf.erase(5));
  EXPECT_FALSE(buf.lookup(5, nullptr));
}

TEST(WriteBuffer, DrainReturnsEverythingOnce) {
  WriteBuffer buf(16, 4);
  for (std::uint64_t s = 0; s < 10; s += 2) buf.insert(s, s, s % 4 == 0);
  const auto all = buf.drain();
  EXPECT_EQ(all.size(), 5u);
  EXPECT_TRUE(buf.empty());
  EXPECT_TRUE(buf.drain().empty());
}

TEST(WriteBuffer, SmallFlagPreserved) {
  WriteBuffer buf(8, 4);
  buf.insert(1, 10, true);
  buf.insert(2, 20, false);
  const auto run = buf.extract_run(1);
  ASSERT_EQ(run.size(), 2u);
  EXPECT_TRUE(run[0].small);
  EXPECT_FALSE(run[1].small);
}

TEST(WriteBuffer, StaleAgeLogEntriesSkipped) {
  WriteBuffer buf(8, 4);
  buf.insert(1, 1, true);
  buf.insert(2, 2, true);
  buf.extract_run(1);       // removes 1 and 2
  buf.insert(3, 3, true);
  const auto run = buf.extract_oldest_run();  // must skip stale 1, 2
  ASSERT_EQ(run.size(), 1u);
  EXPECT_EQ(run[0].sector, 3u);
}

TEST(WriteBuffer, PageGroupPullsWholePages) {
  WriteBuffer buf(16, 4);
  // lpn 0 has sectors {1, 3}; lpn 1 has {4}; lpn 3 has {12} (gap at lpn 2).
  for (const std::uint64_t s : {1, 3, 4, 12}) buf.insert(s, s, true);
  const auto group = buf.extract_page_group(3);
  ASSERT_EQ(group.size(), 3u);  // lpns 0 and 1 chain; lpn 3 does not
  EXPECT_EQ(group[0].sector, 1u);
  EXPECT_EQ(group[1].sector, 3u);
  EXPECT_EQ(group[2].sector, 4u);
  EXPECT_TRUE(buf.lookup(12, nullptr));
}

TEST(WriteBuffer, PageGroupOfMissingSectorIsEmpty) {
  WriteBuffer buf(8, 4);
  buf.insert(0, 1, true);
  EXPECT_TRUE(buf.extract_page_group(9).empty());
}

TEST(WriteBuffer, OldestPageGroupFollowsAge) {
  WriteBuffer buf(16, 4);
  buf.insert(40, 1, true);  // lpn 10, oldest
  buf.insert(80, 2, true);  // lpn 20
  buf.insert(41, 3, true);  // lpn 10 again (same page as oldest)
  const auto group = buf.extract_oldest_page_group();
  ASSERT_EQ(group.size(), 2u);
  EXPECT_EQ(group[0].sector, 40u);
  EXPECT_EQ(group[1].sector, 41u);
}

TEST(WriteBuffer, PageGroupSortedWithinAndAcrossPages) {
  WriteBuffer buf(16, 4);
  for (const std::uint64_t s : {7, 5, 6, 4, 3, 0}) buf.insert(s, s, true);
  const auto group = buf.extract_page_group(5);
  ASSERT_EQ(group.size(), 6u);
  for (std::size_t i = 1; i < group.size(); ++i)
    EXPECT_LT(group[i - 1].sector, group[i].sector);
}

TEST(WriteBuffer, AgeLogBoundedUnderHotOverwrites) {
  // One hot sector rewritten a million times never leaves the buffer, so
  // the age log cannot rely on lazy front-pruning; compaction must keep it
  // proportional to the LIVE entry count.
  WriteBuffer buf(64, 4);
  for (std::uint64_t i = 0; i < 1'000'000; ++i) buf.insert(42, i + 1, true);
  EXPECT_EQ(buf.size(), 1u);
  EXPECT_LE(buf.age_log_size(), 2 * buf.size() + 16 + 1);
  // LRU order survives compaction: an older cold sector still drains first.
  buf.insert(7, 1, true);
  for (std::uint64_t i = 0; i < 100; ++i) buf.insert(42, i, true);
  const auto oldest = buf.extract_oldest_run();
  ASSERT_EQ(oldest.size(), 1u);
  EXPECT_EQ(oldest[0].sector, 7u);
}


TEST(WriteBuffer, RejectsBadPageSize) {
  EXPECT_THROW(WriteBuffer(8, 0), std::invalid_argument);
  EXPECT_THROW(WriteBuffer(8, nand::kMaxSubpagesPerPage + 1),
               std::invalid_argument);
}

TEST(WriteBuffer, RunCrossesPageBoundariesBothWays) {
  WriteBuffer buf(64, 4);
  // Sectors 2..13 span pages 0-3; extracting from the middle must walk
  // down across two page boundaries and up across one.
  for (std::uint64_t s = 2; s <= 13; ++s) buf.insert(s, s, s % 2 == 0);
  buf.insert(15, 15, true);
  const auto run = buf.extract_run(9);
  ASSERT_EQ(run.size(), 12u);
  for (std::size_t i = 0; i < run.size(); ++i) {
    EXPECT_EQ(run[i].sector, 2 + i);
    EXPECT_EQ(run[i].small, (2 + i) % 2 == 0);
  }
  EXPECT_EQ(buf.size(), 1u);
}

TEST(WriteBuffer, StreamingEvictionKeepsAgeLogBounded) {
  // A million ascending inserts with capacity eviction: the consumer
  // drains the log from the front while inserts append at the back. With
  // a stride of two pages no page group chains, each eviction takes one
  // sector, and stale entries never outnumber live ones, so the stale:live
  // compaction never runs: the consumed prefix must be reclaimed or the
  // log's storage grows with every insert. Stride 1 (one long chain per
  // eviction) covers the compaction-driven side.
  for (const std::uint64_t stride : {1u, 8u}) {
    WriteBuffer buf(512, 4);
    std::size_t max_log = 0;
    for (std::uint64_t i = 0; i < 1'000'000; ++i) {
      buf.insert(i * stride, i + 1, false);
      while (buf.over_capacity()) {
        const auto& victim = buf.extract_oldest_page_group();
        ASSERT_FALSE(victim.empty());
      }
      max_log = std::max(max_log, buf.age_log_size());
    }
    EXPECT_LE(buf.size(), 512u) << "stride " << stride;
    EXPECT_LE(max_log, 4 * 512u + 64) << "stride " << stride;
  }
}

// ---- differential test against the original implementation --------------

std::string saved(const WriteBuffer& b) {
  std::ostringstream os;
  util::StateWriter w(os);
  b.save_state(w);
  return os.str();
}

std::string saved(const ref::RefWriteBuffer& b) {
  std::ostringstream os;
  util::StateWriter w(os);
  b.save_state(w);
  return os.str();
}

void expect_same(const std::vector<BufferedSector>& got,
                 const std::vector<BufferedSector>& want, std::uint64_t op) {
  ASSERT_EQ(got.size(), want.size()) << "op " << op;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].sector, want[i].sector) << "op " << op << " #" << i;
    ASSERT_EQ(got[i].token, want[i].token) << "op " << op << " #" << i;
    ASSERT_EQ(got[i].small, want[i].small) << "op " << op << " #" << i;
  }
}

/// Seeded random op stream applied to both buffers. Sectors cluster in a
/// narrow window starting at sector 0 so runs and page groups are long,
/// touch sector 0 and straddle page boundaries.
void run_differential(std::uint32_t spp, std::uint64_t seed,
                      std::uint64_t ops) {
  const std::size_t capacity = 48;
  WriteBuffer buf(capacity, spp);
  ref::RefWriteBuffer want(capacity);
  util::Xoshiro256 rng(seed);
  const std::uint64_t window = 24 * spp;
  std::uint64_t token = 0;
  for (std::uint64_t op = 0; op < ops; ++op) {
    const std::uint64_t sector = rng.below(window);
    const std::uint64_t kind = rng.below(100);
    if (kind < 55) {
      // Insert a short burst, as a host request would.
      const std::uint64_t len = 1 + rng.below(2 * spp);
      const bool small = len < spp;
      for (std::uint64_t s = sector; s < sector + len; ++s) {
        ++token;
        ASSERT_EQ(buf.insert(s, token, small), want.insert(s, token, small))
            << "op " << op;
      }
    } else if (kind < 65) {
      std::uint64_t a = 0, b = 0;
      ASSERT_EQ(buf.lookup(sector, &a), want.lookup(sector, &b));
      ASSERT_EQ(a, b);
    } else if (kind < 70) {
      ASSERT_EQ(buf.erase(sector), want.erase(sector)) << "op " << op;
    } else if (kind < 77) {
      expect_same(buf.extract_run(sector), want.extract_run(sector), op);
    } else if (kind < 84) {
      expect_same(buf.extract_page_group(sector),
                  want.extract_page_group(sector, spp), op);
    } else if (kind < 89) {
      expect_same(buf.extract_oldest_run(), want.extract_oldest_run(), op);
    } else if (kind < 96) {
      expect_same(buf.extract_oldest_page_group(),
                  want.extract_oldest_page_group(spp), op);
    } else if (kind < 97) {
      expect_same(buf.drain(), want.drain(), op);
    } else {
      // Capacity eviction, as the FTLs run it.
      while (want.over_capacity()) {
        ASSERT_TRUE(buf.over_capacity());
        expect_same(buf.extract_oldest_page_group(),
                    want.extract_oldest_page_group(spp), op);
      }
    }
    ASSERT_EQ(buf.size(), want.size()) << "op " << op;
    ASSERT_EQ(buf.over_capacity(), want.over_capacity());
    if (op % 64 == 0 || kind >= 96) {
      ASSERT_EQ(saved(buf), saved(want)) << "op " << op;
    }
  }
  ASSERT_EQ(saved(buf), saved(want));

  // A restored buffer continues exactly like the original.
  std::istringstream is(saved(buf));
  util::StateReader r(is);
  WriteBuffer restored(capacity, spp);
  restored.load_state(r);
  ASSERT_EQ(saved(restored), saved(want));
  expect_same(restored.drain(), want.drain(), ops);
}

TEST(WriteBuffer, MatchesReferenceFourSectorPages) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed)
    run_differential(4, seed, 40'000);
}

TEST(WriteBuffer, MatchesReferenceEightSectorPages) {
  for (std::uint64_t seed = 11; seed <= 14; ++seed)
    run_differential(8, seed, 40'000);
}

TEST(WriteBuffer, MatchesReferenceUnderHotOverwrites) {
  // Overwrite-heavy stream: exercises the stale:live compaction on both
  // sides, so their archived age logs must stay byte-identical.
  WriteBuffer buf(64, 4);
  ref::RefWriteBuffer want(64);
  util::Xoshiro256 rng(5);
  for (std::uint64_t i = 0; i < 20'000; ++i) {
    const std::uint64_t s = rng.below(6);
    ASSERT_EQ(buf.insert(s, i, i % 3 == 0), want.insert(s, i, i % 3 == 0));
    if (i % 1000 == 999)
      expect_same(buf.extract_oldest_run(), want.extract_oldest_run(), i);
    ASSERT_EQ(saved(buf), saved(want)) << i;
  }
}

}  // namespace
}  // namespace esp::ftl
