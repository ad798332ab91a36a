/**
 * @file
 * Cache model tests: hit/miss behavior, LRU replacement, write-back
 * state, and fill/victim mechanics.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "common/random.hh"
#include "cpu/cache.hh"

using namespace mcsim;

namespace {

CacheConfig
tiny()
{
    // 2 sets x 2 ways x 64 B = 256 B.
    return CacheConfig{256, 2, 64};
}

} // namespace

TEST(Cache, MissThenFillThenHit)
{
    Cache c(tiny());
    EXPECT_FALSE(c.access(0x0, false));
    c.fill(0x0, false);
    EXPECT_TRUE(c.access(0x0, false));
    EXPECT_EQ(c.stats().accesses, 2u);
    EXPECT_EQ(c.stats().misses, 1u);
}

TEST(Cache, SetIndexingSeparatesSets)
{
    Cache c(tiny());
    c.fill(0x00, false); // Set 0.
    c.fill(0x40, false); // Set 1.
    EXPECT_TRUE(c.contains(0x00));
    EXPECT_TRUE(c.contains(0x40));
}

TEST(Cache, LruEvictsLeastRecentlyUsed)
{
    Cache c(tiny());
    // Set 0 holds blocks whose addresses differ by 2 blocks (0x80).
    c.fill(0x000, false);
    c.fill(0x080, false);
    c.access(0x000, false); // Touch; 0x080 becomes LRU.
    const auto res = c.fill(0x100, false);
    EXPECT_TRUE(res.victimValid);
    EXPECT_EQ(res.victimAddr, 0x080u);
    EXPECT_TRUE(c.contains(0x000));
    EXPECT_FALSE(c.contains(0x080));
}

TEST(Cache, DirtyVictimReportsWriteback)
{
    Cache c(tiny());
    c.fill(0x000, true); // Dirty.
    c.fill(0x080, false);
    const auto res = c.fill(0x100, false); // Evicts dirty 0x000.
    EXPECT_TRUE(res.victimValid);
    EXPECT_TRUE(res.victimDirty);
    EXPECT_EQ(res.victimAddr, 0x000u);
    EXPECT_EQ(c.stats().writebacks, 1u);
}

TEST(Cache, WriteAccessMarksDirty)
{
    Cache c(tiny());
    c.fill(0x000, false);
    c.access(0x000, true); // Store hit dirties the line.
    c.fill(0x080, false);
    const auto res = c.fill(0x100, false);
    EXPECT_TRUE(res.victimDirty);
}

TEST(Cache, FillExistingBlockUpdatesInsteadOfDuplicating)
{
    Cache c(tiny());
    c.fill(0x000, false);
    const auto res = c.fill(0x000, true); // Racing fill.
    EXPECT_FALSE(res.victimValid);
    c.fill(0x080, false);
    const auto evict = c.fill(0x100, false);
    // The single 0x000 line is dirty from the second fill.
    EXPECT_TRUE(evict.victimDirty);
}

TEST(Cache, InvalidateReturnsDirtiness)
{
    Cache c(tiny());
    c.fill(0x000, true);
    EXPECT_TRUE(c.invalidate(0x000));
    EXPECT_FALSE(c.contains(0x000));
    EXPECT_FALSE(c.invalidate(0x000)); // Already gone.
}

TEST(Cache, BlockAlignMasksOffset)
{
    Cache c(tiny());
    EXPECT_EQ(c.blockAlign(0x7F), 0x40u);
    EXPECT_EQ(c.blockAlign(0x40), 0x40u);
}

TEST(Cache, SubBlockAddressesHitSameLine)
{
    Cache c(tiny());
    c.fill(0x40, false);
    EXPECT_TRUE(c.access(0x47, false));
    EXPECT_TRUE(c.access(0x7F, false));
}

/** Property: working sets up to the cache size never self-evict. */
class CacheCapacity : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(CacheCapacity, ResidentWorkingSetAlwaysHits)
{
    const std::uint32_t ways = GetParam();
    CacheConfig cfg{8192, ways, 64};
    Cache c(cfg);
    const std::uint64_t blocks = cfg.sizeBytes / cfg.blockBytes;
    for (std::uint64_t b = 0; b < blocks; ++b)
        c.fill(b * 64, false);
    for (std::uint64_t b = 0; b < blocks; ++b)
        EXPECT_TRUE(c.access(b * 64, false)) << "block " << b;
}

INSTANTIATE_TEST_SUITE_P(Ways, CacheCapacity,
                         ::testing::Values(1u, 2u, 4u, 8u, 16u));

namespace {

/**
 * The replacement rule written the plain way: 64-bit block-number
 * tags, one global stamp per touch, and the victim is the
 * highest-index invalid way, else the way with the oldest stamp.
 */
class StampLruCache
{
  public:
    explicit StampLruCache(const CacheConfig &cfg)
        : cfg_(cfg), tags_(cfg.numSets() * cfg.ways, kInvalid),
          stamps_(tags_.size(), 0), dirty_(tags_.size(), false)
    {
    }

    bool
    access(Addr addr, bool isWrite)
    {
        ++stats.accesses;
        const std::size_t i = find(addr);
        if (i == kNone) {
            ++stats.misses;
            return false;
        }
        stamps_[i] = ++clock_;
        dirty_[i] = dirty_[i] || isWrite;
        return true;
    }

    CacheAccessResult
    fill(Addr addr, bool dirty)
    {
        CacheAccessResult res;
        if (const std::size_t i = find(addr); i != kNone) {
            stamps_[i] = ++clock_;
            dirty_[i] = dirty_[i] || dirty;
            return res;
        }
        const std::size_t base = setOf(addr) * cfg_.ways;
        std::size_t victim = base;
        for (std::size_t i = base; i < base + cfg_.ways; ++i) {
            if (tags_[i] == kInvalid)
                victim = i;
            else if (tags_[victim] != kInvalid &&
                     stamps_[i] < stamps_[victim])
                victim = i;
        }
        if (tags_[victim] != kInvalid) {
            res.victimValid = true;
            res.victimDirty = dirty_[victim];
            res.victimAddr = tags_[victim] * cfg_.blockBytes;
            stats.writebacks += res.victimDirty;
        }
        tags_[victim] = addr / cfg_.blockBytes;
        stamps_[victim] = ++clock_;
        dirty_[victim] = dirty;
        return res;
    }

    bool
    invalidate(Addr addr)
    {
        const std::size_t i = find(addr);
        if (i == kNone)
            return false;
        tags_[i] = kInvalid;
        return dirty_[i];
    }

    bool contains(Addr addr) const { return find(addr) != kNone; }

    CacheStats stats;

  private:
    static constexpr std::uint64_t kInvalid = ~std::uint64_t{0};
    static constexpr std::size_t kNone = ~std::size_t{0};

    std::size_t
    setOf(Addr addr) const
    {
        return addr / cfg_.blockBytes % cfg_.numSets();
    }

    std::size_t
    find(Addr addr) const
    {
        const std::size_t base = setOf(addr) * cfg_.ways;
        for (std::size_t i = base; i < base + cfg_.ways; ++i) {
            if (tags_[i] == addr / cfg_.blockBytes)
                return i;
        }
        return kNone;
    }

    CacheConfig cfg_;
    std::vector<std::uint64_t> tags_;
    std::vector<std::uint64_t> stamps_;
    std::vector<bool> dirty_;
    std::uint64_t clock_ = 0;
};

} // namespace

/**
 * Property: the cache's replacement state (MRU bit, recency word,
 * 32-bit set-relative tags) makes exactly the stamp-LRU reference's
 * decisions, call by call, under a seeded mix of reads, writes, fills
 * and invalidations at every supported kind of set width.
 */
TEST(Cache, MatchesStampLruReference)
{
    for (const std::uint32_t ways : {1u, 2u, 4u, 8u, 16u}) {
        SCOPED_TRACE(testing::Message() << ways << " ways");
        const CacheConfig cfg{8ull * ways * 64, ways, 64}; // 8 sets.
        Cache cache(cfg);
        StampLruCache ref(cfg);
        Pcg32 rng(2026, ways);
        // Three blocks per cache line of capacity, half of them high
        // in the address space, so sets thrash and tags use many bits.
        const std::uint32_t blocks = 3 * 8 * ways;
        for (int n = 0; n < 40'000; ++n) {
            const Addr addr = Addr{rng.below(blocks)} * 64 + rng.below(64) +
                              (rng.chance(0.5) ? Addr{1} << 40 : 0);
            const bool write = rng.chance(0.3);
            const std::uint32_t pick = rng.below(100);
            SCOPED_TRACE(testing::Message()
                         << "call " << n << " pick " << pick << " addr 0x"
                         << std::hex << addr);
            if (pick < 55) {
                ASSERT_EQ(cache.access(addr, write),
                          ref.access(addr, write));
            } else if (pick < 70) {
                const bool hit = ref.contains(addr);
                if (hit)
                    ref.access(addr, write);
                ASSERT_EQ(cache.accessIfPresent(addr, write), hit);
            } else if (pick < 92) {
                const CacheAccessResult got = cache.fill(addr, write);
                const CacheAccessResult want = ref.fill(addr, write);
                ASSERT_EQ(got.hit, want.hit);
                ASSERT_EQ(got.victimValid, want.victimValid);
                ASSERT_EQ(got.victimDirty, want.victimDirty);
                ASSERT_EQ(got.victimAddr, want.victimAddr);
            } else {
                ASSERT_EQ(cache.invalidate(addr), ref.invalidate(addr));
            }
            ASSERT_EQ(cache.stats().accesses, ref.stats.accesses);
            ASSERT_EQ(cache.stats().misses, ref.stats.misses);
            ASSERT_EQ(cache.stats().writebacks, ref.stats.writebacks);
        }
    }
}

TEST(CacheDeathTest, RejectsSetsWiderThanSixteenWays)
{
    EXPECT_EXIT(Cache(CacheConfig{32 * 64, 32, 64}),
                ::testing::ExitedWithCode(1), "cache of 32 ways is wider");
}

TEST(CacheDeathTest, FillRejectsAddressBeyondTagRange)
{
    // tiny(): 64 B blocks, 2 sets, so tags hold address bits 7..38;
    // the all-ones tag marks an invalid way and is refused too.
    Cache c(tiny());
    c.fill((Addr{1} << 39) - 256, false); // Tag 2^32 - 2: the largest.
    EXPECT_TRUE(c.contains((Addr{1} << 39) - 256));
    EXPECT_DEATH(c.fill((Addr{1} << 39) - 128, false), "32-bit tag range");
    EXPECT_DEATH(c.fill(Addr{1} << 39, false), "32-bit tag range");
}
