/**
 * @file
 * A set-associative, write-back, write-allocate cache model with true
 * LRU replacement. Tag state only — no data values are modeled.
 *
 * The lookup paths (access / accessIfPresent) live in this header so
 * the cores' per-instruction loops inline them; misses and fills stay
 * out of line. Layout is structure-of-arrays: 32-bit set-relative
 * tags and a dirty byte per way, plus one replacement word per set —
 * an MRU bit for 2 ways, a packed recency order for wider sets.
 */

#ifndef CLOUDMC_CPU_CACHE_HH
#define CLOUDMC_CPU_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/bitutils.hh"
#include "common/types.hh"

namespace mcsim {

/** Geometry of one cache level. */
struct CacheConfig
{
    std::uint64_t sizeBytes = 32 * 1024;
    std::uint32_t ways = 2;
    std::uint32_t blockBytes = 64;

    std::uint64_t
    numSets() const
    {
        return sizeBytes / (static_cast<std::uint64_t>(ways) * blockBytes);
    }
};

/** Result of a cache access or fill. */
struct CacheAccessResult
{
    bool hit = false;
    bool victimValid = false; ///< A block was evicted by the fill.
    bool victimDirty = false; ///< ... and it needs a writeback.
    Addr victimAddr = 0;      ///< Block address of the victim.
};

/** Cache statistics. */
struct CacheStats
{
    std::uint64_t accesses = 0;
    std::uint64_t misses = 0;
    std::uint64_t writebacks = 0;

    double
    missRate() const
    {
        return accesses ? static_cast<double>(misses) /
                              static_cast<double>(accesses)
                        : 0.0;
    }

    void reset() { *this = CacheStats{}; }
};

/** Tag-array cache model. */
class Cache
{
  public:
    /** Widest set: its recency word holds one 4-bit way id per way. */
    static constexpr std::uint32_t kMaxWays = 16;

    explicit Cache(const CacheConfig &cfg);

    /**
     * Look up @p addr; on a hit, update LRU and dirty state. Does NOT
     * allocate on miss — callers decide when the fill happens (after
     * the lower level responds). @p isWrite marks the block dirty.
     */
    bool
    access(Addr addr, bool isWrite)
    {
        ++stats_.accesses;
        if (touchIfPresent(addr, isWrite))
            return true;
        ++stats_.misses;
        return false;
    }

    /**
     * access() that only hits: a hit updates LRU, dirty state and
     * stats exactly as access() does; a miss changes nothing, so the
     * same access can still run later as a plain access(). The batched
     * core loop's single lookup per core-private L1 access.
     */
    bool
    accessIfPresent(Addr addr, bool isWrite)
    {
        if (!touchIfPresent(addr, isWrite))
            return false;
        ++stats_.accesses;
        return true;
    }

    /**
     * Insert the block for @p addr, evicting the LRU way if the set is
     * full. Returns victim information for writeback handling.
     */
    CacheAccessResult fill(Addr addr, bool dirty);

    /** Probe without disturbing LRU or stats. */
    bool
    contains(Addr addr) const
    {
        const std::uint32_t tag = tagOf(addr);
        const std::size_t base = setIndex(addr) * cfg_.ways;
        for (std::uint32_t w = 0; w < cfg_.ways; ++w) {
            if (tags_[base + w] == tag)
                return true;
        }
        return false;
    }

    /**
     * Host-side prefetch of @p addr's tag set. Semantics-free: a pure
     * hint to the host CPU so a lookup known to happen soon (a latched
     * batch-breaking access) finds the tag lines already cached. The
     * simulated tag store dwarfs the host's caches, so the later scan
     * would otherwise stall on host memory.
     */
    void
    prefetchSet(Addr addr) const
    {
        const std::size_t set = setIndex(addr);
        const std::size_t base = set * cfg_.ways;
        // A row of 16 tags is 64 bytes but need not start a host line.
        __builtin_prefetch(&tags_[base]);
        __builtin_prefetch(&tags_[base + cfg_.ways - 1]);
        if (!order_.empty())
            __builtin_prefetch(&order_[set]);
    }

    /** Invalidate the block if present; returns true if it was dirty. */
    bool invalidate(Addr addr);

    const CacheConfig &config() const { return cfg_; }
    CacheStats &stats() { return stats_; }
    const CacheStats &stats() const { return stats_; }

    /** Block-align an address. */
    Addr
    blockAlign(Addr addr) const
    {
        return addr & ~static_cast<Addr>(cfg_.blockBytes - 1);
    }

  private:
    /** Tag value marking an invalid way. fill() refuses any address
     *  whose tag would reach it, so every resident tag is exact. */
    static constexpr std::uint32_t kNoTag = ~std::uint32_t{0};

    std::size_t
    setIndex(Addr addr) const
    {
        return static_cast<std::size_t>((addr >> blockShift_) & setMask_);
    }

    /** Set-relative tag: the block number above the set-index bits. */
    std::uint32_t
    tagOf(Addr addr) const
    {
        return static_cast<std::uint32_t>(addr >> tagShift_);
    }

    /** Block address of the tag @p tag resident in set @p set. */
    Addr
    addrOf(std::uint32_t tag, std::size_t set) const
    {
        return static_cast<Addr>(tag) << tagShift_ |
               static_cast<Addr>(set) << blockShift_;
    }

    void
    markDirty(std::size_t i, bool isWrite)
    {
        dirty_[i] |= static_cast<std::uint8_t>(isWrite);
    }

    /** The hit half of access(): LRU and dirty updates, no stats. */
    bool
    touchIfPresent(Addr addr, bool isWrite)
    {
        const std::uint32_t tag = tagOf(addr);
        const std::size_t set = setIndex(addr);
        if (cfg_.ways == 2) {
            // Two tag compares; the MRU bit is the whole LRU order.
            const std::size_t base = set * 2;
            std::size_t w;
            if (tags_[base] == tag)
                w = 0;
            else if (tags_[base + 1] == tag)
                w = 1;
            else
                return false;
            mru_[set] = static_cast<std::uint8_t>(w);
            markDirty(base + w, isWrite);
            return true;
        }
        // The recency word's first nibble is the most recent way: a
        // hit there leaves the order as it is.
        const std::size_t mru = set * cfg_.ways + (order_[set] & 0xF);
        if (tags_[mru] == tag) {
            markDirty(mru, isWrite);
            return true;
        }
        return hitScan(tag, set, isWrite);
    }

    bool hitScan(std::uint32_t tag, std::size_t set, bool isWrite);
    void touch(std::size_t set, std::uint32_t way);
    CacheAccessResult fill2Way(std::uint32_t tag, std::size_t set,
                               bool dirty);
    CacheAccessResult evict(std::size_t set, std::size_t victim,
                            std::uint32_t tag, bool dirty);

    CacheConfig cfg_;
    unsigned blockShift_;
    unsigned tagShift_; ///< blockShift_ plus the set-index bits.
    std::uint64_t setMask_;
    // Structure-of-arrays tag store: a hit reads the tag row (one or
    // two host lines for 16 ways), the set's replacement word and the
    // way's dirty byte.
    std::vector<std::uint32_t> tags_; ///< sets x ways; kNoTag = invalid.
    std::vector<std::uint8_t> dirty_; ///< Dirty flags, same indexing.
    /** 2 ways: true LRU is one MRU bit per set; mru_[set] is the
     *  last-touched way. */
    std::vector<std::uint8_t> mru_;
    /**
     * Wider sets (and 1 way): one recency word per set, 4-bit way ids
     * most recent first. The first nibble is the hit hint, nibble
     * ways-1 the LRU victim. Never-touched ways are invalid, and an
     * invalid way is always the preferred victim, so their order in
     * the initial word never shows.
     */
    std::vector<std::uint64_t> order_;
    CacheStats stats_;
};

} // namespace mcsim

#endif // CLOUDMC_CPU_CACHE_HH
