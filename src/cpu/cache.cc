#include "cache.hh"

#include "common/log.hh"

namespace mcsim {

namespace {

/** One in every nibble of a recency word. */
constexpr std::uint64_t kNibbleOnes = 0x1111'1111'1111'1111ull;

} // namespace

Cache::Cache(const CacheConfig &cfg) : cfg_(cfg)
{
    mc_assert(isPowerOf2(cfg_.blockBytes), "block size must be 2^n");
    mc_assert(cfg_.numSets() >= 1 && isPowerOf2(cfg_.numSets()),
              "cache sets must be a positive power of two; size ",
              cfg_.sizeBytes, " ways ", cfg_.ways);
    if (cfg_.ways > kMaxWays) {
        mc_fatal("cache of ", cfg_.ways, " ways is wider than the ",
                 kMaxWays, " a set's recency word can order");
    }
    blockShift_ = floorLog2(cfg_.blockBytes);
    setMask_ = cfg_.numSets() - 1;
    tagShift_ = blockShift_ + floorLog2(cfg_.numSets());
    const std::size_t n = cfg_.numSets() * cfg_.ways;
    tags_.assign(n, kNoTag);
    dirty_.assign(n, 0);
    if (cfg_.ways == 2) {
        mru_.assign(cfg_.numSets(), 0); // Unobservable until both ways
                                        // fill; invalid ways are always
                                        // preferred victims.
    } else {
        // Way i in nibble i: any permutation would do (see order_).
        order_.assign(cfg_.numSets(), 0xFEDC'BA98'7654'3210ull);
    }
}

void
Cache::touch(std::size_t set, std::uint32_t way)
{
    // SWAR search: way's nibble is the lowest zero nibble of x, and the
    // zero test flags no nibble below the first zero one.
    const std::uint64_t word = order_[set];
    const std::uint64_t x = word ^ kNibbleOnes * way;
    const std::uint64_t zero = (x - kNibbleOnes) & ~x & kNibbleOnes << 3;
    const unsigned pos = static_cast<unsigned>(__builtin_ctzll(zero)) & ~3u;
    // The ways more recent than it shift back one nibble; it goes first.
    const std::uint64_t newer = (std::uint64_t{1} << pos) - 1;
    order_[set] = (word & ~(newer << 4 | 0xF)) | (word & newer) << 4 | way;
}

bool
Cache::hitScan(std::uint32_t tag, std::size_t set, bool isWrite)
{
    const std::size_t base = set * cfg_.ways;
    for (std::uint32_t w = 0; w < cfg_.ways; ++w) {
        if (tags_[base + w] == tag) {
            markDirty(base + w, isWrite);
            touch(set, w);
            return true;
        }
    }
    return false;
}

CacheAccessResult
Cache::evict(std::size_t set, std::size_t victim, std::uint32_t tag,
             bool dirty)
{
    CacheAccessResult res;
    if (tags_[victim] != kNoTag) {
        res.victimValid = true;
        res.victimDirty = dirty_[victim] != 0;
        res.victimAddr = addrOf(tags_[victim], set);
        if (res.victimDirty)
            ++stats_.writebacks;
    }
    tags_[victim] = tag;
    dirty_[victim] = static_cast<std::uint8_t>(dirty);
    return res;
}

CacheAccessResult
Cache::fill2Way(std::uint32_t tag, std::size_t set, bool dirty)
{
    const std::size_t base = set * 2;
    for (std::size_t w = 0; w < 2; ++w) {
        if (tags_[base + w] == tag) {
            // Already present (e.g. racing fills); just update state.
            dirty_[base + w] |= static_cast<std::uint8_t>(dirty);
            mru_[set] = static_cast<std::uint8_t>(w);
            return {};
        }
    }
    // Victim: an invalid way first (way 1 preferred, matching the wide
    // path's highest-invalid-wins order), else the non-MRU way —
    // which for two ways is exactly the least recently used.
    std::size_t w;
    if (tags_[base + 1] == kNoTag)
        w = 1;
    else if (tags_[base] == kNoTag)
        w = 0;
    else
        w = mru_[set] ^ 1u;
    mru_[set] = static_cast<std::uint8_t>(w);
    return evict(set, base + w, tag, dirty);
}

CacheAccessResult
Cache::fill(Addr addr, bool dirty)
{
    mc_assert(addr >> tagShift_ < kNoTag, "address ", addr,
              " is beyond the cache's 32-bit tag range");
    const std::uint32_t tag = tagOf(addr);
    const std::size_t set = setIndex(addr);
    if (cfg_.ways == 2)
        return fill2Way(tag, set, dirty);
    const std::size_t base = set * cfg_.ways;
    // Victim: the highest-index invalid way, else the LRU way.
    std::uint32_t victim = kMaxWays;
    for (std::uint32_t w = 0; w < cfg_.ways; ++w) {
        if (tags_[base + w] == tag) {
            // Already present (e.g. racing fills); just update state.
            dirty_[base + w] |= static_cast<std::uint8_t>(dirty);
            touch(set, w);
            return {};
        }
        if (tags_[base + w] == kNoTag)
            victim = w;
    }
    if (victim == kMaxWays) {
        const unsigned lru = 4 * (cfg_.ways - 1);
        victim = static_cast<std::uint32_t>(order_[set] >> lru) & 0xF;
    }
    touch(set, victim);
    return evict(set, base + victim, tag, dirty);
}

bool
Cache::invalidate(Addr addr)
{
    const std::uint32_t tag = tagOf(addr);
    const std::size_t base = setIndex(addr) * cfg_.ways;
    for (std::uint32_t w = 0; w < cfg_.ways; ++w) {
        const std::size_t i = base + w;
        if (tags_[i] == tag) {
            tags_[i] = kNoTag;
            return dirty_[i] != 0;
        }
    }
    return false;
}

} // namespace mcsim
