/**
 * @file
 * The on-chip memory hierarchy: per-core L1 I/D caches, a shared
 * banked L2 (the LLC in the scale-out pod design), L2 MSHRs with miss
 * merging, and the interface to the memory controllers.
 *
 * Modeled latencies are charged by the cores (L2 hit latency includes
 * the crossbar traversal); this class tracks state transitions and
 * traffic. Coherence is not modeled: the workloads are synthetic
 * address streams, so stale values are unobservable; sharing-induced
 * memory traffic is instead captured by the generators' shared
 * regions. The paper varies only memory-side parameters, so this
 * keeps the processor-side model stable across all experiments.
 */

#ifndef CLOUDMC_CPU_HIERARCHY_HH
#define CLOUDMC_CPU_HIERARCHY_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "cache.hh"
#include "common/types.hh"

namespace mcsim {

/** What a core access hit or did. */
enum class AccessOutcome : std::uint8_t {
    L1Hit,      ///< Served by the core's L1.
    L2Hit,      ///< L1 miss, LLC hit: core stalls for the L2 latency.
    Miss,       ///< LLC miss: a new memory read was issued.
    MergedMiss, ///< LLC miss merged into an outstanding MSHR.
};

/** Which pipeline event is waiting on a returning miss. */
enum class MissKind : std::uint8_t { Load, Store, Ifetch };

/** Hierarchy configuration (paper Table 2 defaults). */
struct HierarchyConfig
{
    CacheConfig l1i{32 * 1024, 2, 64};
    CacheConfig l1d{32 * 1024, 2, 64};
    CacheConfig l2{4 * 1024 * 1024, 16, 64};
    std::uint32_t l2Banks = 4;
};

/** Hierarchy traffic statistics. */
struct HierarchyStats
{
    std::uint64_t l2DemandMisses = 0; ///< Including merged misses.
    std::uint64_t memReads = 0;       ///< Read requests sent to DRAM.
    std::uint64_t memWritebacks = 0;  ///< Dirty L2 victims to DRAM.

    void reset() { *this = HierarchyStats{}; }
};

/**
 * Two-level cache hierarchy shared by all cores.
 *
 * The owner wires up sendMemRead/sendMemWrite to the memory
 * controllers and calls onMemResponse() when read data returns; the
 * hierarchy then fills the caches and notifies each waiting core via
 * the wake callback.
 */
class CacheHierarchy
{
  public:
    /** (coreId, addr) -> issue a DRAM read/write for the block. */
    using SendMemFn = std::function<void(CoreId, Addr)>;
    /** (coreId, kind) -> a miss this core was waiting on returned. */
    using WakeFn = std::function<void(CoreId, MissKind)>;

    CacheHierarchy(std::uint32_t numCores, const HierarchyConfig &cfg);

    void setSendMemRead(SendMemFn fn) { sendMemRead_ = std::move(fn); }
    void setSendMemWrite(SendMemFn fn) { sendMemWrite_ = std::move(fn); }
    void setWake(WakeFn fn) { wake_ = std::move(fn); }

    /** A data load from @p core. */
    AccessOutcome
    load(CoreId core, Addr addr)
    {
        Cache &l1 = *l1d_[core];
        const Addr blockAddr = l1.blockAlign(addr);
        if (l1.access(blockAddr, false))
            return AccessOutcome::L1Hit;
        return missToL2(core, blockAddr, MissKind::Load, false);
    }

    /** A data store from @p core (write-allocate; never blocks here). */
    AccessOutcome
    store(CoreId core, Addr addr)
    {
        Cache &l1 = *l1d_[core];
        const Addr blockAddr = l1.blockAlign(addr);
        if (l1.access(blockAddr, true))
            return AccessOutcome::L1Hit;
        return missToL2(core, blockAddr, MissKind::Store, true);
    }

    /** An instruction fetch from @p core. */
    AccessOutcome
    ifetch(CoreId core, Addr addr)
    {
        Cache &l1 = *l1i_[core];
        const Addr blockAddr = l1.blockAlign(addr);
        if (l1.access(blockAddr, false))
            return AccessOutcome::L1Hit;
        return missToL2(core, blockAddr, MissKind::Ifetch, false);
    }

    /**
     * Host-side prefetch of the L2 set @p addr maps to (see
     * Cache::prefetchSet). Called when a batched core latches an
     * access that will reach the L2 at its next ordered tick.
     */
    void l2Prefetch(Addr addr) const { l2_->prefetchSet(addr); }

    /** DRAM read data for @p blockAddr returned (requested by core). */
    void onMemResponse(CoreId core, Addr blockAddr);

    /** Outstanding MSHR entries (for tests). */
    std::size_t outstandingMisses() const { return mshrs_.size(); }

    Cache &l1i(CoreId c) { return *l1i_[c]; }
    Cache &l1d(CoreId c) { return *l1d_[c]; }
    Cache &l2() { return *l2_; }

    HierarchyStats &stats() { return stats_; }
    const HierarchyStats &stats() const { return stats_; }

    void
    resetStats()
    {
        stats_.reset();
        for (auto &c : l1i_)
            c->stats().reset();
        for (auto &c : l1d_)
            c->stats().reset();
        l2_->stats().reset();
    }

  private:
    struct Waiter
    {
        CoreId core;
        MissKind kind;
    };

    /** Handle an L1 miss: L2 lookup, MSHR allocation/merge. */
    AccessOutcome missToL2(CoreId core, Addr blockAddr, MissKind kind,
                           bool isWrite);
    void writebackToMemory(CoreId core, Addr blockAddr);

    std::vector<std::unique_ptr<Cache>> l1i_;
    std::vector<std::unique_ptr<Cache>> l1d_;
    std::unique_ptr<Cache> l2_;
    // MSHRs are looked up/erased by block address (hierarchy.cc).
    // detlint-allow(unordered-iter): never iterated
    std::unordered_map<Addr, std::vector<Waiter>> mshrs_;

    SendMemFn sendMemRead_;
    SendMemFn sendMemWrite_;
    WakeFn wake_;
    HierarchyStats stats_;
};

} // namespace mcsim

#endif // CLOUDMC_CPU_HIERARCHY_HH
