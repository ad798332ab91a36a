/**
 * @file
 * In-order core model, following the scale-out pod design point the
 * paper adopts from Lotfi-Kamran et al.: single-issue in-order cores
 * whose memory-level parallelism is limited to a small window of
 * outstanding load misses (1 for truly blocking cores).
 *
 * Timing model per core cycle:
 *  - instruction fetch: one L1I access per fetch block (blockBytes /
 *    4-byte instructions); an L1I miss stalls the front end until the
 *    line returns.
 *  - L1D hits are pipelined (no stall). LLC hits stall the core for
 *    the round-trip latency (crossbar + bank access).
 *  - LLC load misses occupy an MLP window slot; the core stalls when
 *    the window is full (window = 1 models a blocking core).
 *  - Stores retire into a finite store buffer and never stall the
 *    core unless the buffer is full of outstanding fills.
 *
 * Execution is batched where that is provably unobservable: after its
 * globally ordered tick() a core may pre-execute a run of future
 * cycles (runBatch) as long as every instruction in the run touches
 * only core-private state — L1 hits, compute commits, per-core
 * generator draws. Anything that reaches the shared L2, the shared
 * streaming frontier, or depends on in-flight fills ends the run and
 * executes at its exact cycle in the global core-ID order, so results
 * stay bit-identical to the per-cycle reference kernel.
 */

#ifndef CLOUDMC_CPU_CORE_HH
#define CLOUDMC_CPU_CORE_HH

#include <cstdint>

#include "common/types.hh"
#include "hierarchy.hh"
#include "workload/workload.hh"

namespace mcsim {

/** Core timing parameters. */
struct CoreConfig
{
    std::uint32_t mlpWindow = 1;          ///< Outstanding load misses.
    std::uint32_t storeBufferEntries = 8; ///< Outstanding store fills.
    std::uint32_t l2HitLatency = 15;      ///< Core cycles, incl. xbar.
    std::uint32_t instrsPerFetchBlock = 16; ///< 64 B / 4 B instructions.
};

/** Core statistics over a measurement window. */
struct CoreStats
{
    std::uint64_t committedInstructions = 0;
    std::uint64_t cycles = 0;
    std::uint64_t loadMissStallCycles = 0;
    std::uint64_t fetchStallCycles = 0;

    double
    ipc() const
    {
        return cycles ? static_cast<double>(committedInstructions) /
                            static_cast<double>(cycles)
                      : 0.0;
    }

    void reset() { *this = CoreStats{}; }
};

/** Cycle-index sentinel: the core only wakes via missReturned(). */
constexpr CoreCycle kNeverCycle = CoreCycle::max();

/** One in-order core. */
class Core
{
  public:
    Core(CoreId id, WorkloadGenerator &gen, CacheHierarchy &hierarchy,
         const CoreConfig &cfg);

    /** Advance one core cycle. */
    void tick();

    /**
     * Account the cycles in [syncedCycles(), cycle) during which this
     * core was provably inactive — pure stall-counter decrements or
     * blocked-on-miss bookkeeping, exactly as tick() would have done.
     * The event kernel calls this instead of ticking idle cores; it
     * must run before any state change (missReturned) or real tick.
     * A no-op for cores that batched ahead of the global cycle count.
     */
    void catchUpTo(CoreCycle cycle);

    /**
     * Batched execution: starting from the just-ticked state, execute
     * the run of upcoming cycles whose instructions are provably
     * core-private — L1I/L1D hits (one lookup each, which changes
     * nothing on a miss), compute-run commits, and workload draws the
     * generator confirms touch no shared state. The run ends at the
     * first instruction that would reach the L2 or the shared
     * streaming frontier (it stays latched for this core's next
     * ordered tick), at any stall or block, or at @p limit (the last
     * core cycle of the current advance window, so statistics windows
     * close identically to the reference kernel). Never runs while a
     * miss is in flight: returning fills mutate the L1s, so pre-read
     * tags could go stale mid-run.
     *
     * Returns the number of cycles executed, 0 when nothing batched.
     */
    std::uint64_t runBatch(CoreCycle limit);

    /**
     * First cycle index >= syncedCycles() at which tick() would do
     * anything beyond deterministic bookkeeping: stall-counter
     * decrements, blocked-on-miss accounting, or the committing tail
     * of a compute run (which touches neither the workload generator
     * nor the caches until the run or the fetch credits are spent).
     * kNeverCycle while the core can only be unblocked by a returning
     * miss.
     */
    CoreCycle
    nextActCycle() const
    {
        if (x_.blockedOnFetch || x_.blockedOnLoads || x_.blockedOnStores)
            return kNeverCycle;
        std::uint64_t run = 0;
        if (x_.computeRemaining > 0) {
            run = x_.computeRemaining < x_.fetchCredits
                      ? x_.computeRemaining
                      : x_.fetchCredits;
        }
        return CoreCycle{x_.synced + x_.stallCyclesLeft + run};
    }

    /** Cycles executed or accounted so far (the catch-up frontier). */
    CoreCycle syncedCycles() const { return CoreCycle{x_.synced}; }

    /** A miss this core was waiting on has been filled. */
    void missReturned(MissKind kind);

    CoreId id() const { return id_; }
    CoreStats &stats() { return stats_; }
    const CoreStats &stats() const { return stats_; }
    void resetStats() { stats_.reset(); }

    /** True when the core cannot make progress this cycle (tests). */
    bool
    isStalled() const
    {
        return x_.blockedOnFetch || x_.blockedOnLoads ||
               x_.blockedOnStores || x_.stallCyclesLeft > 0;
    }

  private:
    void commit(std::uint32_t n = 1);
    void doFetch();
    void executeOp();

    /**
     * Everything tick() and runBatch() touch every cycle, packed into
     * one struct (one or two host cache lines) instead of scattering
     * across the object. The cross-core arrays the kernel scans every
     * boundary (next-due cycles) live structure-of-arrays in System.
     */
    struct ExecState
    {
        std::uint32_t stallCyclesLeft = 0; ///< Fixed-latency stalls.
        std::uint32_t fetchCredits = 0; ///< Instructions fetched, uncommitted.
        std::uint32_t computeRemaining = 0;
        std::uint32_t outstandingLoads = 0;
        std::uint32_t outstandingStores = 0;
        bool blockedOnFetch = false;
        bool blockedOnLoads = false;
        bool blockedOnStores = false;
        /** pendingOp holds a generator op pulled by runBatch() but not
         *  executable there (its access leaves the L1); the next
         *  ordered tick executes it. Same for pendingFetch. */
        bool opPending = false;
        bool fetchPending = false;
        std::uint64_t synced = 0; ///< Cycles executed or lazily accounted.
        Op pendingOp{};
        Addr pendingFetch = 0;
    };

    CoreId id_;
    WorkloadGenerator &gen_;
    CacheHierarchy &hierarchy_;
    CoreConfig cfg_;

    ExecState x_;

    CoreStats stats_;
};

} // namespace mcsim

#endif // CLOUDMC_CPU_CORE_HH
