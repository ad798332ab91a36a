/**
 * @file
 * Statistical workload synthesis.
 *
 * The paper drives its study with full-system CloudSuite / TPC / SPEC
 * traffic. Those stacks are not reproducible offline, so cloudmc
 * substitutes a region-mixture model: each data access picks a region
 * (hot cacheable set, streaming buffers, cold random heap, ...) and an
 * address within it, and the real cache hierarchy filters the stream.
 * The presets in presets.hh are calibrated so the FR-FCFS / OAPM /
 * 1-channel baseline reproduces each workload's published row-buffer
 * hit rate, L2 MPKI, single-access activation fraction, and bandwidth
 * utilization, as read off the paper's figures: example_characterize
 * (examples/characterize.cpp) prints those targets next to the
 * measured values.
 */

#ifndef CLOUDMC_WORKLOAD_SYNTHETIC_HH
#define CLOUDMC_WORKLOAD_SYNTHETIC_HH

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/random.hh"
#include "common/types.hh"
#include "workload.hh"

namespace mcsim {

/** Workload categories, paper Table 1. */
enum class WorkloadCategory : std::uint8_t {
    ScaleOut,        ///< SCOW: CloudSuite.
    Transactional,   ///< TRSW: SPECweb99, TPC-C.
    DecisionSupport, ///< DSPW: TPC-H.
};

const char *workloadCategoryName(WorkloadCategory c);
const char *workloadCategoryAcronym(WorkloadCategory c);

/** One component of the data-access mixture. */
struct RegionSpec
{
    double share = 1.0;          ///< Probability mass among data refs.
    std::uint64_t footprintBytes = 1u << 20;
    double zipfTheta = 0.0;      ///< Skew for random regions.
    std::uint32_t seqBurstBlocks = 0; ///< >0: streaming bursts.
    std::uint32_t repeatsPerBlock = 1; ///< Word-granular reuse of a block.
    bool scramble = true;        ///< Permute indices of random regions.
    /**
     * Once entered, the region captures this many consecutive memory
     * references (a memcpy-like phase). The entry probability is
     * share / stickyRefs, so the long-run reference share stays equal
     * to `share` while consecutive misses land close enough in time to
     * produce row-buffer hits.
     */
    std::uint32_t stickyRefs = 1;
    /**
     * Physical sparsity: the region's blocks are strided this many
     * block slots apart, so a small cache footprint does not collapse
     * onto a handful of DRAM rows (hot heap objects are scattered
     * across a large heap in real systems). Must be a power of two.
     */
    std::uint32_t spreadFactor = 1;
    /**
     * Streaming regions only: burst start positions are handed out
     * from one region-wide advancing frontier instead of per-core
     * random restarts, modeling cores that scan shared files/buffers.
     * Concurrent bursts from different cores then touch the same DRAM
     * rows, which is where much of a server workload's row-buffer
     * locality comes from.
     */
    bool sharedFrontier = false;
};

/** Full parameterization of one synthetic workload. */
struct WorkloadParams
{
    std::string name = "Synthetic";
    std::string acronym = "SYN";
    WorkloadCategory category = WorkloadCategory::ScaleOut;

    std::uint32_t cores = 16; ///< Web Frontend uses 8 (paper Sec. 3.2).

    double memRefPerInstr = 0.30; ///< Loads+stores per instruction.
    double storeFrac = 0.25;      ///< Stores among memory references.
    std::vector<RegionSpec> regions;

    std::uint64_t codeFootprintBytes = 4u << 20;
    double codeJumpProb = 0.02;  ///< Taken-jump rate per fetch block.
    double codeZipfTheta = 0.45; ///< Function popularity skew.

    std::uint32_t mlpWindow = 1; ///< Outstanding load misses per core.
    std::uint32_t storeBufferEntries = 8;

    /**
     * Per-core intensity spread in [0,1): core i's memory intensity is
     * scaled by 1 + spread * (2*i/(cores-1) - 1). Models the per-core
     * imbalance (stragglers, skewed shards) that long-quantum ranking
     * schedulers such as ATLAS react badly to.
     */
    double intensitySpread = 0.0;

    /**
     * Per-core execution phases: cores alternate between memory-heavy
     * and compute-heavy phases (map vs. reduce, request bursts vs.
     * parsing). Phase lengths are geometric with this mean, in
     * instructions; 0 disables phases. The high/low intensity
     * multipliers are normalized so the long-run mean stays 1.
     */
    std::uint64_t phaseMeanInstrs = 0;
    double phaseHigh = 2.0;
    double phaseLow = 0.5;

    // --- DMA/IO engine (Web Frontend, Media Streaming, Data Serving)
    std::uint32_t ioWindow = 0; ///< Outstanding IO requests; 0 = none.
    std::uint32_t ioBurstBlocks = 64; ///< Sequential blocks per DMA burst.
    double ioWriteFrac = 0.3;
    std::uint32_t ioThinkDramCycles = 0; ///< Gap between IO completions.

    std::uint64_t seed = 1;
};

/** Region-mixture instruction stream generator. */
class SyntheticWorkload : public WorkloadGenerator
{
  public:
    /**
     * @param params         Workload description.
     * @param addressSpace   Total physical bytes the generator may
     *                       touch (the DRAM capacity).
     */
    SyntheticWorkload(const WorkloadParams &params, Addr addressSpace);

    const char *name() const override { return params_.name.c_str(); }
    Op nextOp(CoreId core) override;
    bool tryNextOpLocal(CoreId core, Op &out) override;
    Addr nextFetchBlock(CoreId core) override;

    const WorkloadParams &params() const { return params_; }

    /** Effective memory intensity multiplier of @p core. */
    double intensityOf(CoreId core) const;

    /**
     * The 64-byte blocks a footprint of @p bytes reserves, rounded up
     * to a power of two so the scramble permutation stays bijective.
     * A random region draws over blocksFor(footprintBytes *
     * spreadFactor) / spreadFactor items, the code stream over
     * blocksFor(codeFootprintBytes).
     */
    static std::uint64_t blocksFor(std::uint64_t bytes);

  private:
    /** Geometric run-length fast path: CDF boundaries precomputed up
     *  to this run length; longer runs fall back to the log formula. */
    static constexpr std::size_t kRunLevels = 64;
    /** runLength() counts the thresholds below this level without a
     *  branch; longer runs scan on from here. */
    static constexpr std::size_t kCountedLevels = 8;
    /** Draws within this distance of a CDF boundary also fall back,
     *  so the fast path is bit-identical to the closed form. */
    static constexpr double kRunMargin = 1e-9;

    struct RegionState
    {
        RegionSpec spec;
        Addr base = 0;
        std::uint64_t blocks = 0;     ///< Rounded to a power of two.
        std::uint64_t blockMask = 0;
        std::uint64_t frontier = 0; ///< Shared burst hand-out cursor.
        std::unique_ptr<ZipfianGenerator> zipf;
    };

    struct CoreState
    {
        Pcg32 rng;
        double memProb = 0.3;
        /** log1p(-memProb), hoisted out of the per-op run-length draw
         *  (it only changes on phase transitions). */
        double log1mMemProb = 0.0;
        bool pendingMem = false;
        // Per-region streaming cursors.
        std::vector<std::uint64_t> streamPos;
        std::vector<std::uint32_t> burstLeft;
        std::vector<std::uint32_t> repeatLeft;
        // Sticky-region run state.
        int stickyRegion = -1;
        std::uint32_t stickyLeft = 0;
        // Phase state.
        bool phaseIsHigh = false;
        std::int64_t phaseInstrsLeft = 0;
        double baseMemProb = 0.3;
        // Instruction fetch.
        std::uint64_t codeBlock = 0;
        /**
         * A memory reference refused by tryNextOpLocal() because its
         * address would consume the shared streaming frontier. All
         * per-core draws for it are already consumed and its region is
         * stashed here; the next nextOp() call — which happens at the
         * core's globally ordered turn — finishes exactly this
         * reference instead of drawing a new one.
         */
        bool resumePending = false;
        std::uint32_t resumeRegion = 0;
        /** runThresh[k] = P(run <= k) = 1 - (1-memProb)^(k+1); rebuilt
         *  whenever memProb changes (see runLength()). */
        std::array<double, kRunLevels> runThresh{};
    };

    Addr regionAddress(RegionState &region, CoreState &cs,
                       std::size_t regionIdx);
    void advancePhase(CoreState &cs, std::uint32_t instrs);
    /** Pick the region of the next memory reference (sticky or CDF). */
    std::size_t pickRegion(CoreState &cs);
    /** Address + load/store draw for a reference in region @p idx. */
    Op finishMemoryOp(CoreState &cs, std::size_t idx);
    /** Non-memory run length for uniform draw @p u (geometric). */
    std::uint32_t runLength(const CoreState &cs, double u) const;
    static void rebuildRunThresh(CoreState &cs);

    WorkloadParams params_;
    std::vector<RegionState> regions_;
    std::vector<double> regionCdf_;
    Addr codeBase_ = 0;
    std::uint64_t codeBlocks_ = 0;
    std::uint64_t codeBlockMask_ = 0;
    std::unique_ptr<ZipfianGenerator> codeZipf_;
    std::vector<CoreState> cores_;
};

} // namespace mcsim

#endif // CLOUDMC_WORKLOAD_SYNTHETIC_HH
