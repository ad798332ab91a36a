/**
 * @file
 * MemBackend: the pluggable memory system behind the crossbar.
 *
 * A simulation composes a backend, not a hard-wired DramSystem. The
 * backend owns its channels/vaults and the MemController queue in
 * front of each, and exposes exactly the contracts the System kernels
 * already rely on:
 *
 *  - queue(i).enqueue()/tick(): one controller per backend queue;
 *    tick() returns the next-due tick (the event-kernel contract) and
 *    arrivals re-arm a sleeping queue. The epoch-sharded parallel
 *    kernel shards queues by index (i % shards), so a backend's queue
 *    numbering is also its parallel decomposition.
 *  - route(): stamp a request's DramCoord so coord.channel is the
 *    global queue index the System routes and shards by. route() is
 *    the only entry point that may mutate backend-global policy state
 *    (e.g. the stacked backend's remap tables): it runs on the core
 *    shard / serial thread in an order identical across the reference,
 *    event, and parallel kernels, which is what keeps dynamic
 *    remapping bit-identical under every kernel.
 *  - resetStats()/collect(): the statistics window contract behind
 *    MetricSet, including bus utilization and the energy model.
 *
 * One media class in backend.cc builds every Channel and MemController:
 * a DramSystem over a given geometry and media timings, one controller
 * per channel, the AddressMapper over the same geometry, and the bus
 * utilization, energy and power sums, taken channel by channel in
 * queue order. Run over the device geometry it is the paper's flat
 * JEDEC backend. Two layers sit on top of it:
 *
 *  - StackedDramBackend (HMC-style stacks) is the media class over
 *    one single-rank channel per vault (DramGeometry::
 *    vaultsAsChannels()), with the TSV return-path timing and an
 *    optional per-stack hot-bank remapper in route() that charges
 *    its migration cost via Request::availableAt. It adds the
 *    per-vault queue and remap fields to collect().
 *  - TieredMemBackend holds a fast tier (flat or stacked) and a slow
 *    CXL/NVM-like tier, the media class over the device's channels
 *    with stretched timings, behind a DAMON-style HotnessMonitor and
 *    pluggable placement/migration policies. It builds no media of
 *    its own; its slow queues follow the fast tier's, and its
 *    collect() continues the fast tier's sums over the slow channels.
 */

#ifndef CLOUDMC_MEM_BACKEND_HH
#define CLOUDMC_MEM_BACKEND_HH

#include <cstdint>
#include <memory>
#include <string>

#include "common/types.hh"
#include "mem_controller.hh"
#include "request.hh"

namespace mcsim {

struct SimConfig;
struct MetricSet;

/** Which memory-backend implementation a SimConfig selects. */
enum class MemBackendKind : std::uint8_t {
    FlatDram,    ///< JEDEC channels behind one controller each.
    StackedDram, ///< HMC-style stacks of vaults, one controller per vault.
    /** Two-tier composition: a fast tier (flat or stacked, per the
     *  config's base backend kind) in front of a slow CXL/NVM-like
     *  tier. Never stored in SimConfig::backend (that names the fast
     *  tier); selected by SimConfig::tier.enabled. */
    Tiered,
};

/** Placement/migration policy of the tiered backend. */
enum class TierPolicy : std::uint8_t {
    /** Fixed placement: a tier_capacity_pct share of tiles is fast,
     *  interleaved evenly across the space; no migration ever. */
    StaticSplit,
    /** DAMON-monitor-driven: each aggregation window may swap the
     *  hottest slow-resident tile with the coldest fast-resident one,
     *  charging the copy via Request::availableAt. */
    HotnessBased,
    /** Alloy-cache-like: the fast tier acts as a direct-mapped row
     *  cache of the whole space; every miss is served slow and fills
     *  the row's fast slot (one-row migration). */
    AlloyCache,
};

const char *tierPolicyName(TierPolicy p);
bool tryTierPolicyFromName(const std::string &name, TierPolicy &out);

/**
 * Tiered-memory knobs (TieredMemBackend; SimConfig::tier). The slow
 * tier reuses the device's media model with two modifications: extra
 * return-path latency (slowLatencyDramCycles, charged exactly like
 * the stacked tTSV crossing) and a bandwidth throttle modeled as
 * queue service-rate scaling (the column-to-column and burst timings
 * stretch by 100/slowBwPct). fastCapacityPct sets the fast tier's
 * share of the total address space; placement/migration granularity
 * is one "tile" (a power-of-two row multiple chosen so the tile map
 * stays bounded). The monitor fields configure the DAMON-style
 * HotnessMonitor in front of the placement policies.
 */
struct TierConfig
{
    bool enabled = false;
    TierPolicy policy = TierPolicy::HotnessBased;
    /** Extra slow-tier read return latency, DRAM cycles. */
    std::uint32_t slowLatencyDramCycles = 96;
    /** Slow-tier service rate as a percent of the fast tier's,
     *  in [1, 100]. */
    std::uint32_t slowBwPct = 50;
    /** Fast tier's share of the total address space, in [1, 100]. */
    std::uint32_t fastCapacityPct = 50;
    /** DAMON-style monitor knobs (the monitor_* spec keys). */
    std::uint32_t monitorSampleEvery = 4;
    std::uint32_t monitorWindowSamples = 2048;
    std::uint32_t monitorMinRegions = 16;
    std::uint32_t monitorMaxRegions = 256;
    /** Promote only when the hottest slow tile's sampled density
     *  exceeds hotFactor times the coldest fast tile's. */
    double hotFactor = 2.0;
    /** Migration cost: DRAM cycles per row copied; both tiles of a
     *  swap are gated (Request::availableAt) until the copy ends. */
    std::uint32_t migrationCyclesPerRow = 64;
};

/**
 * Dynamic vault/bank remapping policy knobs (stacked backend only).
 * The remapper counts accesses per logical bank slot; every
 * windowAccesses routed requests it compares the hottest and coldest
 * physical vaults and, when the hot one carries more than hotFactor
 * times the cold one's load, swaps the hottest logical bank in the hot
 * vault with the coldest logical bank in the cold vault. A swap copies
 * migrationRows rows at migrationCyclesPerRow DRAM cycles each; both
 * physical slots are unserviceable until the copy finishes (modeled as
 * a per-request earliest-service tick, Request::availableAt).
 */
struct RemapConfig
{
    bool enabled = false;
    std::uint32_t windowAccesses = 4096;
    double hotFactor = 4.0;
    std::uint32_t migrationRows = 16;
    std::uint32_t migrationCyclesPerRow = 64;
};

/** The memory system behind the crossbar: queues, media, statistics. */
class MemBackend
{
  public:
    virtual ~MemBackend() = default;

    virtual MemBackendKind kind() const = 0;

    /** Independent controller queues (the parallel-kernel shards). */
    virtual std::uint32_t numQueues() const = 0;
    virtual MemController &queue(std::uint32_t i) = 0;

    /**
     * Stamp @p req.coord for this backend; coord.channel must be the
     * global queue index. May also stamp req.availableAt with an
     * earliest-service tick (migration cost). The only virtual that
     * may mutate policy state; called in identical order by every
     * kernel (see file comment).
     */
    virtual void route(Request &req, Tick now) = 0;

    /** Total addressable bytes (workload address-space sizing). */
    virtual std::uint64_t capacityBytes() const = 0;

    /** Open a new statistics window on queues and media. */
    virtual void resetStats(Tick now) = 0;

    /** Fill the backend-owned MetricSet fields (bus utilization,
     *  energy, per-vault occupancy, remap and tier counters). collect()
     *  FILLS, it never accumulates: calling it twice on the same
     *  MetricSet must leave identical values (list fields are cleared,
     *  scalars assigned or zeroed before any summation). */
    virtual void collect(MetricSet &m, Tick now) const = 0;
};

/** Build the backend a SimConfig selects (cfg.backend). */
std::unique_ptr<MemBackend> makeMemBackend(const SimConfig &cfg,
                                           std::uint32_t numCores);

} // namespace mcsim

#endif // CLOUDMC_MEM_BACKEND_HH
