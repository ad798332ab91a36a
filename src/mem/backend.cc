#include "backend.hh"

#include <algorithm>
#include <numeric>

#include "address_mapping.hh"
#include "common/log.hh"
#include "dram/dram_system.hh"
#include "dram/energy.hh"
#include "factory.hh"
#include "hotness_monitor.hh"
#include "sim/metrics.hh"
#include "sim/sim_config.hh"

namespace mcsim {

const char *
tierPolicyName(TierPolicy p)
{
    switch (p) {
      case TierPolicy::StaticSplit:
        return "static_split";
      case TierPolicy::HotnessBased:
        return "hotness_based";
      case TierPolicy::AlloyCache:
        return "alloy_cache";
    }
    return "?";
}

bool
tryTierPolicyFromName(const std::string &name, TierPolicy &out)
{
    for (TierPolicy p : {TierPolicy::StaticSplit, TierPolicy::HotnessBased,
                         TierPolicy::AlloyCache}) {
        if (name == tierPolicyName(p)) {
            out = p;
            return true;
        }
    }
    return false;
}

namespace {

/**
 * The one memory-media class: a DramSystem over @p geom with @p media
 * timings, one MemController per channel, and the AddressMapper over
 * the same geometry doing the routing. Run over cfg.dram it is the
 * paper's flat JEDEC backend; StackedDramBackend runs it over one
 * channel per vault and TieredMemBackend's slow tier over the slow
 * geometry and timings. Schedulers always get cfg.timings, the device
 * the configuration names. Energy, power and bus utilization are
 * summed channel by channel in queue order, which the tiered backend
 * continues onto the fast tier's sums.
 */
class DramBackend : public MemBackend
{
  public:
    DramBackend(const SimConfig &cfg, std::uint32_t numCores,
                const DramGeometry &geom, const DramTimings &media)
        : clk_(cfg.clocks),
          dram_(geom, media, cfg.refreshEnabled, cfg.clocks),
          mapper_(geom, cfg.mapping, cfg.bankGroupMapping),
          energy_(cfg.power, media, geom.ranksPerChannel, geom.banksPerRank,
                  cfg.clocks)
    {
        for (std::uint32_t ch = 0; ch < dram_.numChannels(); ++ch) {
            controllers_.push_back(std::make_unique<MemController>(
                dram_.channel(ch),
                makeScheduler(cfg.scheduler, numCores, cfg.schedulerParams,
                              cfg.clocks, cfg.timings),
                makePagePolicy(cfg.pagePolicy, cfg.clocks), numCores,
                cfg.controller));
        }
    }

    MemBackendKind kind() const override { return MemBackendKind::FlatDram; }

    std::uint32_t
    numQueues() const override
    {
        return static_cast<std::uint32_t>(controllers_.size());
    }

    MemController &queue(std::uint32_t i) override { return *controllers_[i]; }
    const MemController &queue(std::uint32_t i) const
    {
        return *controllers_[i];
    }

    void
    route(Request &req, Tick) override
    {
        req.coord = mapper_.decode(req.addr);
    }

    std::uint64_t
    capacityBytes() const override
    {
        return dram_.geometry().capacityBytes();
    }

    void
    resetStats(Tick now) override
    {
        for (auto &mc : controllers_)
            mc->resetStats(now);
    }

    /** Mean data-bus utilization over the channels, in [0,1]. */
    double
    busUtilization(Tick now) const
    {
        return dram_.busUtilization(now);
    }

    /** @p sum plus each channel's bus utilization, in queue order. */
    double
    addBusUtilization(double sum, Tick now) const
    {
        for (const auto &mc : controllers_)
            sum += mc->channel().stats().busUtilization(now);
        return sum;
    }

    /** @p sumNj plus each channel's window energy, in queue order. */
    double
    addEnergyNj(double sumNj, Tick now) const
    {
        for (const auto &mc : controllers_)
            sumNj += energy_.estimate(mc->channel().stats(), now).totalNj();
        return sumNj;
    }

    /** Mean power of @p energyNj over the statistics window. Every
     *  channel's window starts at the same resetStats() tick, so the
     *  elapsed time is one number, not per-controller. */
    double
    powerMw(double energyNj, Tick now) const
    {
        const double elapsedNs = clk_.ticksToNs(
            now - controllers_.front()->channel().stats().statsStartTick);
        return elapsedNs > 0.0 ? energyNj * 1e3 / elapsedNs : 0.0;
    }

    /** collect() fills, it never accumulates: the energy sum starts
     *  from zero, so a second collect() into the same MetricSet is
     *  idempotent. */
    void
    collect(MetricSet &m, Tick now) const override
    {
        m.bwUtilPct = 100.0 * busUtilization(now);
        m.dramEnergyNj = addEnergyNj(0.0, now);
        m.dramAvgPowerMw = powerMw(m.dramEnergyNj, now);
    }

  private:
    ClockDomains clk_;
    DramSystem dram_;
    AddressMapper mapper_;
    DramEnergyModel energy_;
    std::vector<std::unique_ptr<MemController>> controllers_;
};

/**
 * Per-stack dynamic remapping table: a permutation over the stack's
 * vaults x banks logical slots, driven by per-slot access counters.
 * Everything is an ordered std::vector walked by index with
 * lowest-index tie-breaks, so decisions are deterministic; mutation
 * happens only inside recordAccess(), i.e. on the route() path.
 */
class VaultRemapper
{
  public:
    VaultRemapper(std::uint32_t vaults, std::uint32_t banks,
                  const RemapConfig &cfg, TickSpan migrationTicks)
        : vaults_(vaults), banks_(banks), cfg_(cfg),
          migrationTicks_(migrationTicks),
          logToPhys_(static_cast<std::size_t>(vaults) * banks),
          counts_(logToPhys_.size(), 0), busyUntil_(logToPhys_.size())
    {
        std::iota(logToPhys_.begin(), logToPhys_.end(), 0u);
        windowLeft_ = cfg_.windowAccesses;
    }

    /** Count an access to a logical slot; at each window boundary,
     *  consider one hot-to-cold bank swap. */
    void
    recordAccess(std::uint32_t logicalSlot, Tick now)
    {
        ++counts_[logicalSlot];
        if (cfg_.windowAccesses == 0 || --windowLeft_ > 0)
            return;
        windowLeft_ = cfg_.windowAccesses;
        maybeMigrate(now);
    }

    std::uint32_t
    physSlot(std::uint32_t logicalSlot) const
    {
        return logToPhys_[logicalSlot];
    }

    Tick busyUntil(std::uint32_t phys) const { return busyUntil_[phys]; }

    std::uint64_t migrations() const { return migrations_; }
    std::uint64_t migratedRows() const { return migratedRows_; }

    /** Window stats reset: the learned table (and its counters, which
     *  keep learning across the warmup/measure boundary) persist. */
    void
    resetStats()
    {
        migrations_ = 0;
        migratedRows_ = 0;
    }

  private:
    void
    maybeMigrate(Tick now)
    {
        // Physical-vault load: sum each logical slot's count into the
        // vault its physical slot lives in.
        std::vector<std::uint64_t> load(vaults_, 0);
        for (std::size_t l = 0; l < logToPhys_.size(); ++l)
            load[logToPhys_[l] / banks_] += counts_[l];
        std::uint32_t hot = 0, cold = 0;
        for (std::uint32_t v = 1; v < vaults_; ++v) {
            if (load[v] > load[hot])
                hot = v; // Strict '>': lowest index wins ties.
            if (load[v] < load[cold])
                cold = v;
        }
        if (hot == cold ||
            static_cast<double>(load[hot]) <=
                cfg_.hotFactor *
                    static_cast<double>(std::max<std::uint64_t>(load[cold],
                                                                1))) {
            return;
        }
        // Hottest logical slot currently in the hot vault, coldest in
        // the cold vault (again lowest-index tie-breaks).
        std::size_t lHot = logToPhys_.size(), lCold = logToPhys_.size();
        for (std::size_t l = 0; l < logToPhys_.size(); ++l) {
            const std::uint32_t pv = logToPhys_[l] / banks_;
            if (pv == hot &&
                (lHot == logToPhys_.size() || counts_[l] > counts_[lHot]))
                lHot = l;
            if (pv == cold &&
                (lCold == logToPhys_.size() || counts_[l] < counts_[lCold]))
                lCold = l;
        }
        if (lHot == logToPhys_.size() || lCold == logToPhys_.size())
            return;
        std::swap(logToPhys_[lHot], logToPhys_[lCold]);
        const Tick doneAt = now + migrationTicks_;
        busyUntil_[logToPhys_[lHot]] = doneAt;
        busyUntil_[logToPhys_[lCold]] = doneAt;
        ++migrations_;
        migratedRows_ += 2ull * cfg_.migrationRows; // Both directions.
        // Decay so old phases do not pin the table forever.
        for (auto &c : counts_)
            c >>= 1;
    }

    std::uint32_t vaults_;
    std::uint32_t banks_;
    RemapConfig cfg_;
    TickSpan migrationTicks_;
    std::vector<std::uint32_t> logToPhys_; ///< logical slot -> physical slot.
    std::vector<std::uint64_t> counts_;    ///< Accesses per logical slot.
    std::vector<Tick> busyUntil_;          ///< Migration gate per phys slot.
    std::uint32_t windowLeft_ = 0;
    std::uint64_t migrations_ = 0;
    std::uint64_t migratedRows_ = 0;
};

/**
 * HMC-style stacked DRAM: cfg.dram.channels stacks of
 * geometry.vaultsPerStack vaults, run as the media class over one
 * channel per vault (DramGeometry::vaultsAsChannels()), so each vault
 * has its own command/data buses, refresh and MemController queue.
 * The global queue index is stack * vaults + vault, which is what
 * coord.channel carries, so the event kernel's routing and the
 * parallel kernel's per-channel sharding decompose per vault group
 * with no kernel changes. The TSV return-path crossing is the
 * device's tTSV timing, charged by the Channel on read data return.
 *
 * Static routing is the mapping scheme's interleave over every vault
 * in the system. With remapping enabled a per-stack VaultRemapper
 * permutes (vault, bank) slots under it.
 */
class StackedDramBackend final : public DramBackend
{
  public:
    StackedDramBackend(const SimConfig &cfg, std::uint32_t numCores)
        : DramBackend(cfg, numCores, cfg.dram.vaultsAsChannels(),
                      cfg.timings),
          vaults_(cfg.dram.vaultsPerStack), banks_(cfg.dram.banksPerRank),
          remap_(cfg.remap.enabled)
    {
        const TickSpan migrationTicks = cfg.clocks.dramToTicks(
            static_cast<std::uint64_t>(cfg.remap.migrationRows) *
            cfg.remap.migrationCyclesPerRow);
        for (std::uint32_t s = 0; s < cfg.dram.channels; ++s)
            remappers_.emplace_back(vaults_, banks_, cfg.remap,
                                    migrationTicks);
    }

    MemBackendKind
    kind() const override
    {
        return MemBackendKind::StackedDram;
    }

    void
    route(Request &req, Tick now) override
    {
        DramBackend::route(req, now);
        if (!remap_)
            return;
        const std::uint32_t stack = req.coord.channel / vaults_;
        const std::uint32_t logicalSlot =
            (req.coord.channel % vaults_) * banks_ + req.coord.bank;
        VaultRemapper &rm = remappers_[stack];
        rm.recordAccess(logicalSlot, now);
        const std::uint32_t phys = rm.physSlot(logicalSlot);
        req.coord.channel = stack * vaults_ + phys / banks_;
        req.coord.bank = phys % banks_;
        req.availableAt = std::max(req.availableAt, rm.busyUntil(phys));
    }

    void
    resetStats(Tick now) override
    {
        DramBackend::resetStats(now);
        for (auto &rm : remappers_)
            rm.resetStats();
    }

    /** The media fields, then the per-vault and remap ones; every
     *  list is cleared and every sum zeroed first, so collect() stays
     *  fill-not-accumulate (a duplicated vault entry would also skew
     *  vaultQueueImbalance through the mean). */
    void
    collect(MetricSet &m, Tick now) const override
    {
        DramBackend::collect(m, now);
        m.perVaultReadQueue.clear();
        double sum = 0.0, peak = 0.0;
        for (std::uint32_t q = 0; q < numQueues(); ++q) {
            const double len = queue(q).stats().readQueueLen.mean(now);
            m.perVaultReadQueue.push_back(len);
            sum += len;
            peak = std::max(peak, len);
        }
        const double mean = sum / static_cast<double>(numQueues());
        m.vaultQueueImbalance = mean > 0.0 ? peak / mean : 0.0;
        m.remapMigrations = 0;
        m.remapMigratedRows = 0;
        for (const auto &rm : remappers_) {
            m.remapMigrations += rm.migrations();
            m.remapMigratedRows += rm.migratedRows();
        }
    }

  private:
    std::uint32_t vaults_;
    std::uint32_t banks_;
    bool remap_;
    std::vector<VaultRemapper> remappers_; ///< One per stack.
};

/** The backend a configuration's device selects: flat or stacked. */
std::unique_ptr<DramBackend>
makeDramBackend(const SimConfig &cfg, std::uint32_t numCores)
{
    if (cfg.backend == MemBackendKind::StackedDram)
        return std::make_unique<StackedDramBackend>(cfg, numCores);
    return std::make_unique<DramBackend>(cfg, numCores, cfg.dram,
                                         cfg.timings);
}

/** Slow-tier media timing: the device's, with the tier link latency
 *  on the read return path (the tTSV hook; flat devices carry 0
 *  there) and the column/burst cadence stretched to the throttled
 *  service rate. */
DramTimings
slowTierTimings(const DramTimings &t, const TierConfig &tier)
{
    mc_assert(tier.slowBwPct >= 1 && tier.slowBwPct <= 100,
              "tier_bw must be in [1, 100]");
    DramTimings slow = t;
    slow.tTSV += tier.slowLatencyDramCycles;
    const auto scale = [&tier](std::uint32_t v) {
        return static_cast<std::uint32_t>(
            (static_cast<std::uint64_t>(v) * 100 + tier.slowBwPct - 1) /
            tier.slowBwPct);
    };
    slow.tCCD = scale(t.tCCD);
    slow.tCCDL = scale(t.tCCDL);
    slow.tBURST = scale(t.tBURST);
    return slow;
}

/** Slow-tier geometry: the device's channel shape with the vault
 *  dimension flattened away; slow-resident addresses fold into it
 *  modulo its capacity (an aliasing performance model). */
DramGeometry
slowTierGeometry(const DramGeometry &g)
{
    DramGeometry slow = g;
    slow.vaultsPerStack = 0;
    return slow;
}

/**
 * Two-tier memory: the SimConfig's base backend (flat or stacked) as
 * the fast tier, composed with a slow CXL/NVM-like tier that is the
 * media class over slowTierGeometry() and slowTierTimings(): the same
 * media model with extra return-path latency (charged via the tTSV
 * hook, exactly like a stacked part's vault-to-logic-layer crossing)
 * and a service-rate bandwidth throttle (the tCCD/tCCD_L/tBURST
 * timings stretch by 100/slowBwPct). The slow tier adds
 * cfg.dram.channels queues after the fast tier's, so the event
 * kernel's routing and the parallel kernel's per-queue sharding
 * decompose over both tiers with no kernel changes.
 *
 * Placement is tracked per "tile" — a power-of-two span of whole rows
 * sized so the tile map stays bounded (<= 64 Ki tiles). The address
 * space is the fast tier's capacity scaled by 100/fastCapacityPct;
 * initially a fastCapacityPct share of the tiles is fast-resident,
 * interleaved evenly across the space (the static_split policy stops
 * there — CXLMemSim's static_balanced). A DAMON-style HotnessMonitor
 * samples every routed access; with the hotness_based policy each
 * closed aggregation window may swap the hottest slow-resident tile
 * with the coldest fast-resident tile, counting the copied rows and
 * gating both tiles until the copy's end via Request::availableAt —
 * the same migration cost model as the vault remapper. The
 * alloy_cache policy instead treats the fast tier as a direct-mapped
 * row cache: a tag hit routes fast, a miss routes slow and fills the
 * row's slot (a one-row migration with the same availableAt gate).
 *
 * All policy state (tile map, monitor, tags) mutates only inside
 * route(), which every kernel calls in identical global order — the
 * property that keeps tiered runs bit-identical across the reference,
 * event, and parallel kernels.
 */
class TieredMemBackend final : public MemBackend
{
  public:
    TieredMemBackend(const SimConfig &cfg, std::uint32_t numCores)
        : tier_(cfg.tier), fast_(makeDramBackend(cfg, numCores)),
          slow_(cfg, numCores, slowTierGeometry(cfg.dram),
                slowTierTimings(cfg.timings, cfg.tier)),
          monitor_(0, 1, MonitorConfig{})
    {
        mc_assert(tier_.fastCapacityPct >= 1 &&
                      tier_.fastCapacityPct <= 100,
                  "tier_capacity_pct must be in [1, 100]");
        fastQueues_ = fast_->numQueues();
        fastBytes_ = fast_->capacityBytes();
        slowBytes_ = slow_.capacityBytes();
        rowBytes_ = cfg.dram.rowBufferBytes;

        // Tile sizing: start at one row and double until the whole
        // (fast + slow) space fits in the tile-map budget.
        const std::uint64_t rawSlow =
            fastBytes_ * (100ull - tier_.fastCapacityPct) /
            tier_.fastCapacityPct;
        tileBytes_ = rowBytes_;
        while ((fastBytes_ + rawSlow) / tileBytes_ > kMaxTiles)
            tileBytes_ <<= 1;
        totalTiles_ =
            static_cast<std::uint32_t>(fastBytes_ / tileBytes_) +
            static_cast<std::uint32_t>(rawSlow / tileBytes_);
        tileRows_ = tileBytes_ / rowBytes_;
        // Initial placement: a fastCapacityPct share of tiles is
        // fast-resident, spread evenly across the space (Bresenham
        // interleave) rather than packed at the bottom — workloads lay
        // their footprints from address 0 up, so a contiguous split
        // would leave the slow tier idle under every real footprint.
        tileTier_.assign(totalTiles_, 0);
        std::uint32_t fastCount = 0;
        for (std::uint32_t t = 0; t < totalTiles_; ++t) {
            if (static_cast<std::uint64_t>(t) * tier_.fastCapacityPct %
                    100 <
                tier_.fastCapacityPct) {
                tileTier_[t] = 1;
                ++fastCount;
            }
        }
        fastTiles_ = fastCount;
        slowTiles_ = totalTiles_ - fastCount;

        MonitorConfig mon;
        mon.sampleEvery = tier_.monitorSampleEvery;
        mon.windowSamples = tier_.monitorWindowSamples;
        mon.minRegions = tier_.monitorMinRegions;
        mon.maxRegions = tier_.monitorMaxRegions;
        monitor_ = HotnessMonitor(capacityBytes(), tileBytes_, mon);

        tileMigrationTicks_ = cfg.clocks.dramToTicks(
            2ull * tileRows_ * tier_.migrationCyclesPerRow);
        if (tier_.policy == TierPolicy::AlloyCache) {
            const std::uint64_t slots = std::min<std::uint64_t>(
                std::max<std::uint64_t>(fastBytes_ / rowBytes_, 1),
                kMaxAlloySlots);
            alloyTags_.assign(static_cast<std::size_t>(slots),
                              ~std::uint64_t{0});
            alloyBusy_.assign(static_cast<std::size_t>(slots), Tick{});
            alloyFillTicks_ =
                cfg.clocks.dramToTicks(tier_.migrationCyclesPerRow);
        }
    }

    MemBackendKind kind() const override { return MemBackendKind::Tiered; }

    std::uint32_t
    numQueues() const override
    {
        return fastQueues_ + slow_.numQueues();
    }

    MemController &
    queue(std::uint32_t i) override
    {
        return i < fastQueues_ ? fast_->queue(i)
                               : slow_.queue(i - fastQueues_);
    }

    void
    route(Request &req, Tick now) override
    {
        const Addr addr = req.addr;
        const std::uint32_t tile = tileOf(addr);
        bool fast;
        if (tier_.policy == TierPolicy::AlloyCache) {
            const Addr row = addr / rowBytes_;
            const std::size_t slot =
                static_cast<std::size_t>(row % alloyTags_.size());
            fast = alloyTags_[slot] == row;
            if (fast) {
                // A hit during the slot's fill waits for the copy.
                if (alloyBusy_[slot] > req.availableAt)
                    req.availableAt = alloyBusy_[slot];
            } else {
                // Miss: served from the slow tier; the row fills its
                // direct-mapped fast slot behind the access.
                alloyTags_[slot] = row;
                alloyBusy_[slot] = now + alloyFillTicks_;
                ++migrations_;
                ++migratedRows_;
            }
        } else {
            fast = tileTier_[tile] != 0;
        }
        if (monitor_.record(addr)) {
            if (tier_.policy == TierPolicy::HotnessBased)
                maybeMigrate(now);
            monitor_.closeWindow();
        }
        if (fast) {
            ++fastRouted_;
            // Fold into the fast tier's physical space: a promoted
            // slow-region address borrows the frame its fold lands in
            // (a performance model, not a functional allocator).
            req.addr = addr % fastBytes_;
            fast_->route(req, now);
        } else {
            ++slowRouted_;
            req.addr = addr % slowBytes_;
            slow_.route(req, now);
            req.coord.channel += fastQueues_;
        }
        req.addr = addr;
        // A tile mid-migration gates its requests (either direction of
        // the swap) until the copy finishes.
        for (const TileGate &g : migrating_) {
            if (g.tile == tile && g.until > req.availableAt &&
                g.until > now) {
                req.availableAt = g.until;
            }
        }
    }

    std::uint64_t
    capacityBytes() const override
    {
        return static_cast<std::uint64_t>(totalTiles_) * tileBytes_;
    }

    void
    resetStats(Tick now) override
    {
        fast_->resetStats(now);
        slow_.resetStats(now);
        // Window counters reset; the learned state (tile map, monitor
        // regions, alloy tags) keeps learning across the boundary,
        // like the vault remapper's table.
        fastRouted_ = 0;
        slowRouted_ = 0;
        migrations_ = 0;
        migratedRows_ = 0;
    }

    void
    collect(MetricSet &m, Tick now) const override
    {
        // Fast-tier fields first (bus util, energy, any stacked
        // quantities); the fast collect() fills idempotently, so this
        // whole method stays fill-not-accumulate too. The slow tier
        // then continues the media-wide sums channel by channel.
        fast_->collect(m, now);
        const double busSum = slow_.addBusUtilization(
            fast_->busUtilization(now) * static_cast<double>(fastQueues_),
            now);
        m.bwUtilPct = 100.0 * (busSum / static_cast<double>(numQueues()));
        m.dramEnergyNj = slow_.addEnergyNj(m.dramEnergyNj, now);
        m.dramAvgPowerMw = slow_.powerMw(m.dramEnergyNj, now);

        // Tier quantities. Every ratio guards its empty set: a run
        // with no routed accesses reports a 0 hit fraction, and a slow
        // tier that served no reads reports a 0 p99 (the histogram
        // percentile of an empty merge is 0 by contract).
        const std::uint64_t total = fastRouted_ + slowRouted_;
        m.fastTierHitPct =
            total ? 100.0 * static_cast<double>(fastRouted_) /
                        static_cast<double>(total)
                  : 0.0;
        LogHistogram slowHist{24};
        for (std::uint32_t q = 0; q < slow_.numQueues(); ++q)
            slowHist.merge(slow_.queue(q).stats().readLatencyHist);
        m.slowTierReadLatencyP99 = slowHist.percentile(0.99);
        m.tierMigrations = migrations_;
        m.tierMigratedRows = migratedRows_;
    }

  private:
    /** Tile-map and alloy-tag budgets: bounded state, coarser tiles on
     *  bigger spaces rather than unbounded vectors. */
    static constexpr std::uint64_t kMaxTiles = 1ull << 16;
    static constexpr std::uint64_t kMaxAlloySlots = 1ull << 18;

    struct TileGate
    {
        std::uint32_t tile;
        Tick until;
    };

    std::uint32_t
    tileOf(Addr addr) const
    {
        const std::uint64_t t = addr / tileBytes_;
        return static_cast<std::uint32_t>(
            t < totalTiles_ ? t : totalTiles_ - 1);
    }

    /**
     * One tile swap per closed monitor window, at most: the hottest
     * slow-resident tile (by its covering region's sampled density)
     * swaps with the coldest fast-resident tile when the density gap
     * exceeds hotFactor. Lowest tile index wins every tie, so the
     * decision is deterministic.
     */
    void
    maybeMigrate(Tick now)
    {
        // Expired gates prune here (bounded: 2 entries per window).
        std::size_t keep = 0;
        for (const TileGate &g : migrating_) {
            if (g.until > now)
                migrating_[keep++] = g;
        }
        migrating_.resize(keep);
        if (fastTiles_ == 0 || slowTiles_ == 0)
            return;

        // Walk tiles and monitor regions in lockstep (both address-
        // ordered): a tile's heat is its region's count per tile.
        const auto &regions = monitor_.regions();
        if (regions.empty())
            return;
        std::uint32_t hotTile = totalTiles_, coldTile = totalTiles_;
        double hotHeat = 0.0, coldHeat = 0.0;
        std::size_t r = 0;
        for (std::uint32_t t = 0; t < totalTiles_; ++t) {
            const Addr start = static_cast<Addr>(t) * tileBytes_;
            while (r + 1 < regions.size() && regions[r].end <= start)
                ++r;
            const Addr regTiles =
                (regions[r].end - regions[r].start) / tileBytes_;
            const double heat =
                regTiles ? static_cast<double>(regions[r].count) /
                               static_cast<double>(regTiles)
                         : 0.0;
            if (tileTier_[t] == 0) {
                if (hotTile == totalTiles_ || heat > hotHeat) {
                    hotTile = t;
                    hotHeat = heat;
                }
            } else if (coldTile == totalTiles_ || heat < coldHeat) {
                coldTile = t;
                coldHeat = heat;
            }
        }
        if (hotTile == totalTiles_ || coldTile == totalTiles_)
            return;
        if (hotHeat <= tier_.hotFactor * std::max(coldHeat, 1.0))
            return;

        tileTier_[hotTile] = 1;
        tileTier_[coldTile] = 0;
        const Tick doneAt = now + tileMigrationTicks_;
        migrating_.push_back({hotTile, doneAt});
        migrating_.push_back({coldTile, doneAt});
        ++migrations_;
        migratedRows_ += 2ull * tileRows_; // Both directions of the swap.
    }

    TierConfig tier_;
    std::unique_ptr<DramBackend> fast_;
    DramBackend slow_;
    HotnessMonitor monitor_;

    std::uint32_t fastQueues_ = 0;
    std::uint64_t fastBytes_ = 0;
    std::uint64_t slowBytes_ = 0;
    std::uint64_t rowBytes_ = 0;
    std::uint64_t tileBytes_ = 0;
    std::uint64_t tileRows_ = 0;
    std::uint32_t fastTiles_ = 0;
    std::uint32_t slowTiles_ = 0;
    std::uint32_t totalTiles_ = 0;
    std::vector<std::uint8_t> tileTier_; ///< 1 = fast-resident.
    std::vector<TileGate> migrating_;    ///< In-flight tile copies.
    TickSpan tileMigrationTicks_{};

    std::vector<std::uint64_t> alloyTags_; ///< Direct-mapped row tags.
    std::vector<Tick> alloyBusy_;          ///< Fill gate per slot.
    TickSpan alloyFillTicks_{};

    std::uint64_t fastRouted_ = 0;
    std::uint64_t slowRouted_ = 0;
    std::uint64_t migrations_ = 0;
    std::uint64_t migratedRows_ = 0;
};

} // namespace

std::unique_ptr<MemBackend>
makeMemBackend(const SimConfig &cfg, std::uint32_t numCores)
{
    if (cfg.tier.enabled)
        return std::make_unique<TieredMemBackend>(cfg, numCores);
    return makeDramBackend(cfg, numCores);
}

} // namespace mcsim
