/**
 * @file
 * A DRAM channel: ranks plus the shared command and data buses.
 *
 * The channel is the single authority on command legality. The memory
 * controller proposes a command at the current tick; canIssue() checks
 * every device- and bus-level constraint and issue() applies the state
 * transitions. Constraints modeled:
 *
 *  - bank: tRCD, tRAS, tRC, tRP, tRTP, write recovery (tCWL+tBURST+tWR)
 *  - bank group: tRRD_L ACT spacing, tCCD_L CAS spacing, tWTR_L
 *          write-to-read turnaround (all within one rank's group)
 *  - rank: tRRD_S, tFAW (counted across groups), write-to-read
 *          turnaround (tCWL+tBURST+tWTR_S), refresh (tREFI staggered
 *          per rank; all-bank tRFC, or round-robin per-bank tRFCpb
 *          blocking only the refreshed bank)
 *  - channel: one command per tCK, tCCD_S CAS spacing, read-to-write
 *          turnaround (tRTW), data-bus occupancy, rank-to-rank data
 *          switch penalty (tCS)
 *
 * Simplification vs. real devices: the write-to-read turnaround is
 * applied per rank (correct) while read-after-write to a *different*
 * rank is gated by the data bus, tCS, and a channel-wide tCCD_S floor
 * between any pair of column commands, which matches DDR3/DDR4
 * behavior closely enough for scheduling studies. A per-bank refresh
 * is not charged against tRRD/tFAW (JEDEC counts REFpb as an
 * activation; both the channel and the TimingChecker omit that).
 */

#ifndef CLOUDMC_DRAM_CHANNEL_HH
#define CLOUDMC_DRAM_CHANNEL_HH

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "commands.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "dram_params.hh"
#include "rank.hh"

namespace mcsim {

/** Result of issuing a command. */
struct IssueResult
{
    /** For Read: tick at which the last data beat is on the bus (the
     *  request's data is complete). Zero for non-read commands. */
    Tick dataReadyAt;
};

/** Channel statistics (reset with resetStats()). */
struct ChannelStats
{
    std::uint64_t activates = 0;
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t precharges = 0;
    std::uint64_t refreshes = 0;
    /** CAS commands issued to the same (rank, bank group) as the
     *  immediately preceding CAS on this channel — the population the
     *  tCCD_L floor (rather than tCCD_S) spaces. On a single-group
     *  device this counts same-rank back-to-back CAS. */
    std::uint64_t casSameGroup = 0;
    TickSpan dataBusBusyTicks;
    /** Sum over ranks of time spent with at least one bank open
     *  (active-standby time, the energy model's background input). */
    TickSpan rankActiveTicks;
    Tick statsStartTick;

    void
    reset(Tick now)
    {
        activates = reads = writes = precharges = refreshes = 0;
        casSameGroup = 0;
        dataBusBusyTicks = TickSpan{0};
        rankActiveTicks = TickSpan{0};
        statsStartTick = now;
    }

    /** Data-bus utilization in [0,1] over the measurement window. */
    double
    busUtilization(Tick now) const
    {
        const TickSpan elapsed = now - statsStartTick;
        return elapsed.count()
                   ? static_cast<double>(dataBusBusyTicks.count()) /
                         static_cast<double>(elapsed.count())
                   : 0.0;
    }
};

/** One DRAM channel with its ranks and buses. */
class Channel
{
  public:
    /**
     * @param clk Clock domains; timing fields (in DRAM cycles) are
     *        converted to ticks on this grid.
     */
    Channel(const DramGeometry &geom, const DramTimings &timings,
            bool enableRefresh, const ClockDomains &clk = kBaselineClocks);

    /** True iff @p cmd satisfies every timing constraint at @p now. */
    bool canIssue(const DramCommand &cmd, Tick now) const;

    /**
     * Apply @p cmd at @p now. The caller must have checked canIssue();
     * violating constraints is a simulator bug and panics.
     */
    IssueResult issue(const DramCommand &cmd, Tick now);

    /** Bank accessor used by the controller for open-row queries. */
    const Bank &
    bank(std::uint32_t rank, std::uint32_t bankIdx) const
    {
        return ranks_[rank].bank(bankIdx);
    }

    /** Read-only: refresh deadlines are cached channel-wide, so rank
     *  state moves only through issue(). */
    const Rank &rank(std::uint32_t r) const { return ranks_[r]; }
    std::uint32_t numRanks() const
    {
        return static_cast<std::uint32_t>(ranks_.size());
    }

    /** Lowest rank index whose refresh deadline has passed, or -1. */
    int
    refreshDueRank(Tick now) const
    {
        return now < earliestRefreshDue_ ? -1 : firstRefreshDueRank(now);
    }

    /** True when this channel refreshes one bank at a time (REFpb). */
    bool perBankRefresh() const { return tm_.perBankRefresh; }

    /** Earliest refresh deadline later than @p now over all ranks;
     *  kMaxTick when none (or refresh is disabled). */
    Tick
    nextRefreshDueAfter(Tick now) const
    {
        return earliestRefreshDue_ > now ? earliestRefreshDue_
                                         : refreshDueAfterSlow(now);
    }

    /**
     * Event-kernel contract: the earliest tick >= now at which
     * canIssue(cmd, ·) would hold, assuming no further command issues
     * on this channel in between. Every constraint canIssue() checks
     * is a "now >= threshold" comparison against state that only
     * command issues move, so the result is exact under that
     * assumption. Returns kMaxTick when the command needs a bank state
     * change first (e.g. an activate to an open bank), which during an
     * idle-skip window cannot happen.
     *
     * Two-part legality: for an ACT, RD, WR or PRE that matches its
     * bank's state, the result is exactly
     *
     *     max(cmdBusFreeAt(), bank.allowedAt(type),
     *         sharedFloor(type, rank, group), now)
     *
     * and it is computed that way, so a caller that composes the same
     * pieces itself (the memory controller does, computing each
     * (rank, bank group)'s floors once per candidate rebuild) cannot
     * drift from it. canIssue() stays the independent check.
     */
    Tick nextLegalAt(const DramCommand &cmd, Tick now) const;

    /**
     * The part of @p type's legality that every bank of bank group
     * @p group in rank @p rank shares:
     *  - ACT: tRRD_S/L and tFAW (Rank::actAllowedAt);
     *  - RD: the tCCD_L floor, tWTR (Rank::rdAllowedAt), the
     *    channel's tCCD_S floor, and the data bus including the tCS
     *    rank switch;
     *  - WR: the tCCD_L floor, the channel's tCCD_S/tRTW floor, and
     *    the same data-bus term;
     *  - PRE: none (Tick 0).
     * Like nextLegalAt(), a floor moves only when a command issues.
     */
    Tick sharedFloor(DramCommandType type, std::uint32_t rank,
                     std::uint32_t group) const;

    /** One Tick per command with a bank gate, indexed by
     *  DramCommandType: ACT, RD, WR, PRE. */
    using CommandFloors = std::array<Tick, 4>;
    /** sharedFloor() of ACT, RD, WR and PRE at once. */
    CommandFloors sharedFloors(std::uint32_t rank,
                               std::uint32_t group) const;

    /** Bank group of bank @p bankIdx (geometry convention), from a
     *  table built once so the hot path does not divide. */
    std::uint32_t groupOf(std::uint32_t bankIdx) const
    {
        return bankGroup_[bankIdx];
    }

    /** Tick the command bus frees: no command issues before it. Only
     *  grows, so a legal tick stays exact once re-clamped to it. */
    Tick cmdBusFreeAt() const { return cmdBusFreeAt_; }

    /** Commands issued on this channel since construction (never
     *  reset), so an observer can tell whether anything issued. */
    std::uint64_t commandsIssued() const { return commandsIssued_; }

    ChannelStats &stats() { return stats_; }
    const ChannelStats &stats() const { return stats_; }
    void resetStats(Tick now);

    /**
     * Observe every command as it issues (after legality checks, before
     * state updates). For protocol validation tests and command-trace
     * debugging; unset in normal operation.
     */
    using CommandHook = std::function<void(const DramCommand &, Tick)>;
    void setCommandHook(CommandHook hook) { hook_ = std::move(hook); }

    const DramTimings &timings() const { return tm_; }
    const DramGeometry &geometry() const { return geom_; }
    const ClockDomains &clocks() const { return clk_; }

  private:
    /** DRAM cycles to ticks on this channel's clock grid. */
    TickSpan
    dct(std::uint64_t cycles) const
    {
        return clk_.dramToTicks(cycles);
    }
    TickSpan ticksRd() const { return dct(tm_.tCAS); }
    TickSpan ticksWr() const { return dct(tm_.tCWL); }
    TickSpan ticksBurst() const { return dct(tm_.tBURST); }

    bool canIssueCas(const DramCommand &cmd, Tick now, bool isRead) const;

    /** Earliest issue tick of a CAS to @p rank whose data starts
     *  @p lead after it: the bus-free tick (plus tCS on a rank switch)
     *  minus the lead, or Tick 0 when that is not positive. */
    Tick dataBusFloor(std::uint32_t rank, TickSpan lead) const;

    int firstRefreshDueRank(Tick now) const;
    Tick refreshDueAfterSlow(Tick now) const;
    /** Recompute earliestRefreshDue_ after a deadline moved. */
    void updateEarliestRefreshDue();

    DramGeometry geom_;
    DramTimings tm_;
    ClockDomains clk_;
    std::vector<Rank> ranks_;
    std::vector<std::uint32_t> bankGroup_; ///< Bank index -> group.
    /** Earliest refresh deadline over the ranks (kMaxTick: none). */
    Tick earliestRefreshDue_ = kMaxTick;
    std::uint64_t commandsIssued_ = 0;

    Tick cmdBusFreeAt_;  ///< One command per tCK.
    Tick nextRdAt_;      ///< tCCD_S spacing between reads.
    Tick nextWrAt_;      ///< tCCD_S spacing + tRTW after reads.
    Tick dataBusFreeAt_; ///< End of the burst in flight.
    int lastDataRank_ = -1;  ///< For the tCS rank-switch penalty.
    int lastCasGroupKey_ = -1; ///< (rank, group) of the last CAS (stats).

    // Active-standby accounting for the energy model.
    std::vector<std::uint32_t> rankOpenBanks_;
    std::vector<Tick> rankActiveSince_;

    CommandHook hook_;

    ChannelStats stats_;
};

} // namespace mcsim

#endif // CLOUDMC_DRAM_CHANNEL_HH
