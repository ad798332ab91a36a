/**
 * @file
 * Per-rank DRAM constraints: tRRD_S/tRRD_L activate spacing, the tFAW
 * rolling four-activate window (counted across bank groups), the
 * tCCD_L same-group CAS floor, write-to-read turnaround (tWTR_S rank-
 * wide, tWTR_L per bank group), and refresh state (all-bank or
 * round-robin per-bank).
 */

#ifndef CLOUDMC_DRAM_RANK_HH
#define CLOUDMC_DRAM_RANK_HH

#include <array>
#include <cstdint>
#include <vector>

#include "bank.hh"
#include "common/types.hh"

namespace mcsim {

/** DRAM rank: a set of bank groups sharing activate-window constraints. */
class Rank
{
  public:
    Rank(std::uint32_t banks, std::uint32_t groups)
        : banks_(banks), groupRrdAllowedAt_(groups, Tick{}),
          groupRdAllowedAt_(groups, Tick{}), groupCasAllowedAt_(groups, Tick{})
    {
    }

    Bank &bank(std::uint32_t i) { return banks_[i]; }
    const Bank &bank(std::uint32_t i) const { return banks_[i]; }
    std::uint32_t numBanks() const
    {
        return static_cast<std::uint32_t>(banks_.size());
    }

    /** Earliest tick an activate may issue to a bank of @p group. */
    Tick
    actAllowedAt(std::uint32_t group) const
    {
        // tFAW: the 4th-most-recent activate gates the next one;
        // tRRD_L adds the same-group floor on top of the rank-wide
        // tRRD_S one.
        return maxT(maxT(rrdAllowedAt_, fawWindow_[fawIdx_]),
                    groupRrdAllowedAt_[group]);
    }

    /** Record an activate at @p now into @p group. */
    void
    activated(Tick now, TickSpan rrdTicks, TickSpan rrdLTicks,
              TickSpan fawTicks, std::uint32_t group)
    {
        rrdAllowedAt_ = now + rrdTicks;
        groupRrdAllowedAt_[group] = now + rrdLTicks;
        fawWindow_[fawIdx_] = now + fawTicks;
        fawIdx_ = (fawIdx_ + 1) % fawWindow_.size();
    }

    /** Earliest tick a read may issue to @p group (tWTR gating). */
    Tick
    rdAllowedAt(std::uint32_t group) const
    {
        return maxT(rdAllowedAt_, groupRdAllowedAt_[group]);
    }

    /** Record a write burst into @p group; reads blocked until the
     *  write-to-read turnaround (short rank-wide, long same-group). */
    void
    wrote(Tick now, TickSpan wtrGapTicks, TickSpan wtrLGapTicks,
          std::uint32_t group)
    {
        rdAllowedAt_ = maxT(rdAllowedAt_, now + wtrGapTicks);
        groupRdAllowedAt_[group] =
            maxT(groupRdAllowedAt_[group], now + wtrLGapTicks);
    }

    /** Earliest tick any CAS may issue to @p group (tCCD_L floor; the
     *  channel applies the rank-agnostic tCCD_S floor itself). */
    Tick casAllowedAt(std::uint32_t group) const
    {
        return groupCasAllowedAt_[group];
    }

    /** Record a CAS into @p group at @p now. */
    void
    casIssued(Tick now, TickSpan ccdLTicks, std::uint32_t group)
    {
        groupCasAllowedAt_[group] = now + ccdLTicks;
    }

    /** True iff every bank in the rank is precharged. */
    bool
    allBanksClosed() const
    {
        for (const auto &b : banks_) {
            if (b.isOpen())
                return false;
        }
        return true;
    }

    /** Apply an all-bank refresh at @p now; banks blocked for tRFC. */
    void
    refresh(Tick now, TickSpan rfcTicks)
    {
        for (auto &b : banks_)
            b.blockUntil(now + rfcTicks);
        rrdAllowedAt_ = maxT(rrdAllowedAt_, now + rfcTicks);
        nextRefreshDue_ += refreshInterval_;
    }

    /** Apply a per-bank refresh (REFpb) to @p bank at @p now: only
     *  that bank is blocked, for tRFCpb, and the round-robin pointer
     *  advances to the next bank. */
    void
    refreshBank(std::uint32_t bank, Tick now, TickSpan rfcPbTicks)
    {
        banks_[bank].blockUntil(now + rfcPbTicks);
        refreshBankIdx_ = (refreshBankIdx_ + 1) % numBanks();
        nextRefreshDue_ += refreshInterval_;
    }

    /** The bank the next per-bank refresh targets (round-robin). */
    std::uint32_t refreshDueBank() const { return refreshBankIdx_; }

    /** Configure periodic refresh; @p firstDue staggers ranks. */
    void
    scheduleRefresh(Tick firstDue, TickSpan interval)
    {
        nextRefreshDue_ = firstDue;
        refreshInterval_ = interval;
    }

    Tick nextRefreshDue() const { return nextRefreshDue_; }
    bool refreshEnabled() const { return refreshInterval_ != TickSpan{0}; }

  private:
    static Tick maxT(Tick a, Tick b) { return a > b ? a : b; }

    std::vector<Bank> banks_;
    Tick rrdAllowedAt_;
    Tick rdAllowedAt_;
    std::vector<Tick> groupRrdAllowedAt_; ///< tRRD_L per bank group.
    std::vector<Tick> groupRdAllowedAt_;  ///< tWTR_L per bank group.
    std::vector<Tick> groupCasAllowedAt_; ///< tCCD_L per bank group.
    std::array<Tick, 4> fawWindow_{};
    std::size_t fawIdx_ = 0;
    std::uint32_t refreshBankIdx_ = 0;
    Tick nextRefreshDue_ = kMaxTick;
    TickSpan refreshInterval_;
};

} // namespace mcsim

#endif // CLOUDMC_DRAM_RANK_HH
