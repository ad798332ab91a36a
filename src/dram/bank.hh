/**
 * @file
 * Per-bank DRAM state machine.
 *
 * A bank tracks its open row (if any) and the earliest tick at which
 * each command class may legally be issued to it (its gates). The
 * channel layers rank- and bus-level constraints on top.
 */

#ifndef CLOUDMC_DRAM_BANK_HH
#define CLOUDMC_DRAM_BANK_HH

#include <cstddef>
#include <cstdint>

#include "commands.hh"
#include "common/types.hh"

namespace mcsim {

/** DRAM bank timing/occupancy state. */
class Bank
{
  public:
    static constexpr std::uint64_t kNoRow = ~std::uint64_t{0};

    bool isOpen() const { return openRow_ != kNoRow; }
    std::uint64_t openRow() const { return openRow_; }

    /** This bank's own gate for @p cmd: ACT, RD, WR or PRE (refresh
     *  reads the ACT gate). */
    Tick
    allowedAt(DramCommandType cmd) const
    {
        return allowedAt_[static_cast<std::size_t>(cmd)];
    }
    Tick
    actAllowedAt() const
    {
        return allowedAt(DramCommandType::Activate);
    }
    Tick rdAllowedAt() const { return allowedAt(DramCommandType::Read); }
    Tick wrAllowedAt() const { return allowedAt(DramCommandType::Write); }
    Tick
    preAllowedAt() const
    {
        return allowedAt(DramCommandType::Precharge);
    }

    /** Number of column accesses to the currently open row. */
    std::uint32_t accessesThisActivation() const { return accesses_; }

    /** Tick of the most recent column access (for timer policies). */
    Tick lastAccessAt() const { return lastAccessAt_; }

    /** Apply an activate issued at @p now. */
    void
    activate(std::uint64_t row, Tick now, TickSpan rcdTicks,
             TickSpan rasTicks, TickSpan rcTicks)
    {
        openRow_ = row;
        lastAccessAt_ = now;
        accesses_ = 0;
        raise(DramCommandType::Read, now + rcdTicks);
        raise(DramCommandType::Write, now + rcdTicks);
        raise(DramCommandType::Precharge, now + rasTicks);
        raise(DramCommandType::Activate, now + rcTicks);
    }

    /** Apply a column read issued at @p now. */
    void
    read(Tick now, TickSpan rtpTicks)
    {
        ++accesses_;
        lastAccessAt_ = now;
        raise(DramCommandType::Precharge, now + rtpTicks);
    }

    /** Apply a column write issued at @p now. */
    void
    write(Tick now, TickSpan writeRecoveryTicks)
    {
        ++accesses_;
        lastAccessAt_ = now;
        raise(DramCommandType::Precharge, now + writeRecoveryTicks);
    }

    /** Apply a precharge issued at @p now. */
    void
    precharge(Tick now, TickSpan rpTicks)
    {
        openRow_ = kNoRow;
        accesses_ = 0;
        raise(DramCommandType::Activate, now + rpTicks);
    }

    /** Push the earliest-activate time forward (refresh). */
    void
    blockUntil(Tick t)
    {
        raise(DramCommandType::Activate, t);
    }

  private:
    /** Push @p cmd's gate forward to @p t (gates never move back). */
    void
    raise(DramCommandType cmd, Tick t)
    {
        Tick &gate = allowedAt_[static_cast<std::size_t>(cmd)];
        if (t > gate)
            gate = t;
    }

    std::uint64_t openRow_ = kNoRow;
    std::uint32_t accesses_ = 0;
    /** Gates indexed by DramCommandType: ACT, RD, WR, PRE. */
    Tick allowedAt_[4];
    Tick lastAccessAt_;
};

} // namespace mcsim

#endif // CLOUDMC_DRAM_BANK_HH
