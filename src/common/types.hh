/**
 * @file
 * Fundamental simulation types and the runtime clock-domain model.
 *
 * The simulator runs on a single global tick clock shared by two
 * domains: the core clock and the DRAM command-bus clock. One tick is
 * the greatest common period of the two configured frequencies, so
 * both domains sit on an integer tick grid and cross-domain timing
 * arithmetic never rounds. The tick length is therefore *derived* at
 * runtime from the configured frequencies (a ClockDomains value), not
 * a compile-time constant: the paper's Table 2 baseline (2 GHz cores,
 * DDR3-1600's 800 MHz command bus) yields a 250 ps tick with 2 ticks
 * per core cycle and 5 per DRAM cycle, while e.g. DDR4-2400 under the
 * same cores yields a 166.7 ps tick with ratios 3 and 5.
 *
 * Time is strongly typed. Each clock domain gets a phantom tag
 * (GlobalTick, CoreClock, DramClock) and two wrappers around
 * std::uint64_t:
 *
 *  - Instant<Domain>: an absolute point on that domain's clock
 *    (e.g. Tick = Instant<GlobalTick>, CoreCycle = Instant<CoreClock>).
 *  - Duration<Domain>: a span of that domain's clock
 *    (e.g. TickSpan, CoreCycles, DramCycles).
 *
 * Within a domain the usual affine arithmetic is allowed (instant -
 * instant = duration, instant +/- duration = instant, duration
 * arithmetic and scalar scaling). Mixing domains, adding two instants,
 * or implicitly converting to/from raw integers is a compile error;
 * the only way across domains is an explicit ClockDomains conversion
 * (coreToTicks / dramToTicks / ticksToCore / ticksToDram). The
 * wrappers are single-word, constexpr, and compile to the exact code
 * the raw integers did (see BENCH_kernel.json).
 */

#ifndef CLOUDMC_COMMON_TYPES_HH
#define CLOUDMC_COMMON_TYPES_HH

#include <cstdint>
#include <limits>
#include <numeric>
#include <ostream>

namespace mcsim {

/** Phantom tag: the shared global tick grid. */
struct GlobalTick
{
};
/** Phantom tag: the core / cache / crossbar clock. */
struct CoreClock
{
};
/** Phantom tag: the DRAM command-bus clock (tCK). */
struct DramClock
{
};

/**
 * A span of time measured on @p Domain's clock. Supports additive
 * arithmetic and scalar scaling within the domain only; construction
 * from and extraction to raw integers is explicit (count()).
 */
template <class Domain> class Duration
{
  public:
    constexpr Duration() = default;
    constexpr explicit Duration(std::uint64_t v) : v_(v) {}

    /** The raw number of domain units; the only way back out. */
    constexpr std::uint64_t count() const { return v_; }

    static constexpr Duration
    max()
    {
        return Duration{std::numeric_limits<std::uint64_t>::max()};
    }

    constexpr Duration
    operator+(Duration o) const
    {
        return Duration{v_ + o.v_};
    }
    constexpr Duration
    operator-(Duration o) const
    {
        return Duration{v_ - o.v_};
    }
    constexpr Duration &
    operator+=(Duration o)
    {
        v_ += o.v_;
        return *this;
    }
    constexpr Duration &
    operator-=(Duration o)
    {
        v_ -= o.v_;
        return *this;
    }
    /** Scale by a unitless factor. */
    constexpr Duration
    operator*(std::uint64_t k) const
    {
        return Duration{v_ * k};
    }
    constexpr Duration
    operator/(std::uint64_t k) const
    {
        return Duration{v_ / k};
    }
    /** Ratio of two spans (unitless). */
    constexpr std::uint64_t
    operator/(Duration o) const
    {
        return v_ / o.v_;
    }
    constexpr Duration
    operator%(Duration o) const
    {
        return Duration{v_ % o.v_};
    }

    constexpr bool operator==(Duration o) const { return v_ == o.v_; }
    constexpr bool operator!=(Duration o) const { return v_ != o.v_; }
    constexpr bool operator<(Duration o) const { return v_ < o.v_; }
    constexpr bool operator<=(Duration o) const { return v_ <= o.v_; }
    constexpr bool operator>(Duration o) const { return v_ > o.v_; }
    constexpr bool operator>=(Duration o) const { return v_ >= o.v_; }

  private:
    std::uint64_t v_ = 0;
};

template <class Domain>
constexpr Duration<Domain>
operator*(std::uint64_t k, Duration<Domain> d)
{
    return d * k;
}

/**
 * An absolute point on @p Domain's clock. Affine: instants subtract
 * to a Duration and shift by one, but never add to each other.
 */
template <class Domain> class Instant
{
  public:
    constexpr Instant() = default;
    constexpr explicit Instant(std::uint64_t v) : v_(v) {}

    /** The raw tick/cycle index; the only way back out. */
    constexpr std::uint64_t count() const { return v_; }

    static constexpr Instant
    max()
    {
        return Instant{std::numeric_limits<std::uint64_t>::max()};
    }

    constexpr Duration<Domain>
    operator-(Instant o) const
    {
        return Duration<Domain>{v_ - o.v_};
    }
    constexpr Instant
    operator+(Duration<Domain> d) const
    {
        return Instant{v_ + d.count()};
    }
    constexpr Instant
    operator-(Duration<Domain> d) const
    {
        return Instant{v_ - d.count()};
    }
    constexpr Instant &
    operator+=(Duration<Domain> d)
    {
        v_ += d.count();
        return *this;
    }
    constexpr Instant &
    operator-=(Duration<Domain> d)
    {
        v_ -= d.count();
        return *this;
    }
    /** Phase within a repeating grid of period @p d. */
    constexpr Duration<Domain>
    operator%(Duration<Domain> d) const
    {
        return Duration<Domain>{v_ % d.count()};
    }

    constexpr bool operator==(Instant o) const { return v_ == o.v_; }
    constexpr bool operator!=(Instant o) const { return v_ != o.v_; }
    constexpr bool operator<(Instant o) const { return v_ < o.v_; }
    constexpr bool operator<=(Instant o) const { return v_ <= o.v_; }
    constexpr bool operator>(Instant o) const { return v_ > o.v_; }
    constexpr bool operator>=(Instant o) const { return v_ >= o.v_; }

  private:
    std::uint64_t v_ = 0;
};

template <class Domain>
inline std::ostream &
operator<<(std::ostream &os, Duration<Domain> d)
{
    return os << d.count();
}

template <class Domain>
inline std::ostream &
operator<<(std::ostream &os, Instant<Domain> i)
{
    return os << i.count();
}

/** Global simulation time point; the tick length is set by ClockDomains. */
using Tick = Instant<GlobalTick>;
/** A span of global ticks (latency, window, period). */
using TickSpan = Duration<GlobalTick>;
/** Absolute core-clock cycle index (e.g. System's core-cycle count). */
using CoreCycle = Instant<CoreClock>;
/** A span of core-clock cycles. */
using CoreCycles = Duration<CoreClock>;
/** Absolute DRAM command-bus cycle index. */
using DramCycle = Instant<DramClock>;
/** A span of DRAM command-bus cycles (JEDEC timing parameters). */
using DramCycles = Duration<DramClock>;

/** Physical byte address. */
using Addr = std::uint64_t;

/**
 * Modelled physical address width (32 TiB): trace files are refused
 * at any address at or above 2^kAddrBits. The caches keep 32-bit
 * set-relative tags; for the Table 2 L1s (64 B blocks, 256 sets) this
 * width keeps every tag below 2^31, clear of the all-ones tag that
 * marks an invalid way.
 */
constexpr unsigned kAddrBits = 45;

/** Core (hardware thread) identifier. */
using CoreId = std::uint32_t;

/** Sentinel for "no tick" / "never". */
constexpr Tick kMaxTick = Tick::max();
/** Sentinel span for "unbounded distance" (timing-checker gaps). */
constexpr TickSpan kMaxTickSpan = TickSpan::max();

/**
 * The two clock domains and their shared tick grid.
 *
 * The tick frequency is LCM(coreMhz, dramMhz), so a core cycle spans
 * ticksPerCore ticks and a DRAM command cycle ticksPerDram ticks, both
 * exact integers. Every component converts between its own cycle
 * domain and ticks through the ClockDomains instance it was built
 * with; there is deliberately no global conversion function, so two
 * systems with different devices can coexist in one process (the
 * experiment harness runs them concurrently). These conversions are
 * the *only* bridge between the typed time domains.
 */
struct ClockDomains
{
    std::uint32_t coreMhz = 2000; ///< Core / cache / crossbar clock.
    std::uint32_t dramMhz = 800;  ///< DRAM command-bus clock (tCK).
    TickSpan ticksPerCore{2};     ///< Ticks per core cycle.
    TickSpan ticksPerDram{5};     ///< Ticks per DRAM command cycle.

    /** Derive the tick grid for a (core, DRAM) frequency pair.
     *  Zero frequencies are clamped to 1 MHz (caller-validated). */
    static constexpr ClockDomains
    fromMhz(std::uint32_t core, std::uint32_t dram)
    {
        ClockDomains c;
        c.coreMhz = core ? core : 1;
        c.dramMhz = dram ? dram : 1;
        const std::uint64_t g = std::gcd<std::uint64_t, std::uint64_t>(
            c.coreMhz, c.dramMhz);
        c.ticksPerCore = TickSpan{c.dramMhz / g};
        c.ticksPerDram = TickSpan{c.coreMhz / g};
        return c;
    }

    /** Tick frequency in MHz: LCM of the two domain frequencies. */
    constexpr std::uint64_t
    tickMhz() const
    {
        return static_cast<std::uint64_t>(coreMhz) * ticksPerCore.count();
    }

    /** Wall-clock length of one tick, in nanoseconds. */
    constexpr double
    nsPerTick() const
    {
        return 1000.0 / static_cast<double>(tickMhz());
    }

    /** Wall-clock length of one DRAM command cycle, in nanoseconds.
     *  Defined as nsPerTick() * ticksPerDram so tick-based and
     *  cycle-based energy accounting stay mutually consistent. */
    constexpr double
    nsPerDramCycle() const
    {
        return nsPerTick() * static_cast<double>(ticksPerDram.count());
    }

    /** Wall-clock length of a tick span, in nanoseconds. */
    constexpr double
    ticksToNs(TickSpan t) const
    {
        return static_cast<double>(t.count()) * nsPerTick();
    }

    /** Convert a span of core cycles to a span of ticks. */
    constexpr TickSpan
    coreToTicks(CoreCycles cycles) const
    {
        return TickSpan{cycles.count() * ticksPerCore.count()};
    }

    /** Convert a raw core-cycle count (e.g. a config field) to ticks. */
    constexpr TickSpan
    coreToTicks(std::uint64_t cycles) const
    {
        return TickSpan{cycles * ticksPerCore.count()};
    }

    /** Convert an absolute core-cycle index to its tick (origin 0). */
    constexpr Tick
    coreToTicks(CoreCycle cycle) const
    {
        return Tick{cycle.count() * ticksPerCore.count()};
    }

    /** Convert a span of DRAM cycles to a span of ticks. */
    constexpr TickSpan
    dramToTicks(DramCycles cycles) const
    {
        return TickSpan{cycles.count() * ticksPerDram.count()};
    }

    /** Convert a raw DRAM-cycle count (e.g. a JEDEC timing field) to
     *  ticks. */
    constexpr TickSpan
    dramToTicks(std::uint64_t cycles) const
    {
        return TickSpan{cycles * ticksPerDram.count()};
    }

    /** Convert an absolute DRAM-cycle index to its tick (origin 0). */
    constexpr Tick
    dramToTicks(DramCycle cycle) const
    {
        return Tick{cycle.count() * ticksPerDram.count()};
    }

    /** Convert a tick span to whole core cycles (rounds down). */
    constexpr CoreCycles
    ticksToCore(TickSpan t) const
    {
        return CoreCycles{t.count() / ticksPerCore.count()};
    }

    /** Convert a tick to the core cycle containing it (rounds down). */
    constexpr CoreCycle
    ticksToCore(Tick t) const
    {
        return CoreCycle{t.count() / ticksPerCore.count()};
    }

    /** Convert a tick span to whole DRAM cycles (rounds down). */
    constexpr DramCycles
    ticksToDram(TickSpan t) const
    {
        return DramCycles{t.count() / ticksPerDram.count()};
    }

    /** Convert a tick to the DRAM cycle containing it (rounds down). */
    constexpr DramCycle
    ticksToDram(Tick t) const
    {
        return DramCycle{t.count() / ticksPerDram.count()};
    }

    constexpr bool
    operator==(const ClockDomains &o) const
    {
        return coreMhz == o.coreMhz && dramMhz == o.dramMhz;
    }
    constexpr bool
    operator!=(const ClockDomains &o) const
    {
        return !(*this == o);
    }
};

/** The paper's Table 2 clocking: 2 GHz cores over DDR3-1600. */
inline constexpr ClockDomains kBaselineClocks{};

/** Sentinel core id used for non-core requesters (DMA/IO engines). */
constexpr CoreId kIoCoreId = 0xFFFFu;

/** The per-core table slot of @p core: IO engines and any core id at
 *  or past @p numCores share the one slot after the cores,
 *  @p numCores. */
constexpr std::uint32_t
coreSlot(CoreId core, std::uint32_t numCores)
{
    return core >= numCores ? numCores : core;
}

} // namespace mcsim

#endif // CLOUDMC_COMMON_TYPES_HH
