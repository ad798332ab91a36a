/**
 * @file
 * STFM: Stall-Time Fair Memory scheduling (Mutlu & Moscibroda,
 * MICRO 2007) — the paper's reference [9], cited as one of the
 * fairness proposals FR-FCFS outperforms on server workloads.
 *
 * STFM estimates each core's memory slowdown S = T_shared / T_alone
 * (time its requests actually waited vs. what they would have waited
 * with the memory system to themselves) and, whenever the unfairness
 * ratio max(S)/min(S) exceeds a threshold alpha, elevates the most
 * slowed-down core's requests over the FR-FCFS order.
 *
 * Estimation here is candidate-level: when a CAS is selected, the
 * winning request contributes (now - arrival) to its core's T_shared,
 * and a contention-free service estimate — derived from whether the
 * request needed a precharge and/or activate — to T_alone. Counters
 * decay periodically so the estimate tracks phase changes. This is a
 * faithful simplification of the original's per-bank interference
 * bookkeeping, adapted to the shared candidate interface.
 */

#ifndef CLOUDMC_MEM_SCHED_STFM_HH
#define CLOUDMC_MEM_SCHED_STFM_HH

#include <cstdint>
#include <vector>

#include "dram/dram_params.hh"
#include "scheduler.hh"

namespace mcsim {

/** STFM configuration. */
struct StfmConfig
{
    double alpha = 1.10;              ///< Unfairness trigger threshold.
    std::uint64_t decayCycles = 100'000; ///< Counter half-life interval.
    double decayFactor = 0.5;
    std::uint64_t starvationCycles = 50'000;
};

/** Stall-time fair scheduler. */
class StfmScheduler : public Scheduler
{
  public:
    /**
     * @param clk Clock domains for the cycle-denominated thresholds.
     * @param timings Device timings behind the contention-free service
     *        estimate (T_alone), so the estimate tracks the simulated
     *        device rather than assuming DDR3-1600.
     */
    explicit StfmScheduler(
        std::uint32_t numCores, StfmConfig cfg = StfmConfig{},
        const ClockDomains &clk = kBaselineClocks,
        const DramTimings &timings = DramTimings::ddr3_1600());

    const char *name() const override { return "STFM"; }
    int choose(const std::vector<Candidate> &cands, Tick now,
               const SchedulerContext &ctx) override;
    void tick(Tick now, const SchedulerContext &ctx) override;
    /** Next service-estimate decay (the only time-driven change). */
    Tick nextEventAt(Tick) const override { return nextDecayAt_; }

    /** Estimated slowdown of @p core (1.0 when idle); for tests. */
    double slowdownOf(CoreId core) const;

    /** Current max/min slowdown ratio across active cores. */
    double unfairness() const;

  private:
    /** The core to elevate, or -1 when the system is fair. */
    int victimCore() const;
    TickSpan aloneServiceTicks(const Request &req, bool isRowHit) const;
    void accountService(const Candidate &c, Tick now);

    std::uint32_t numCores_;
    StfmConfig cfg_;
    ClockDomains clk_;
    DramTimings tm_;
    Tick nextDecayAt_;
    std::vector<double> sharedTicks_; ///< Observed waiting time.
    std::vector<double> aloneTicks_;  ///< Contention-free estimate.
};

} // namespace mcsim

#endif // CLOUDMC_MEM_SCHED_STFM_HH
