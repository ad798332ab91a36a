#include "sched_stfm.hh"

#include "dram/dram_params.hh"

namespace mcsim {

StfmScheduler::StfmScheduler(std::uint32_t numCores, StfmConfig cfg,
                             const ClockDomains &clk,
                             const DramTimings &timings)
    : numCores_(numCores), cfg_(cfg), clk_(clk), tm_(timings),
      nextDecayAt_(Tick{} + clk.coreToTicks(cfg.decayCycles)),
      sharedTicks_(numCores + 1, 0.0), aloneTicks_(numCores + 1, 0.0)
{
}

/** Contention-free CAS service estimate in ticks, by row outcome. */
TickSpan
StfmScheduler::aloneServiceTicks(const Request &req, bool isRowHit) const
{
    std::uint32_t cycles = tm_.tCAS + tm_.tBURST;
    if (!isRowHit) {
        cycles += tm_.tRCD;
        if (req.preIssued)
            cycles += tm_.tRP;
    }
    return clk_.dramToTicks(cycles);
}

double
StfmScheduler::slowdownOf(CoreId core) const
{
    const auto s = coreSlot(core, numCores_);
    if (aloneTicks_[s] <= 0.0)
        return 1.0;
    const double ratio = sharedTicks_[s] / aloneTicks_[s];
    return ratio < 1.0 ? 1.0 : ratio;
}

double
StfmScheduler::unfairness() const
{
    double lo = 0.0, hi = 0.0;
    for (std::uint32_t c = 0; c <= numCores_; ++c) {
        if (aloneTicks_[c] <= 0.0)
            continue; // Idle cores do not define fairness.
        const double s = slowdownOf(c);
        if (hi == 0.0 || s > hi)
            hi = s;
        if (lo == 0.0 || s < lo)
            lo = s;
    }
    return lo > 0.0 ? hi / lo : 1.0;
}

int
StfmScheduler::victimCore() const
{
    if (unfairness() <= cfg_.alpha)
        return -1;
    int victim = -1;
    double worst = 0.0;
    for (std::uint32_t c = 0; c <= numCores_; ++c) {
        if (aloneTicks_[c] <= 0.0)
            continue;
        const double s = slowdownOf(c);
        if (victim < 0 || s > worst) {
            worst = s;
            victim = static_cast<int>(c);
        }
    }
    return victim;
}

void
StfmScheduler::accountService(const Candidate &c, Tick now)
{
    const auto s = coreSlot(c.req->core, numCores_);
    sharedTicks_[s] += static_cast<double>((now - c.req->arrivedAt).count());
    aloneTicks_[s] += static_cast<double>(
        aloneServiceTicks(*c.req, c.isRowHit).count());
}

void
StfmScheduler::tick(Tick now, const SchedulerContext &)
{
    if (now < nextDecayAt_)
        return;
    nextDecayAt_ = now + clk_.coreToTicks(cfg_.decayCycles);
    for (std::uint32_t c = 0; c <= numCores_; ++c) {
        sharedTicks_[c] *= cfg_.decayFactor;
        aloneTicks_[c] *= cfg_.decayFactor;
    }
}

int
StfmScheduler::choose(const std::vector<Candidate> &cands, Tick now,
                      const SchedulerContext &)
{
    const TickSpan starveTicks = clk_.coreToTicks(cfg_.starvationCycles);
    const int victim = victimCore();

    const auto better = [&](const Candidate &a,
                            const Candidate &b) -> bool {
        const bool aStarved = now - a.req->arrivedAt >= starveTicks;
        const bool bStarved = now - b.req->arrivedAt >= starveTicks;
        if (aStarved != bStarved)
            return aStarved;
        if (victim >= 0) {
            const bool aVictim = coreSlot(a.req->core, numCores_) ==
                                 static_cast<std::uint32_t>(victim);
            const bool bVictim = coreSlot(b.req->core, numCores_) ==
                                 static_cast<std::uint32_t>(victim);
            if (aVictim != bVictim)
                return aVictim;
        }
        // FR-FCFS order otherwise: row hits, then age.
        if (a.isRowHit != b.isRowHit)
            return a.isRowHit;
        return a.req->arrivedAt < b.req->arrivedAt;
    };

    int best = -1;
    for (std::size_t i = 0; i < cands.size(); ++i) {
        if (!cands[i].issuableNow)
            continue;
        if (best < 0 || better(cands[i], cands[best]))
            best = static_cast<int>(i);
    }
    if (best >= 0) {
        const auto cmd = cands[best].cmd;
        if (cmd == DramCommandType::Read || cmd == DramCommandType::Write)
            accountService(cands[best], now);
    }
    return best;
}

} // namespace mcsim
