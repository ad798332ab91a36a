#include "sched_atlas.hh"

#include <algorithm>
#include <numeric>

namespace mcsim {

AtlasScheduler::AtlasScheduler(std::uint32_t numCores, AtlasConfig cfg,
                               const ClockDomains &clk)
    : numCores_(numCores), cfg_(cfg), clk_(clk),
      quantumEndsAt_(Tick{} + clk.coreToTicks(cfg.quantumCycles)),
      quantumAs_(numCores + 1, 0.0), totalAs_(numCores + 1, 0.0),
      rank_(numCores + 1, 0)
{
}

void
AtlasScheduler::newQuantum()
{
    ++quanta_;
    for (std::uint32_t c = 0; c < totalAs_.size(); ++c) {
        totalAs_[c] =
            cfg_.alpha * quantumAs_[c] + (1.0 - cfg_.alpha) * totalAs_[c];
        quantumAs_[c] = 0.0;
    }
    // Least attained service ranks highest (rank value 0).
    std::vector<std::uint32_t> order(totalAs_.size());
    std::iota(order.begin(), order.end(), 0u);
    std::stable_sort(order.begin(), order.end(),
                     [&](std::uint32_t a, std::uint32_t b) {
                         return totalAs_[a] < totalAs_[b];
                     });
    for (std::uint32_t pos = 0; pos < order.size(); ++pos)
        rank_[order[pos]] = pos;
}

void
AtlasScheduler::tick(Tick now, const SchedulerContext &)
{
    if (now >= quantumEndsAt_) {
        newQuantum();
        quantumEndsAt_ = now + clk_.coreToTicks(cfg_.quantumCycles);
    }
}

void
AtlasScheduler::onRequestServiced(const Request &req)
{
    quantumAs_[coreSlot(req.core, numCores_)] += cfg_.serviceUnitsPerCas;
}

int
AtlasScheduler::choose(const std::vector<Candidate> &cands, Tick now,
                       const SchedulerContext &)
{
    const TickSpan starveTicks = clk_.coreToTicks(cfg_.starvationCycles);
    auto starved = [&](const Candidate &c) {
        return now - c.req->arrivedAt >= starveTicks;
    };
    // Over-threshold > core rank (least attained service) > hit > age.
    auto better = [&](const Candidate &a, const Candidate &b) {
        const bool sa = starved(a), sb = starved(b);
        if (sa != sb)
            return sa;
        const auto ra = rank_[coreSlot(a.req->core, numCores_)];
        const auto rb = rank_[coreSlot(b.req->core, numCores_)];
        if (ra != rb)
            return ra < rb;
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
    return best;
}

} // namespace mcsim
