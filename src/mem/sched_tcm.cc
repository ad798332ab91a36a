#include "sched_tcm.hh"

#include <algorithm>
#include <numeric>

namespace mcsim {

TcmScheduler::TcmScheduler(std::uint32_t numCores, TcmConfig cfg,
                           const ClockDomains &clk)
    : numCores_(numCores), clk_(clk), cfg_(cfg), rng_(cfg.seed, 0x7c4d),
      quantumEndsAt_(Tick{} + clk.coreToTicks(cfg.quantumCycles)),
      nextShuffleAt_(Tick{} + clk.coreToTicks(cfg.shuffleCycles)),
      arrived_(numCores + 1, 0), serviced_(numCores + 1, 0),
      latency_(numCores + 1, true), prio_(numCores + 1, 0)
{
    // Until the first quantum completes every core sits in the latency
    // cluster with equal priority: TCM degenerates to FR-FCFS.
}

void
TcmScheduler::onRequestArrived(const Request &req)
{
    ++arrived_[coreSlot(req.core, numCores_)];
}

void
TcmScheduler::onRequestServiced(const Request &req)
{
    ++serviced_[coreSlot(req.core, numCores_)];
}

void
TcmScheduler::newQuantum()
{
    ++quanta_;

    // Sort cores by memory intensity, least intensive first. The IO
    // pseudo-core always lands in the bandwidth cluster: DMA traffic
    // is throughput-bound by construction.
    std::vector<std::uint32_t> order(numCores_);
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(),
                     [this](std::uint32_t a, std::uint32_t b) {
                         return arrived_[a] < arrived_[b];
                     });

    const std::uint64_t totalBw =
        std::accumulate(serviced_.begin(), serviced_.end(),
                        std::uint64_t{0});
    const double budget = cfg_.clusterFrac * static_cast<double>(totalBw);

    std::fill(latency_.begin(), latency_.end(), false);
    bwCores_.clear();
    double used = 0.0;
    std::uint32_t nextPrio = 0;
    for (std::uint32_t c : order) {
        const double bw = static_cast<double>(serviced_[c]);
        if (used + bw <= budget) {
            used += bw;
            latency_[c] = true;
            prio_[c] = nextPrio++;
        } else {
            bwCores_.push_back(c);
        }
    }
    // Bandwidth-cluster cores follow, in (soon to be shuffled) order.
    for (std::uint32_t c : bwCores_)
        prio_[c] = nextPrio++;
    prio_[numCores_] = nextPrio; // IO pseudo-core: lowest priority.

    std::fill(arrived_.begin(), arrived_.end(), 0);
    std::fill(serviced_.begin(), serviced_.end(), 0);
}

void
TcmScheduler::shuffleBandwidthCluster()
{
    if (bwCores_.size() < 2)
        return;
    ++shuffles_;
    // Fisher-Yates with the scheduler's own deterministic stream.
    for (std::size_t i = bwCores_.size() - 1; i > 0; --i) {
        const auto j = rng_.below(static_cast<std::uint32_t>(i + 1));
        std::swap(bwCores_[i], bwCores_[j]);
    }
    const std::uint32_t base =
        static_cast<std::uint32_t>(numCores_ - bwCores_.size());
    for (std::size_t i = 0; i < bwCores_.size(); ++i)
        prio_[bwCores_[i]] = base + static_cast<std::uint32_t>(i);
}

void
TcmScheduler::tick(Tick now, const SchedulerContext &)
{
    if (now >= quantumEndsAt_) {
        newQuantum();
        quantumEndsAt_ = now + clk_.coreToTicks(cfg_.quantumCycles);
    }
    if (now >= nextShuffleAt_) {
        shuffleBandwidthCluster();
        nextShuffleAt_ = now + clk_.coreToTicks(cfg_.shuffleCycles);
    }
}

int
TcmScheduler::choose(const std::vector<Candidate> &cands, Tick now,
                     const SchedulerContext &)
{
    const TickSpan starveTicks = clk_.coreToTicks(cfg_.starvationCycles);
    int best = -1;

    const auto betterThan = [&](const Candidate &a,
                                const Candidate &b) -> bool {
        const bool aStarved = now - a.req->arrivedAt >= starveTicks;
        const bool bStarved = now - b.req->arrivedAt >= starveTicks;
        if (aStarved != bStarved)
            return aStarved;
        if (aStarved) // Among starved requests: strictly oldest first.
            return a.req->arrivedAt < b.req->arrivedAt;
        const auto pa = prio_[coreSlot(a.req->core, numCores_)];
        const auto pb = prio_[coreSlot(b.req->core, numCores_)];
        if (pa != pb)
            return pa < pb;
        if (a.isRowHit != b.isRowHit)
            return a.isRowHit;
        return a.req->arrivedAt < b.req->arrivedAt;
    };

    for (std::size_t i = 0; i < cands.size(); ++i) {
        if (!cands[i].issuableNow)
            continue;
        if (best < 0 || betterThan(cands[i], cands[best]))
            best = static_cast<int>(i);
    }
    return best;
}

} // namespace mcsim
