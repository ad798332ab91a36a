#include "sched_rl.hh"

#include <algorithm>

#include "common/log.hh"

namespace mcsim {

namespace {

/** Quantize a queue length to 3 bits (0..7). */
std::uint64_t
quantizeLen(std::size_t len)
{
    if (len >= 32)
        return 7;
    if (len >= 16)
        return 6;
    if (len >= 8)
        return 5;
    return len >= 4 ? 4 : len;
}

/** splitmix64: cheap, well-mixed integer hash. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

} // namespace

RlScheduler::RlScheduler(RlConfig cfg, const ClockDomains &clk)
    : cfg_(cfg), clk_(clk), rng_(cfg.seed, 0x524cULL),
      tables_(static_cast<std::size_t>(cfg.numTables) * cfg.tableSize,
              0.0f)
{
    // tableHash() reduces with a mask, not a division.
    if (cfg_.tableSize == 0 ||
        (cfg_.tableSize & (cfg_.tableSize - 1)) != 0) {
        mc_fatal("RL tableSize must be a power of two, got ",
                 cfg_.tableSize);
    }
}

std::uint64_t
RlScheduler::featurize(const Candidate &c, const SchedulerContext &ctx,
                       std::size_t pendingHits) const
{
    // Pack quantized state and action attributes into one word; the
    // tile hashes slice it per table.
    std::uint64_t f = 0;
    f |= quantizeLen(ctx.readQueueLen);             // 3 bits
    f |= quantizeLen(ctx.writeQueueLen) << 3;       // 3 bits
    f |= quantizeLen(pendingHits) << 6;             // 3 bits
    f |= static_cast<std::uint64_t>(ctx.drainingWrites) << 9;
    f |= static_cast<std::uint64_t>(c.cmd) << 10;   // 3 bits
    f |= static_cast<std::uint64_t>(c.isRowHit) << 13;
    f |= static_cast<std::uint64_t>(c.req->isWrite) << 14;
    f |= static_cast<std::uint64_t>(c.req->isIo) << 15;
    return f;
}

std::uint32_t
RlScheduler::tableHash(std::uint64_t features, std::uint32_t table) const
{
    return static_cast<std::uint32_t>(
        mix64(features ^ (0xabcd0123ULL * (table + 1))) &
        (cfg_.tableSize - 1));
}

double
RlScheduler::qValue(std::uint64_t features) const
{
    double q = 0.0;
    for (std::uint32_t t = 0; t < cfg_.numTables; ++t)
        q += tables_[static_cast<std::size_t>(t) * cfg_.tableSize +
                     tableHash(features, t)];
    return q;
}

void
RlScheduler::update(double reward, double nextQ)
{
    // SARSA: Q(s,a) += alpha * (r + gamma * Q(s',a') - Q(s,a)),
    // spread evenly across the CMAC tables.
    const double delta =
        cfg_.alpha * (reward + cfg_.gamma * nextQ - prevQ_);
    const auto perTable = static_cast<float>(delta / cfg_.numTables);
    for (std::uint32_t t = 0; t < cfg_.numTables; ++t) {
        tables_[static_cast<std::size_t>(t) * cfg_.tableSize +
                tableHash(prevFeatures_, t)] += perTable;
    }
    ++updates_;
}

int
RlScheduler::choose(const std::vector<Candidate> &cands, Tick now,
                    const SchedulerContext &ctx)
{
    std::size_t pendingHits = 0;
    for (const auto &c : cands) {
        if (c.isRowHit)
            ++pendingHits;
    }

    legal_.clear();
    for (std::size_t i = 0; i < cands.size(); ++i) {
        if (cands[i].issuableNow)
            legal_.push_back(static_cast<int>(i));
    }
    if (legal_.empty()) {
        // No action this cycle; defer the SARSA update until a real
        // action is available (idle cycles carry zero reward).
        return -1;
    }

    // Starvation guard: requests waiting longer than the threshold are
    // serviced oldest-first, bypassing the learned policy.
    const TickSpan starveTicks = clk_.coreToTicks(cfg_.starvationCycles);
    int starvedIdx = -1;
    for (int idx : legal_) {
        if (now - cands[idx].req->arrivedAt >= starveTicks) {
            if (starvedIdx < 0 || cands[idx].req->arrivedAt <
                                      cands[starvedIdx].req->arrivedAt) {
                starvedIdx = idx;
            }
        }
    }

    // A starved request or an exploratory pick bypasses the learned
    // policy; otherwise the greedy scan below picks.
    int chosen = starvedIdx;
    if (chosen < 0 && rng_.chance(cfg_.epsilon)) {
        // Explore uniformly among the legal commands, plus no-action
        // when configured (the original action vocabulary includes it;
        // an exploratory no-op burns the issue slot).
        const auto extra = cfg_.exploreNoAction ? 1u : 0u;
        const auto pick = rng_.below(
            static_cast<std::uint32_t>(legal_.size()) + extra);
        ++explorations_;
        if (pick == legal_.size()) {
            // No-action: defer the SARSA update to the next real
            // decision (idle cycles carry zero reward either way).
            return -1;
        }
        chosen = legal_[pick];
    }

    std::uint64_t feats = 0;
    double q = 0.0;
    if (chosen >= 0) {
        feats = featurize(cands[chosen], ctx, pendingHits);
        q = qValue(feats);
    } else {
        // Greedy: the first legal candidate with the highest Q-value.
        // A candidate whose feature word an earlier one already had
        // scores the same Q and cannot win the strict '>' scan, so
        // each distinct word is scored once.
        scored_.clear();
        for (int idx : legal_) {
            const std::uint64_t f = featurize(cands[idx], ctx, pendingHits);
            if (std::find(scored_.begin(), scored_.end(), f) !=
                scored_.end()) {
                continue;
            }
            scored_.push_back(f);
            const double qf = qValue(f);
            if (chosen < 0 || qf > q) {
                chosen = idx;
                feats = f;
                q = qf;
            }
        }
    }

    if (havePrev_)
        update(prevReward_, q);

    prevFeatures_ = feats;
    prevQ_ = q;
    const auto cmd = cands[chosen].cmd;
    prevReward_ = (cmd == DramCommandType::Read ||
                   cmd == DramCommandType::Write)
                      ? 1.0
                      : 0.0;
    havePrev_ = true;
    return chosen;
}

} // namespace mcsim
