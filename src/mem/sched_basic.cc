#include "sched_basic.hh"

namespace mcsim {

int
FcfsScheduler::choose(const std::vector<Candidate> &cands, Tick,
                      const SchedulerContext &)
{
    // Find the globally oldest request; issue only its command.
    int oldest = -1;
    for (std::size_t i = 0; i < cands.size(); ++i) {
        if (oldest < 0 ||
            cands[i].req->arrivedAt < cands[oldest].req->arrivedAt) {
            oldest = static_cast<int>(i);
        }
    }
    if (oldest >= 0 && cands[oldest].issuableNow)
        return oldest;
    return -1;
}

int
FcfsBanksScheduler::choose(const std::vector<Candidate> &cands, Tick,
                           const SchedulerContext &)
{
    // Oldest request per (rank, bank) is eligible; among the eligible
    // and issuable ones, pick the oldest overall (age fairness across
    // banks; the bank queues themselves are strictly in order).
    // Selection walks the candidate vector in index order with an
    // (arrivedAt, id) tie-break, so two banks whose heads arrived on
    // the same tick resolve by request id, never by table layout.
    for (std::size_t i = 0; i < cands.size(); ++i) {
        const std::uint32_t key = cands[i].req->coord.flatBankKey();
        if (key >= headOfBank_.size())
            headOfBank_.resize(key + 1, -1);
        int &head = headOfBank_[key];
        if (head < 0 ||
            cands[i].req->arrivedAt < cands[head].req->arrivedAt) {
            head = static_cast<int>(i);
        }
    }
    int best = -1;
    for (std::size_t i = 0; i < cands.size(); ++i) {
        int &head = headOfBank_[cands[i].req->coord.flatBankKey()];
        if (head != static_cast<int>(i))
            continue; // Not the head of its bank queue.
        // Each head is reached exactly once, so clearing it here
        // leaves the whole table at -1 for the next call.
        head = -1;
        if (!cands[i].issuableNow)
            continue;
        const Request &r = *cands[i].req;
        if (best < 0 || r.arrivedAt < cands[best].req->arrivedAt ||
            (r.arrivedAt == cands[best].req->arrivedAt &&
             r.id < cands[best].req->id)) {
            best = static_cast<int>(i);
        }
    }
    return best;
}

int
FrFcfsScheduler::choose(const std::vector<Candidate> &cands, Tick,
                        const SchedulerContext &)
{
    int bestHit = -1;
    int bestAny = -1;
    for (std::size_t i = 0; i < cands.size(); ++i) {
        if (!cands[i].issuableNow)
            continue;
        const int idx = static_cast<int>(i);
        if (cands[i].isRowHit) {
            if (bestHit < 0 ||
                cands[i].req->arrivedAt < cands[bestHit].req->arrivedAt) {
                bestHit = idx;
            }
        }
        if (bestAny < 0 ||
            cands[i].req->arrivedAt < cands[bestAny].req->arrivedAt) {
            bestAny = idx;
        }
    }
    return bestHit >= 0 ? bestHit : bestAny;
}

} // namespace mcsim
