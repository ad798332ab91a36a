#include "sched_basic.hh"

namespace mcsim {

int
FcfsScheduler::choose(const std::vector<Candidate> &cands, Tick,
                      const SchedulerContext &)
{
    // Find the globally oldest request; issue only its command.
    int oldest = -1;
    for (std::size_t i = 0; i < cands.size(); ++i) {
        if (oldest < 0 || olderThan(*cands[i].req, *cands[oldest].req))
            oldest = static_cast<int>(i);
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
    // A bank's head is its oldest request by olderThan(); selection
    // among heads uses an (arrivedAt, id) tie-break, so two banks whose
    // heads arrived on the same tick resolve by request id (unique per
    // System), never by table layout or candidate order.
    for (std::size_t i = 0; i < cands.size(); ++i) {
        const std::uint32_t key = cands[i].req->coord.flatBankKey();
        if (key >= headOfBank_.size())
            headOfBank_.resize(key + 1, -1);
        int &head = headOfBank_[key];
        if (head < 0 || olderThan(*cands[i].req, *cands[head].req))
            head = static_cast<int>(i);
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
        const Request &r = *cands[i].req;
        if (cands[i].isRowHit &&
            (bestHit < 0 || olderThan(r, *cands[bestHit].req))) {
            bestHit = idx;
        }
        if (bestAny < 0 || olderThan(r, *cands[bestAny].req))
            bestAny = idx;
    }
    return bestHit >= 0 ? bestHit : bestAny;
}

} // namespace mcsim
