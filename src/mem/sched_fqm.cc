#include "sched_fqm.hh"

namespace mcsim {

FqmScheduler::FqmScheduler(std::uint32_t numCores) : numCores_(numCores) {}

std::uint64_t
FqmScheduler::virtualTime(CoreId core, std::uint32_t bankKey) const
{
    auto it = vtime_.find(bankKey);
    if (it == vtime_.end())
        return 0;
    return it->second[coreSlot(core, numCores_)];
}

void
FqmScheduler::onRequestServiced(const Request &req)
{
    auto &v = vtime_[req.coord.flatBankKey()];
    if (v.empty())
        v.assign(numCores_ + 1, 0);
    ++v[coreSlot(req.core, numCores_)];
}

int
FqmScheduler::choose(const std::vector<Candidate> &cands, Tick,
                     const SchedulerContext &)
{
    // Earliest virtual time at the target bank wins; row hits then age
    // break ties so the policy still exploits trivially available
    // locality.
    int best = -1;
    std::uint64_t bestVt = 0;
    auto vtOf = [&](const Candidate &c) {
        return virtualTime(c.req->core, c.req->coord.flatBankKey());
    };
    for (std::size_t i = 0; i < cands.size(); ++i) {
        if (!cands[i].issuableNow)
            continue;
        const std::uint64_t vt = vtOf(cands[i]);
        if (best < 0 || vt < bestVt ||
            (vt == bestVt &&
             (cands[i].isRowHit > cands[best].isRowHit ||
              (cands[i].isRowHit == cands[best].isRowHit &&
               cands[i].req->arrivedAt < cands[best].req->arrivedAt)))) {
            best = static_cast<int>(i);
            bestVt = vt;
        }
    }
    return best;
}

} // namespace mcsim
