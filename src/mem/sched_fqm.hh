/**
 * @file
 * Fair Queuing Memory scheduler (Nesbit et al., MICRO 2006).
 *
 * Each (bank, core) pair keeps a virtual service-time counter that
 * advances when that core is serviced at that bank. A bank prioritizes
 * the core with the earliest virtual time — the core that has received
 * the least service from it — equalizing per-core bank bandwidth.
 *
 * The paper describes FQM in its background section but excludes it
 * from the evaluation because later schedulers dominate it; we
 * implement it as an extension and quantify it in the ablation bench.
 */

#ifndef CLOUDMC_MEM_SCHED_FQM_HH
#define CLOUDMC_MEM_SCHED_FQM_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "scheduler.hh"

namespace mcsim {

/** FQM scheduler. */
class FqmScheduler : public Scheduler
{
  public:
    explicit FqmScheduler(std::uint32_t numCores);

    const char *name() const override { return "FQM"; }
    int choose(const std::vector<Candidate> &cands, Tick now,
               const SchedulerContext &ctx) override;
    void onRequestServiced(const Request &req) override;

    /** Virtual time of (core, bankKey); for tests. */
    std::uint64_t virtualTime(CoreId core, std::uint32_t bankKey) const;

  private:

    std::uint32_t numCores_;
    /** bankKey -> per-core virtual time. */
    // Keyed lookup/insert only (sched_fqm.cc); never iterated.
    // detlint-allow(unordered-iter): bucket order never observed
    std::unordered_map<std::uint32_t, std::vector<std::uint64_t>> vtime_;
};

} // namespace mcsim

#endif // CLOUDMC_MEM_SCHED_FQM_HH
