/**
 * @file
 * The baseline scheduler family: FCFS, FCFS with per-bank queues, and
 * FR-FCFS (Rixner et al., ISCA 2000).
 */

#ifndef CLOUDMC_MEM_SCHED_BASIC_HH
#define CLOUDMC_MEM_SCHED_BASIC_HH

#include "scheduler.hh"

namespace mcsim {

/**
 * Strict first-come-first-served: only the single oldest request in
 * the pool may be advanced; if its next command cannot issue this
 * cycle, the controller idles. No row-buffer locality or bank-level
 * parallelism is exploited — this is the paper's simplicity extreme,
 * included as an ablation reference (the paper evaluates FCFS_banks).
 */
class FcfsScheduler : public Scheduler
{
  public:
    const char *name() const override { return "FCFS"; }
    int choose(const std::vector<Candidate> &cands, Tick now,
               const SchedulerContext &ctx) override;
};

/**
 * FCFS with logically separate per-bank queues: the oldest request
 * *per bank* is eligible, so independent banks proceed in parallel,
 * but requests to the same bank are never reordered (no row-hit
 * promotion). This is the paper's "FCFS_banks".
 */
class FcfsBanksScheduler : public Scheduler
{
  public:
    const char *name() const override { return "FCFS_banks"; }
    int choose(const std::vector<Candidate> &cands, Tick now,
               const SchedulerContext &ctx) override;

  private:
    /** Candidate index heading each bank queue, indexed by
     *  DramCoord::flatBankKey(); -1 between choose() calls. */
    std::vector<int> headOfBank_;
};

/**
 * First-Ready FCFS: among issuable candidates prefer column accesses
 * to open rows (row hits), then older requests. The paper's baseline.
 */
class FrFcfsScheduler : public Scheduler
{
  public:
    const char *name() const override { return "FR-FCFS"; }
    int choose(const std::vector<Candidate> &cands, Tick now,
               const SchedulerContext &ctx) override;
};

} // namespace mcsim

#endif // CLOUDMC_MEM_SCHED_BASIC_HH
