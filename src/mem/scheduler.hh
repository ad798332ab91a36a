/**
 * @file
 * Memory scheduling algorithm (MSA) interface.
 *
 * Each DRAM-clock cycle the controller offers the scheduler one
 * candidate per queued request of the active pool (read queue, or
 * write queue while draining; both for unifiedQueues() policies), in
 * pool (enqueue) order, each with the next DRAM command it needs given
 * current bank state and whether that command is issuable this cycle.
 * The scheduler picks one issuable candidate (or none). This factoring
 * lets request-level policies (FCFS, FR-FCFS, PAR-BS, ATLAS) and
 * command-level policies (RL) share one interface.
 */

#ifndef CLOUDMC_MEM_SCHEDULER_HH
#define CLOUDMC_MEM_SCHEDULER_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "dram/commands.hh"
#include "request.hh"

namespace mcsim {

/** One service option the scheduler may pick this cycle. */
struct Candidate
{
    Request *req = nullptr;      ///< The request this command advances.
    DramCommandType cmd = DramCommandType::Activate;
    bool issuableNow = false;    ///< Legal per all DRAM constraints.
    bool isRowHit = false;       ///< CAS to an already-open row.
    /** Earliest tick the command becomes legal absent further issues
     *  (== now when issuableNow); the event kernel's wake-up hint. */
    Tick legalAt;
};

/** Controller state visible to schedulers (beyond the candidates). */
struct SchedulerContext
{
    std::uint32_t numCores = 16;
    std::size_t readQueueLen = 0;
    std::size_t writeQueueLen = 0;
    bool drainingWrites = false;
};

/**
 * Abstract memory scheduling algorithm.
 *
 * Implementations must be deterministic given their seed and the call
 * sequence; all randomness comes from an internal Pcg32.
 */
class Scheduler
{
  public:
    virtual ~Scheduler() = default;

    /** Short policy name used in result tables. */
    virtual const char *name() const = 0;

    /**
     * Pick a candidate index to issue this cycle, or -1 to stay idle.
     * Only candidates with issuableNow set may be returned.
     */
    virtual int choose(const std::vector<Candidate> &cands, Tick now,
                       const SchedulerContext &ctx) = 0;

    /** A request entered the controller queues. */
    virtual void onRequestArrived(const Request &) {}

    /** The request's CAS was issued (it left the pool). */
    virtual void onRequestServiced(const Request &) {}

    /** Per controller-cycle bookkeeping (quantum counters etc.). */
    virtual void tick(Tick, const SchedulerContext &) {}

    /**
     * Event-kernel contract: the earliest tick > now at which tick()
     * would do anything, assuming no requests arrive or get serviced
     * in between. Policies whose tick() is a no-op (the default) or
     * whose state advances only on request events return kMaxTick;
     * quantum/decay/shuffle policies return their next deadline. The
     * kernel guarantees a tick() call at the first controller cycle at
     * or after the returned tick, which is exactly when the per-cycle
     * reference loop would have observed the deadline.
     */
    virtual Tick
    nextEventAt(Tick now) const
    {
        (void)now;
        return kMaxTick;
    }

    /**
     * True if the policy selects from reads and writes together every
     * cycle instead of using read/write drain phases. The paper notes
     * this for RL (Section 4.1.3): it "considers both reads and writes
     * when it selects the memory request to serve next".
     */
    virtual bool unifiedQueues() const { return false; }
};

} // namespace mcsim

#endif // CLOUDMC_MEM_SCHEDULER_HH
