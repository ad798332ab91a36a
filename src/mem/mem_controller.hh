/**
 * @file
 * The memory controller: request queues, write-drain state machine,
 * refresh handling, command generation under a pluggable scheduling
 * algorithm and page management policy, and the statistics behind
 * every figure in the paper.
 *
 * One controller instance drives one DRAM channel. tick() must be
 * called once per DRAM command cycle; at most one DRAM command issues
 * per tick, with priority: refresh bookkeeping > the scheduler's pick
 * > an idle page-policy precharge.
 */

#ifndef CLOUDMC_MEM_MEM_CONTROLLER_HH
#define CLOUDMC_MEM_MEM_CONTROLLER_HH

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <queue>
#include <utility>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "dram/channel.hh"
#include "page_policy.hh"
#include "request.hh"
#include "scheduler.hh"

namespace mcsim {

/** Controller tuning knobs. */
struct MemControllerConfig
{
    /** Enter write-drain mode when the write queue reaches this. */
    std::size_t writeDrainHigh = 24;
    /** Leave write-drain mode when the write queue falls to this. */
    std::size_t writeDrainLow = 12;
    /** Drain opportunistically when reads are idle and writes exceed
     *  this (avoids hoarding writes forever on read-light phases). */
    std::size_t writeDrainIdle = 16;
    /** With no pending reads for this many DRAM cycles, drain writes
     *  regardless of queue depth so parked writes cannot starve. */
    std::uint32_t writeIdleDrainCycles = 128;
    /** Latency of read-from-write-queue forwarding, in DRAM cycles. */
    std::uint32_t forwardLatencyCycles = 2;
};

/** Aggregated controller statistics over a measurement window. */
struct MemControllerStats
{
    std::uint64_t servedReads = 0;
    std::uint64_t servedWrites = 0;
    std::uint64_t forwardedReads = 0;

    std::uint64_t rowHits = 0;
    std::uint64_t rowMisses = 0;
    std::uint64_t rowConflicts = 0;

    TickSpan readLatencyTicks; ///< Sum over delivered reads.
    std::uint64_t readLatencySamples = 0;

    /** Read latency distribution in core cycles (tail reporting). */
    LogHistogram readLatencyHist{24};

    TimeWeightedStat readQueueLen;
    TimeWeightedStat writeQueueLen;

    /** Column accesses per activation, sampled at each precharge. */
    SmallHistogram activationAccesses{32};

    std::vector<std::uint64_t> perCoreReads;
    std::vector<TickSpan> perCoreLatencyTicks;
};

/**
 * Memory controller for one channel.
 *
 * Per-tick work is incremental. The read and write queues hold
 * controller-owned entries in pool order that carry what a candidate
 * needs, so building one never dereferences the Request. Every
 * scheduler is offered one candidate per request of the active pool,
 * in pool order, its next command computed from the bank state
 * without a branch.
 *
 * Legality is composed from two parts, the way Channel::nextLegalAt()
 * composes it: the bank's own gate for the command (Bank::allowedAt),
 * and the command's shared floor for the bank's (rank, bank group),
 * clamped to the command bus and the current tick. Floors are
 * computed lazily, once for each (rank, group) a candidate needs
 * until the next command issues.
 *
 * The same pass fills each bank's pending hit/conflict mask, which
 * answers the page policy's queries. While no command issues, no
 * request enters or leaves and the drain mode holds, the candidate
 * set and the masks are kept and the candidates only re-clamped to
 * the current tick.
 */
class MemController
{
  public:
    /** Completion callback: the finished request plus the tick the
     *  controller completed it at (== the tick() argument). The
     *  explicit tick lets the epoch-sharded kernel stage completions
     *  from a shard thread without reading the system clock. */
    using CompletionFn = std::function<void(Request *, Tick)>;

    MemController(Channel &channel, std::unique_ptr<Scheduler> scheduler,
                  std::unique_ptr<PagePolicy> pagePolicy,
                  std::uint32_t numCores,
                  MemControllerConfig cfg = MemControllerConfig{});

    /**
     * Hand a request to the controller. The controller keeps the
     * pointer until the completion callback fires (reads: when the
     * last data beat returns; writes: when the CAS issues).
     */
    void enqueue(Request *req, Tick now);

    /**
     * Advance one DRAM command cycle.
     *
     * Returns the next tick at which tick() must run again for the
     * simulation to stay cycle-exact: the next command cycle when this
     * one did (or could soon do) any work, otherwise the earliest
     * upcoming event — pending response delivery, a scheduler quantum
     * deadline, a refresh deadline (for a refresh already due, the
     * tick its next step becomes legal), the first tick a queued
     * request's next command becomes timing-legal, a write-drain idle
     * flip, or a page-policy closure. Skipping the cycles in between
     * is a no-op: the event kernel relies on that, and enqueue()
     * re-arms the controller on arrivals. May be conservative (early),
     * never late.
     */
    Tick tick(Tick now);

    /** Called for every completed request (reads and writes). */
    void setCompletionCallback(CompletionFn fn) { onComplete_ = std::move(fn); }

    std::size_t readQueueLen() const { return readQ_.size(); }
    std::size_t writeQueueLen() const { return writeQ_.size(); }
    bool drainingWrites() const { return drainingWrites_; }

    Scheduler &scheduler() { return *scheduler_; }
    PagePolicy &pagePolicy() { return *pagePolicy_; }
    Channel &channel() { return channel_; }

    MemControllerStats &stats() { return stats_; }
    const MemControllerStats &stats() const { return stats_; }
    void resetStats(Tick now);

    /**
     * Test hook: the legal tick tick(@p now) would give @p cmd (ACT,
     * RD, WR or PRE; RD/WR to the open row) on (@p rank, @p bank),
     * composed from the bank's gate and its (rank, group) shared floor
     * the way a candidate rebuild composes it, or kMaxTick when the
     * bank's state rules the command out. Equals
     * channel().nextLegalAt(cmd, now).
     */
    Tick composedLegalAt(std::uint32_t rank, std::uint32_t bank,
                         DramCommandType cmd, Tick now) const;

  private:
    /** Commands with a bank gate and a shared floor, indexed by
     *  DramCommandType: ACT, RD, WR, PRE. */
    static constexpr std::size_t kBankCommands = 4;

    /** Per-bank controller state; one flat rank-major array. */
    struct BankState
    {
        std::uint64_t openRow = Bank::kNoRow; ///< Mirrors the channel.
        /** The channel's bank (its banks never move once built); its
         *  gates are read from here. */
        const Bank *dram = nullptr;
        std::uint32_t rank = 0;
        std::uint32_t bank = 0;
        std::uint32_t groupKey = 0; ///< Index into floors_.
        /** What the active pool held for this bank at the last
         *  candidate rebuild: bit 0 a request to the open row, bit 1 a
         *  request to another row. */
        std::uint8_t pending = 0;
    };

    /** A queued request as the candidate rebuild and read forwarding
     *  read it; fixed from enqueue until service. */
    struct QueueEntry
    {
        Request *req;
        std::uint64_t row;
        Addr addr;
        Tick availableAt;
        std::uint32_t bank; ///< Flat rank-major bank index.
        bool isWrite;
    };

    /** Shared floors of one (rank, bank group), at least the command
     *  bus's free tick; valid while epoch matches floorsEpoch_. */
    struct GroupFloors
    {
        Channel::CommandFloors at;
        std::uint64_t epoch = 0;
        std::uint32_t rank = 0;
        std::uint32_t group = 0;
    };

    std::size_t
    flatBank(std::uint32_t rank, std::uint32_t bank) const
    {
        return std::size_t{rank} * banksPerRank_ + bank;
    }

    /**
     * Earliest upcoming event for a quiescent controller (see tick()).
     * @p policyCloseEvent is the page-policy closure event computed by
     * this cycle's tryPolicyPrecharge() pass, so the bank scan is not
     * repeated.
     */
    Tick nextEventAt(Tick now, Tick policyCloseEvent);
    void deliverResponses(Tick now);
    void updateDrainMode(Tick now);
    /**
     * The command tryRefresh() would issue for the refresh due at
     * @p now: a precharge to the due bank (REFpb) or to the rank's
     * lowest open bank (REF) while one is open, else the refresh.
     * Empty when no refresh is due.
     */
    std::optional<DramCommand> refreshStep(Tick now) const;
    bool tryRefresh(Tick now);
    /** Queue kinds (0 reads, 1 writes) of the active pool: [first,
     *  second). */
    std::pair<int, int> activeKinds() const;
    /** Bring cands_ and the banks' pending masks up to date for
     *  @p now: rebuilt after a command issued, a request entered or
     *  left, or the drain mode flipped, else re-clamped. */
    void collectCandidates(Tick now);
    /** Fill cands_ with one candidate per request of the active
     *  pool, in pool order, and OR each into its bank's pending
     *  mask. */
    void collectRequests(int firstKind, int endKind, Tick now);
    /** Bank @p bs's (rank, group) floors (see fillFloors()),
     *  computed on first use after a command issued. */
    const Channel::CommandFloors &
    floorsFor(const BankState &bs)
    {
        GroupFloors &f = floors_[bs.groupKey];
        if (f.epoch != floorsEpoch_) {
            f.at = fillFloors(f);
            f.epoch = floorsEpoch_;
        }
        return f.at;
    }
    /** The channel's sharedFloors() for @p f's (rank, group), each at
     *  least the command bus's free tick. Both move only when a
     *  command issues. */
    Channel::CommandFloors fillFloors(const GroupFloors &f) const;
    /** The next command of a request for @p row at bank @p bs, as an
     *  index without a branch: ACT 0, RD 1, WR 2, PRE 3 is
     *  open*3 - hit*(2 - isWrite). A queued row is never kNoRow, so
     *  a hit implies an open bank. */
    static std::size_t
    nextCommand(const BankState &bs, std::uint64_t row, bool isWrite)
    {
        const std::size_t open = bs.openRow != Bank::kNoRow;
        const std::size_t hit = row == bs.openRow;
        return open * 3 - hit * (2 - std::size_t{isWrite});
    }
    bool issueCandidate(const Candidate &cand, Tick now);
    /**
     * Issue a page-policy precharge if one is wanted and legal. Reads
     * the pending masks, so it runs after this tick's
     * collectCandidates() with no command issued in between. When
     * nothing issues, @p nextCloseEvent (if non-null) receives
     * the earliest tick a closure could fire: a wanted-but-illegal
     * precharge's next-legal tick or the policy's own deadline.
     */
    bool tryPolicyPrecharge(Tick now, Tick *nextCloseEvent = nullptr);
    void serviceCas(Request *req, Tick now, Tick dataReadyAt);
    void recordPrecharge(std::uint32_t rank, std::uint32_t bank,
                         std::uint64_t row, std::uint32_t accesses);
    void removeFromQueue(std::vector<QueueEntry> &q, Request *req);

    /** Issue @p cmd and update the target bank's open row (ACT,
     *  PRE). */
    IssueResult issueCommand(const DramCommand &cmd, Tick now);
    /** The clamp applied to every legal tick at use: no command
     *  issues before the command bus frees or before now. Exact
     *  because the bus-free tick only grows. */
    Tick
    legalFloor(Tick now) const
    {
        return std::max(channel_.cmdBusFreeAt(), now);
    }
    /** Flat bank @p b's open row became @p row. */
    void rowChanged(std::size_t b, std::uint64_t row);
    /** Rebuild every bank mirror after commands issued on the channel
     *  by someone other than this controller. */
    void syncWithChannel();

    Channel &channel_;
    ClockDomains clk_; ///< Mirrored from the channel at construction.
    std::unique_ptr<Scheduler> scheduler_;
    /** scheduler_->unifiedQueues(), fixed per scheduler type. */
    const bool unifiedQueues_;
    std::unique_ptr<PagePolicy> pagePolicy_;
    std::uint32_t numCores_;
    MemControllerConfig cfg_;

    std::vector<QueueEntry> readQ_;
    std::vector<QueueEntry> writeQ_;
    std::vector<Candidate> cands_; ///< Reused each cycle.
    /** Requests entered or left the queues (enqueue, service). */
    std::uint64_t queueChanges_ = 0;
    /** What cands_ was built from: the channel's command count, the
     *  queue changes and the drain mode. While all three still match,
     *  only time has passed and cands_ is rebuilt by re-clamping. */
    std::uint64_t candsCommands_ = ~std::uint64_t{0};
    std::uint64_t candsQueueChanges_ = 0;
    bool candsDraining_ = false;

    std::uint32_t banksPerRank_;
    std::vector<BankState> banks_; ///< Flat rank-major, ranks x banks.
    /** Bit b set while flat bank b is open; the page policy visits
     *  open banks in index order. */
    std::vector<std::uint64_t> openBanks_;
    std::vector<GroupFloors> floors_; ///< Flat (rank, group).
    /** The channel's command count plus one at the current rebuild:
     *  floors filled under another count are stale. */
    std::uint64_t floorsEpoch_ = 0;
    std::uint64_t nextSeq_ = 0;
    /** channel_.commandsIssued() as of this controller's last issue. */
    std::uint64_t seenCommands_ = 0;

    struct PendingResponse
    {
        Tick readyAt;
        Request *req;
        bool operator>(const PendingResponse &o) const
        {
            return readyAt > o.readyAt;
        }
    };
    std::priority_queue<PendingResponse, std::vector<PendingResponse>,
                        std::greater<PendingResponse>> responses_;

    bool drainingWrites_ = false;
    Tick lastReadPendingAt_; ///< Last tick the read queue was non-empty.
    CompletionFn onComplete_;
    MemControllerStats stats_;
};

} // namespace mcsim

#endif // CLOUDMC_MEM_MEM_CONTROLLER_HH
