#include "mem_controller.hh"

#include <algorithm>

#include "common/log.hh"

namespace mcsim {

MemController::MemController(Channel &channel,
                             std::unique_ptr<Scheduler> scheduler,
                             std::unique_ptr<PagePolicy> pagePolicy,
                             std::uint32_t numCores,
                             MemControllerConfig cfg)
    : channel_(channel), clk_(channel.clocks()),
      scheduler_(std::move(scheduler)),
      unifiedQueues_(scheduler_ && scheduler_->unifiedQueues()),
      pagePolicy_(std::move(pagePolicy)), numCores_(numCores),
      cfg_(std::move(cfg))
{
    mc_assert(scheduler_ && pagePolicy_,
              "controller needs a scheduler and a page policy");
    mc_assert(cfg_.writeDrainLow < cfg_.writeDrainHigh,
              "write drain watermarks inverted");
    stats_.perCoreReads.assign(numCores_ + 1, 0);
    stats_.perCoreLatencyTicks.assign(numCores_ + 1, TickSpan{});

    banksPerRank_ = channel_.geometry().banksPerRank;
    const std::uint32_t groups = channel_.geometry().bankGroupsPerRank;
    const std::size_t banks =
        std::size_t{channel_.numRanks()} * banksPerRank_;
    banks_.resize(banks);
    floors_.resize(std::size_t{channel_.numRanks()} * groups);
    for (std::uint32_t r = 0; r < channel_.numRanks(); ++r) {
        for (std::uint32_t b = 0; b < banksPerRank_; ++b) {
            BankState &bs = banks_[flatBank(r, b)];
            bs.rank = r;
            bs.bank = b;
            bs.dram = &channel_.bank(r, b);
            bs.groupKey = r * groups + channel_.groupOf(b);
            floors_[bs.groupKey].rank = r;
            floors_[bs.groupKey].group = channel_.groupOf(b);
        }
    }
    openBanks_.assign((banks + 63) / 64, 0);
    syncWithChannel();
}

void
MemController::syncWithChannel()
{
    for (std::size_t b = 0; b < banks_.size(); ++b) {
        rowChanged(b, banks_[b].dram->openRow());
    }
    seenCommands_ = channel_.commandsIssued();
}

void
MemController::resetStats(Tick now)
{
    MemControllerStats fresh;
    fresh.perCoreReads.assign(numCores_ + 1, 0);
    fresh.perCoreLatencyTicks.assign(numCores_ + 1, TickSpan{});
    fresh.readQueueLen.reset(now);
    fresh.writeQueueLen.reset(now);
    fresh.readQueueLen.update(now, static_cast<double>(readQ_.size()));
    fresh.writeQueueLen.update(now, static_cast<double>(writeQ_.size()));
    stats_ = std::move(fresh);
    channel_.resetStats(now);
}

void
MemController::enqueue(Request *req, Tick now)
{
    req->arrivedAt = now;
    const QueueEntry entry{
        req, req->coord.row, req->addr, req->availableAt,
        static_cast<std::uint32_t>(
            flatBank(req->coord.rank, req->coord.bank)),
        req->isWrite};
    if (!req->isWrite) {
        // Read-around-write forwarding: a read that matches a queued
        // write is satisfied from the write queue.
        for (const QueueEntry &w : writeQ_) {
            if (w.addr == req->addr) {
                ++stats_.forwardedReads;
                req->completedAt =
                    now + clk_.dramToTicks(cfg_.forwardLatencyCycles);
                responses_.push({req->completedAt, req});
                return;
            }
        }
        readQ_.push_back(entry);
        stats_.readQueueLen.update(now, static_cast<double>(readQ_.size()));
    } else {
        writeQ_.push_back(entry);
        stats_.writeQueueLen.update(now,
                                    static_cast<double>(writeQ_.size()));
    }
    req->seq = ++nextSeq_;
    ++queueChanges_;
    scheduler_->onRequestArrived(*req);
}

static_assert(static_cast<int>(DramCommandType::Activate) == 0 &&
                  static_cast<int>(DramCommandType::Read) == 1 &&
                  static_cast<int>(DramCommandType::Write) == 2 &&
                  static_cast<int>(DramCommandType::Precharge) == 3,
              "gates, floors and nextCommand() index by command type");

Channel::CommandFloors
MemController::fillFloors(const GroupFloors &g) const
{
    Channel::CommandFloors f = channel_.sharedFloors(g.rank, g.group);
    const Tick bus = channel_.cmdBusFreeAt();
    for (Tick &t : f)
        t = std::max(t, bus);
    return f;
}

Tick
MemController::composedLegalAt(std::uint32_t rank, std::uint32_t bank,
                               DramCommandType cmd, Tick now) const
{
    const BankState &bs = banks_[flatBank(rank, bank)];
    const bool open = bs.openRow != Bank::kNoRow;
    const auto c = static_cast<std::size_t>(cmd);
    if (c >= kBankCommands || open == (cmd == DramCommandType::Activate))
        return kMaxTick;
    return std::max(std::max(bs.dram->allowedAt(cmd),
                             fillFloors(floors_[bs.groupKey])[c]),
                    now);
}

void
MemController::rowChanged(std::size_t b, std::uint64_t row)
{
    banks_[b].openRow = row;
    const std::uint64_t bit = std::uint64_t{1} << (b & 63);
    if (row != Bank::kNoRow)
        openBanks_[b >> 6] |= bit;
    else
        openBanks_[b >> 6] &= ~bit;
}

IssueResult
MemController::issueCommand(const DramCommand &cmd, Tick now)
{
    const IssueResult res = channel_.issue(cmd, now);
    const std::size_t b = flatBank(cmd.rank, cmd.bank);
    switch (cmd.type) {
      case DramCommandType::Activate:
        rowChanged(b, cmd.row);
        break;
      case DramCommandType::Precharge:
        rowChanged(b, Bank::kNoRow);
        break;
      case DramCommandType::Read:
      case DramCommandType::Write:
      case DramCommandType::Refresh:
        break;
    }
    seenCommands_ = channel_.commandsIssued();
    return res;
}

void
MemController::deliverResponses(Tick now)
{
    while (!responses_.empty() && responses_.top().readyAt <= now) {
        Request *req = responses_.top().req;
        responses_.pop();
        const TickSpan latency = req->completedAt - req->arrivedAt;
        ++stats_.readLatencySamples;
        stats_.readLatencyTicks += latency;
        stats_.readLatencyHist.sample(clk_.ticksToCore(latency).count());
        const std::uint32_t slot = coreSlot(req->core, numCores_);
        ++stats_.perCoreReads[slot];
        stats_.perCoreLatencyTicks[slot] += latency;
        if (onComplete_)
            onComplete_(req, now);
    }
}

void
MemController::updateDrainMode(Tick now)
{
    if (!readQ_.empty())
        lastReadPendingAt_ = now;
    const bool readsLongIdle =
        readQ_.empty() &&
        now - lastReadPendingAt_ >=
            clk_.dramToTicks(cfg_.writeIdleDrainCycles);

    if (drainingWrites_) {
        // The long-idle drain keeps going; the watermark drain stops at
        // the low mark so arriving reads see a short write burst at most.
        if (!readsLongIdle &&
            (writeQ_.size() <= cfg_.writeDrainLow || writeQ_.empty())) {
            drainingWrites_ = false;
        }
    } else {
        if (writeQ_.size() >= cfg_.writeDrainHigh ||
            (readQ_.empty() && writeQ_.size() >= cfg_.writeDrainIdle) ||
            (readsLongIdle && !writeQ_.empty())) {
            drainingWrites_ = true;
        }
    }
    if (writeQ_.empty())
        drainingWrites_ = false;
}

std::optional<DramCommand>
MemController::refreshStep(Tick now) const
{
    const int rankIdx = channel_.refreshDueRank(now);
    if (rankIdx < 0)
        return std::nullopt;
    const auto r = static_cast<std::uint32_t>(rankIdx);
    const Rank &rank = channel_.rank(r);

    if (channel_.perBankRefresh()) {
        // REFpb targets one bank round-robin; only it must be closed,
        // the rest of the rank stays schedulable.
        const std::uint32_t b = rank.refreshDueBank();
        return rank.bank(b).isOpen() ? DramCommand::precharge(r, b)
                                     : DramCommand::refreshBank(r, b);
    }
    // All-bank refresh: close the rank's open banks first, lowest
    // index first.
    for (std::uint32_t b = 0; b < rank.numBanks(); ++b) {
        if (rank.bank(b).isOpen())
            return DramCommand::precharge(r, b);
    }
    return DramCommand::refresh(r);
}

bool
MemController::tryRefresh(Tick now)
{
    const auto cmd = refreshStep(now);
    if (!cmd || !channel_.canIssue(*cmd, now))
        return false; // None due, or its next step must wait.
    if (cmd->type == DramCommandType::Precharge) {
        const Bank &bank = channel_.bank(cmd->rank, cmd->bank);
        recordPrecharge(cmd->rank, cmd->bank, bank.openRow(),
                        bank.accessesThisActivation());
    }
    issueCommand(*cmd, now);
    return true;
}

std::pair<int, int>
MemController::activeKinds() const
{
    // Schedulers and page policies see the *active* transaction pool:
    // the read queue in read mode, the write queue while draining.
    // Parked writes are not serviceable, so treating them as pending
    // conflicts would collapse open-adaptive into close-adaptive
    // whenever the write queue holds a few random writebacks.
    if (unifiedQueues_)
        return {0, 2};
    return drainingWrites_ ? std::pair{1, 2} : std::pair{0, 1};
}

void
MemController::collectCandidates(Tick now)
{
    if (channel_.commandsIssued() == candsCommands_ &&
        queueChanges_ == candsQueueChanges_ &&
        drainingWrites_ == candsDraining_) {
        // Only time has passed since the last build: the same requests
        // need the same commands at the same unclamped legal ticks, a
        // gate open then is still open, and the pending masks hold.
        // Re-clamp to now.
        for (Candidate &c : cands_) {
            c.legalAt = std::max(c.legalAt, now);
            c.issuableNow = c.legalAt <= now;
        }
        return;
    }
    candsCommands_ = channel_.commandsIssued();
    candsQueueChanges_ = queueChanges_;
    candsDraining_ = drainingWrites_;
    floorsEpoch_ = candsCommands_ + 1;
    for (BankState &bs : banks_)
        bs.pending = 0;
    const auto [firstKind, endKind] = activeKinds();
    collectRequests(firstKind, endKind, now);
}

void
MemController::collectRequests(int firstKind, int endKind, Tick now)
{
    std::size_t n = 0;
    for (int k = firstKind; k < endKind; ++k)
        n += (k ? writeQ_ : readQ_).size();
    cands_.resize(n);
    Candidate *out = cands_.data();
    for (int k = firstKind; k < endKind; ++k) {
        for (const QueueEntry &e : k ? writeQ_ : readQ_) {
            BankState &bs = banks_[e.bank];
            const std::size_t c = nextCommand(bs, e.row, e.isWrite);
            const auto cmd = static_cast<DramCommandType>(c);
            // A backend-imposed earliest-service tick (a remap or tier
            // migration in flight over this request's slot) delays
            // whichever command the request needs next. Zero for most
            // requests.
            const Tick legal =
                std::max(std::max(bs.dram->allowedAt(cmd), floorsFor(bs)[c]),
                         std::max(e.availableAt, now));
            const bool hit = e.row == bs.openRow;
            bs.pending |= static_cast<std::uint8_t>(2 - hit);
            out->req = e.req;
            out->cmd = cmd;
            out->isRowHit = hit;
            out->legalAt = legal;
            out->issuableNow = legal <= now;
            ++out;
        }
    }
}

void
MemController::removeFromQueue(std::vector<QueueEntry> &q, Request *req)
{
    auto it = std::find_if(q.begin(), q.end(), [req](const QueueEntry &e) {
        return e.req == req;
    });
    mc_assert(it != q.end(), "request not in its queue");
    q.erase(it);
}

void
MemController::serviceCas(Request *req, Tick now, Tick dataReadyAt)
{
    // Classify the row outcome for the hit-rate statistics.
    if (req->preIssued) {
        req->outcome = RowOutcome::Conflict;
        ++stats_.rowConflicts;
    } else if (req->actIssued) {
        req->outcome = RowOutcome::Miss;
        ++stats_.rowMisses;
    } else {
        req->outcome = RowOutcome::Hit;
        ++stats_.rowHits;
    }

    scheduler_->onRequestServiced(*req);
    ++queueChanges_;
    if (req->isWrite) {
        removeFromQueue(writeQ_, req);
        stats_.writeQueueLen.update(now,
                                    static_cast<double>(writeQ_.size()));
        ++stats_.servedWrites;
        req->completedAt = now;
        if (onComplete_)
            onComplete_(req, now);
    } else {
        removeFromQueue(readQ_, req);
        stats_.readQueueLen.update(now, static_cast<double>(readQ_.size()));
        ++stats_.servedReads;
        req->completedAt = dataReadyAt;
        responses_.push({dataReadyAt, req});
    }
}

void
MemController::recordPrecharge(std::uint32_t rank, std::uint32_t bank,
                               std::uint64_t row, std::uint32_t accesses)
{
    stats_.activationAccesses.sample(accesses);
    pagePolicy_->onPrecharge(rank, bank, row, accesses);
}

bool
MemController::issueCandidate(const Candidate &cand, Tick now)
{
    Request *req = cand.req;
    switch (cand.cmd) {
      case DramCommandType::Precharge: {
        const Bank &bank = channel_.bank(req->coord.rank, req->coord.bank);
        recordPrecharge(req->coord.rank, req->coord.bank, bank.openRow(),
                        bank.accessesThisActivation());
        issueCommand(
            DramCommand::precharge(req->coord.rank, req->coord.bank), now);
        req->preIssued = true;
        return true;
      }
      case DramCommandType::Activate:
        issueCommand(DramCommand::activate(req->coord), now);
        pagePolicy_->onActivate(req->coord.rank, req->coord.bank,
                                req->coord.row);
        req->actIssued = true;
        return true;
      case DramCommandType::Read: {
        const auto res = issueCommand(DramCommand::read(req->coord), now);
        serviceCas(req, now, res.dataReadyAt);
        return true;
      }
      case DramCommandType::Write:
        issueCommand(DramCommand::write(req->coord), now);
        serviceCas(req, now, Tick{});
        return true;
      default:
        mc_panic("unexpected candidate command");
    }
    return false;
}

bool
MemController::tryPolicyPrecharge(Tick now, Tick *nextCloseEvent)
{
    const auto consider = [nextCloseEvent](Tick t) {
        if (nextCloseEvent && t < *nextCloseEvent)
            *nextCloseEvent = t;
    };
    for (std::size_t w = 0; w < openBanks_.size(); ++w) {
        for (std::uint64_t m = openBanks_[w]; m; m &= m - 1) {
            const std::size_t b =
                w * 64 + static_cast<std::size_t>(__builtin_ctzll(m));
            const BankState &bs = banks_[b];
            PageQuery q;
            q.rank = bs.rank;
            q.bank = bs.bank;
            q.openRow = bs.openRow;
            q.accessesThisActivation = bs.dram->accessesThisActivation();
            q.pendingHit = (bs.pending & 1) != 0;
            q.pendingConflict = (bs.pending & 2) != 0;
            q.now = now;
            q.lastAccessAt = bs.dram->lastAccessAt();
            if (!pagePolicy_->shouldClose(q)) {
                consider(pagePolicy_->nextCloseEventAt(q));
                continue;
            }
            const Tick legal =
                std::max(bs.dram->preAllowedAt(), legalFloor(now));
            if (legal > now) {
                consider(legal);
                continue;
            }
            recordPrecharge(bs.rank, bs.bank, q.openRow,
                            q.accessesThisActivation);
            issueCommand(DramCommand::precharge(bs.rank, bs.bank), now);
            return true;
        }
    }
    return false;
}

Tick
MemController::tick(Tick now)
{
    const Tick nextCycle = now + clk_.dramToTicks(1);
    if (channel_.commandsIssued() != seenCommands_)
        syncWithChannel(); // Someone else issued on our channel.
    deliverResponses(now);
    updateDrainMode(now);

    SchedulerContext ctx;
    ctx.numCores = numCores_;
    ctx.readQueueLen = readQ_.size();
    ctx.writeQueueLen = writeQ_.size();
    ctx.drainingWrites = drainingWrites_;
    scheduler_->tick(now, ctx);

    // Time-weighted queue statistics observe every executed cycle;
    // skipped cycles leave the piecewise-constant value untouched, so
    // the next update accrues the identical area.
    stats_.readQueueLen.update(now, static_cast<double>(readQ_.size()));
    stats_.writeQueueLen.update(now, static_cast<double>(writeQ_.size()));

    if (tryRefresh(now))
        return nextCycle;

    collectCandidates(now);
    if (!cands_.empty()) {
        const int pick = scheduler_->choose(cands_, now, ctx);
        if (pick >= 0) {
            mc_assert(pick < static_cast<int>(cands_.size()) &&
                          cands_[pick].issuableNow,
                      "scheduler chose an illegal candidate");
            issueCandidate(cands_[pick], now);
            return nextCycle;
        }
    }
    Tick policyCloseEvent = kMaxTick;
    if (tryPolicyPrecharge(now, &policyCloseEvent))
        return nextCycle;

    // Quiescent cycle: nothing issued and nothing can issue before the
    // next event. Ticks in between would be exact no-ops.
    const Tick ev = nextEventAt(now, policyCloseEvent);
    return ev > nextCycle ? ev : nextCycle;
}

Tick
MemController::nextEventAt(Tick now, Tick policyCloseEvent)
{
    Tick ev = kMaxTick;
    const auto consider = [&ev](Tick t) {
        if (t < ev)
            ev = t;
    };

    if (!responses_.empty())
        consider(responses_.top().readyAt);

    consider(scheduler_->nextEventAt(now));

    // A refresh already due but blocked wakes when its next step (a
    // precharge closing a bank, or the refresh itself) becomes legal;
    // a rank not yet due wakes at its deadline, and may take the
    // refresh over from a higher-index rank then.
    if (const auto step = refreshStep(now))
        consider(channel_.nextLegalAt(*step, now));
    consider(channel_.nextRefreshDueAfter(now));

    // First tick any queued request's next command becomes legal —
    // already computed by this cycle's collectCandidates() pass.
    for (const Candidate &c : cands_)
        consider(c.legalAt);

    // Parked writes enter the idle drain once reads have been absent
    // for writeIdleDrainCycles (the only time-driven drain flip).
    if (!drainingWrites_ && readQ_.empty() && !writeQ_.empty()) {
        consider(lastReadPendingAt_ +
                 clk_.dramToTicks(cfg_.writeIdleDrainCycles));
    }

    // Page-policy closures of open banks: a close already wanted waits
    // on precharge legality, otherwise on the policy's own deadline —
    // computed by this cycle's tryPolicyPrecharge() scan.
    consider(policyCloseEvent);
    return ev;
}

} // namespace mcsim
