#include "system.hh"

#include <algorithm>

#include "common/log.hh"

namespace mcsim {

namespace {

constexpr std::uint32_t kBlockBytes = 64;

/** Fixed IO buffer placement: below the 1-channel capacity so DMA
 *  addresses are identical across channel-count sweeps. */
constexpr Addr kIoBufferBase = 7ull << 30;          // 7 GiB
constexpr std::uint64_t kIoBufferBytes = 512 << 20; // 512 MiB

/** @p preset with @p seed mixed into its stream seed; seed 1 (the
 *  default) leaves it as it is. */
WorkloadParams
seededPreset(const WorkloadParams &preset, std::uint64_t seed)
{
    WorkloadParams w = preset;
    w.seed ^= (seed - 1) * 0x9e3779b97f4a7c15ull;
    return w;
}

} // namespace

System::System(const SimConfig &cfg, const WorkloadParams &preset)
    : cfg_(cfg), toMem_(cfg.clocks.coreToTicks(cfg.xbarLatencyCycles)),
      toCpu_(cfg.clocks.coreToTicks(cfg.xbarLatencyCycles))
{
    const WorkloadParams workload = seededPreset(preset, cfg.seed);
    cfg_.numCores = workload.cores;
    cfg_.core.mlpWindow = cfg_.coreMlpOverride ? cfg_.coreMlpOverride
                                               : workload.mlpWindow;
    cfg_.core.storeBufferEntries = workload.storeBufferEntries;

    build(cfg_, cfg_.numCores);
    ownedGenerator_ = std::make_unique<SyntheticWorkload>(
        workload, backend_->capacityBytes());
    generator_ = ownedGenerator_.get();

    if (workload.ioWindow > 0) {
        io_.enabled = true;
        io_.window = workload.ioWindow;
        io_.burstBlocks = workload.ioBurstBlocks;
        io_.writeFrac = workload.ioWriteFrac;
        io_.thinkTicks = cfg_.clocks.dramToTicks(workload.ioThinkDramCycles);
        io_.bufferBase = kIoBufferBase;
        io_.bufferBlocks = kIoBufferBytes / kBlockBytes;
        io_.rng.reseed(workload.seed * 7919 + 17, 0x10);
        mc_assert(kIoBufferBase + kIoBufferBytes <=
                      backend_->capacityBytes(),
                  "IO buffer does not fit in DRAM");
    }

    for (std::uint32_t c = 0; c < cfg_.numCores; ++c) {
        cores_.push_back(std::make_unique<Core>(c, *generator_,
                                                *hierarchy_, cfg_.core));
    }
}

System::System(const SimConfig &cfg, WorkloadGenerator &generator,
               std::uint32_t numCores)
    : cfg_(cfg), toMem_(cfg.clocks.coreToTicks(cfg.xbarLatencyCycles)),
      toCpu_(cfg.clocks.coreToTicks(cfg.xbarLatencyCycles))
{
    cfg_.numCores = numCores;
    build(cfg_, numCores);
    generator_ = &generator;
    for (std::uint32_t c = 0; c < numCores; ++c) {
        cores_.push_back(std::make_unique<Core>(c, *generator_,
                                                *hierarchy_, cfg_.core));
    }
}

System::~System() = default;

void
System::build(const SimConfig &cfg, std::uint32_t numCores)
{
    backend_ = makeMemBackend(cfg, numCores);
    for (std::uint32_t ch = 0; ch < backend_->numQueues(); ++ch) {
        MemController &mc = backend_->queue(ch);
        mc.setCompletionCallback([this, ch](Request *req, Tick at) {
            onMemComplete(req, at, ch);
        });
        controllers_.push_back(&mc);
    }
    complStage_.resize(controllers_.size());
    chArrivals_.resize(controllers_.size());
    mergeIdx_.resize(controllers_.size());
    hierarchy_ = std::make_unique<CacheHierarchy>(numCores, cfg.hierarchy);
    hierarchy_->setSendMemRead(
        [this](CoreId core, Addr addr) { sendMemRead(core, addr); });
    hierarchy_->setSendMemWrite(
        [this](CoreId core, Addr addr) { sendMemWrite(core, addr); });
    hierarchy_->setWake([this](CoreId core, MissKind kind) {
        // Account the blocked stretch under the pre-wake flags before
        // the unblock mutates them.
        cores_[core]->catchUpTo(coreCycles_);
        cores_[core]->missReturned(kind);
        coreDueCycle_[core] = cores_[core]->nextActCycle();
    });
    ctlDueAt_.assign(controllers_.size(), Tick{});
    coreDueCycle_.assign(numCores, CoreCycle{});
}

Request *
System::allocRequest(CoreId core, Addr addr, bool isWrite, bool isIo)
{
    Request *req;
    if (!freeRequests_.empty()) {
        req = freeRequests_.back();
        freeRequests_.pop_back();
    } else {
        requestStorage_.push_back(std::make_unique<Request>());
        req = requestStorage_.back().get();
    }
    *req = Request{};
    req->id = ++nextRequestId_;
    req->core = core;
    req->addr = addr;
    req->isWrite = isWrite;
    req->isIo = isIo;
    // Backend routing (and any remap-policy state it evolves) happens
    // here, on the allocation path: every kernel — reference, event,
    // and the parallel kernel's core shard — allocates requests in the
    // same order at the same ticks, so backend policy decisions are
    // identical under all of them.
    backend_->route(*req, now_);
    return req;
}

void
System::freeRequest(Request *req)
{
    freeRequests_.push_back(req);
}

void
System::sendMemRead(CoreId core, Addr blockAddr)
{
    Request *req = allocRequest(core, blockAddr, false, false);
    if (parallelMode_) {
        reqStage_.push(coreParity_,
                       {now_ + toMem_.latency(), req, reqSeq_++});
        return;
    }
    toMem_.push(now_, req);
    memHorizonDirty_ = true;
}

void
System::sendMemWrite(CoreId core, Addr blockAddr)
{
    Request *req = allocRequest(core, blockAddr, true, false);
    if (parallelMode_) {
        reqStage_.push(coreParity_,
                       {now_ + toMem_.latency(), req, reqSeq_++});
        return;
    }
    toMem_.push(now_, req);
    memHorizonDirty_ = true;
}

void
System::onMemComplete(Request *req, Tick at, std::uint32_t channel)
{
    if (parallelMode_) {
        // Shard thread: park the completion; the core shard replays
        // it (toCpu_ latch + request recycling) in merge order at the
        // next epoch boundary. IO never runs here (parallelShards()
        // returns 0 for IO-enabled systems).
        ChannelStage &cs = complStage_[channel];
        cs.stage.push(cs.parity, {at, req});
        return;
    }
    if (req->isIo && !req->isWrite) {
        // IO reads are closed-loop; IO writes are posted (the device
        // got its ack at issue time and never held a window slot).
        mc_assert(io_.outstanding > 0, "spurious IO completion");
        --io_.outstanding;
        io_.nextIssueAt = at + io_.thinkTicks;
    } else if (!req->isIo && !req->isWrite) {
        toCpu_.push(at, {req->core, req->addr});
    }
    freeRequest(req);
}

void
System::ioStep()
{
    if (!io_.enabled || io_.outstanding >= io_.window ||
        now_ < io_.nextIssueAt) {
        return;
    }
    if (io_.burstLeft == 0) {
        io_.streamPos = io_.rng.below64(io_.bufferBlocks);
        io_.burstLeft = io_.burstBlocks;
    }
    const Addr addr = io_.bufferBase + io_.streamPos * kBlockBytes;
    io_.streamPos = (io_.streamPos + 1) % io_.bufferBlocks;
    --io_.burstLeft;
    const bool isWrite = io_.rng.chance(io_.writeFrac);
    toMem_.push(now_, allocRequest(kIoCoreId, addr, isWrite, true));
    if (isWrite) {
        // Posted: the device paces itself on the ack, not on DRAM.
        io_.nextIssueAt = now_ + io_.thinkTicks;
    } else {
        ++io_.outstanding;
    }
}

void
System::coreStep()
{
    while (toCpu_.ready(now_)) {
        const CpuResponse resp = toCpu_.pop();
        hierarchy_->onMemResponse(resp.core, resp.addr);
    }
    const CoreCycle cycle = coreCycles_;
    CoreCycle minAct = kNeverCycle;
    for (std::size_t i = 0; i < cores_.size(); ++i) {
        Core &core = *cores_[i];
        core.catchUpTo(cycle);
        core.tick();
        ++kernelStats_.coreTicksRun;
        coreDueCycle_[i] = core.nextActCycle();
        if (coreDueCycle_[i] < minAct)
            minAct = coreDueCycle_[i];
    }
    coreCycles_ += CoreCycles{1};
    ++kernelStats_.coreStepsRun;
    coreActEventAt_ = minAct == kNeverCycle
                          ? kMaxTick
                          : cfg_.clocks.coreToTicks(minAct);
}

void
System::coreStepEvent()
{
    while (toCpu_.ready(now_)) {
        const CpuResponse resp = toCpu_.pop();
        hierarchy_->onMemResponse(resp.core, resp.addr);
    }
    const CoreCycle cycle = coreCycles_;
    CoreCycle minAct = kNeverCycle;
    // detlint-allow(raw-tick): counts tick() calls, not time
    std::uint64_t ticks = 0;
    std::uint64_t batchRuns = 0;
    std::uint64_t cyclesBatched = 0;
    for (std::size_t i = 0; i < cores_.size(); ++i) {
        if (coreDueCycle_[i] <= cycle) {
            Core &core = *cores_[i];
            // Guarded inline: a core that batched to (or past) this
            // cycle has nothing to account, which is the common case
            // here — unlike the eager loop, where catch-up is almost
            // always a no-op and stays an out-of-line call.
            if (core.syncedCycles() < cycle)
                core.catchUpTo(cycle);
            core.tick();
            ++ticks;
            // Greedy batch: run the core ahead through provably
            // core-private cycles (L1 hits, compute commits) so the
            // kernel never has to revisit it for them.
            const std::uint64_t batched = core.runBatch(batchLimit_);
            if (batched > 0) {
                ++batchRuns;
                cyclesBatched += batched;
            }
            coreDueCycle_[i] = core.nextActCycle();
        }
        if (coreDueCycle_[i] < minAct)
            minAct = coreDueCycle_[i];
    }
    kernelStats_.coreTicksRun += ticks;
    kernelStats_.coreBatchRuns += batchRuns;
    kernelStats_.coreCyclesBatched += cyclesBatched;
    coreCycles_ += CoreCycles{1};
    ++kernelStats_.coreStepsRun;
    coreActEventAt_ = minAct == kNeverCycle
                          ? kMaxTick
                          : cfg_.clocks.coreToTicks(minAct);
}

void
System::memStep(bool eager)
{
    while (toMem_.ready(now_)) {
        Request *req = toMem_.pop();
        const auto ch = req->coord.channel;
        controllers_[ch]->enqueue(req, now_);
        ctlDueAt_[ch] = now_; // Arrivals re-arm a sleeping controller.
    }
    ioStep();
    for (std::size_t i = 0; i < controllers_.size(); ++i) {
        if (eager || ctlDueAt_[i] <= now_) {
            ctlDueAt_[i] = controllers_[i]->tick(now_);
            ++kernelStats_.ctlTicksRun;
        }
    }
    ++kernelStats_.memStepsRun;
}

void
System::syncCores()
{
    for (auto &core : cores_)
        core->catchUpTo(coreCycles_);
}

Tick
System::coreEventAt() const
{
    const Tick latch = toCpu_.nextReadyAt();
    return latch < coreActEventAt_ ? latch : coreActEventAt_;
}

Tick
System::ioEventAt() const
{
    if (!io_.enabled || io_.outstanding >= io_.window)
        return kMaxTick;
    return io_.nextIssueAt;
}

Tick
System::memEventAt() const
{
    Tick ev = toMem_.nextReadyAt();
    const Tick io = ioEventAt();
    if (io < ev)
        ev = io;
    for (const Tick due : ctlDueAt_) {
        if (due < ev)
            ev = due;
    }
    return ev;
}

namespace {

/** Round @p t up to the next boundary of @p step's grid, saturating. */
Tick
alignUp(Tick t, TickSpan step)
{
    if (t > kMaxTick - step)
        return kMaxTick;
    const TickSpan phase = t % step;
    return phase == TickSpan{0} ? t : t + (step - phase);
}

/**
 * Round @p t up to the next boundary of @p step's grid, given that
 * @p grid already is a boundary at or before the result. Event
 * horizons usually sit within a few boundaries of the pending one, so
 * a short walk from @p grid dodges alignUp()'s 64-bit division.
 */
Tick
alignUpFrom(Tick grid, Tick t, TickSpan step)
{
    if (t <= grid)
        return grid;
    if (t - grid <= std::uint64_t{8} * step) {
        if (t > kMaxTick - step)
            return kMaxTick;
        while (grid < t)
            grid += step;
        return grid;
    }
    return alignUp(t, step);
}

} // namespace

void
System::referenceAdvance(Tick end)
{
    const ClockDomains &clk = cfg_.clocks;
    while (now_ < end) {
        if (now_ % clk.ticksPerCore == TickSpan{0})
            coreStep();
        if (now_ % clk.ticksPerDram == TickSpan{0})
            memStep(true);
        now_ += TickSpan{1};
    }
}

void
System::advance(std::uint64_t coreCycles)
{
    const Tick end = now_ + cfg_.clocks.coreToTicks(coreCycles);
    if (referenceKernel_) {
        referenceAdvance(end);
        syncCores();
        return;
    }
    if (now_ < end && parallelShards() > 0) {
        advanceParallel(end);
        return;
    }
    advanceEvent(end);
}

void
System::advanceEvent(Tick end)
{
    // Pending step boundaries: the first tick of each domain's grid at
    // or after now_ that has not executed yet. The grid steps come from
    // the runtime clock domains, so the walk works for any core:DRAM
    // ratio (the baseline's 2:5 pattern repeating every LCM = 10 ticks
    // is just one instance).
    const TickSpan perCore = cfg_.clocks.ticksPerCore;
    const TickSpan perDram = cfg_.clocks.ticksPerDram;
    Tick nextCore = alignUp(now_, perCore);
    Tick nextMem = alignUp(now_, perDram);
    // Cached aligned horizons. A horizon only moves when its domain's
    // inputs move: the core horizon on a core step or a memory step
    // (which may latch a response toward the cores), the memory
    // horizon on a memory step or a crossbar push from the core side
    // (memHorizonDirty_, set by sendMemRead/Write). Idle boundary
    // elapses never invalidate either (a cached horizon past the
    // elapsed boundary stays on its grid ahead of the new pending
    // boundary), so most iterations skip the recompute entirely.
    Tick tCore{};
    Tick tMem{};
    bool coreDirty = true;
    memHorizonDirty_ = true;
    // Cap batches at the window's final cycle count. The bound is
    // invariant across the window: every boundary in [nextCore, end)
    // adds exactly one core cycle whether it is stepped, skipped, or
    // idle, so compute it once instead of re-deriving (with a 64-bit
    // division) at every stepped boundary.
    batchLimit_ =
        end > nextCore
            ? coreCycles_ +
                  CoreCycles{(end - nextCore - TickSpan{1}) / perCore + 1}
            : coreCycles_;
    while (true) {
        // Earliest boundary of each domain that must actually execute.
        // Events are computed from post-step state, and nothing runs
        // between here and that boundary, so every boundary before it
        // is a provable no-op.
        if (coreDirty) {
            tCore = alignUpFrom(nextCore, coreEventAt(), perCore);
            coreDirty = false;
        }
        if (memHorizonDirty_) {
            tMem = alignUpFrom(nextMem, memEventAt(), perDram);
            memHorizonDirty_ = false;
        }
        const Tick t = std::min(std::min(tCore, tMem), end);

        // Skipped core boundaries still elapse simulated core cycles;
        // the cores account theirs lazily against coreCycles_. Short
        // gaps (the common case) walk instead of dividing.
        if (nextCore < t) {
            std::uint64_t skipped;
            if (t - nextCore <= std::uint64_t{8} * perCore) {
                skipped = 0;
                while (nextCore < t) {
                    nextCore += perCore;
                    ++skipped;
                }
            } else {
                skipped = (t - nextCore - TickSpan{1}) / perCore + 1;
                nextCore += skipped * perCore;
            }
            coreCycles_ += CoreCycles{skipped};
        }
        if (nextMem < t) {
            if (t - nextMem <= std::uint64_t{8} * perDram) {
                while (nextMem < t)
                    nextMem += perDram;
            } else {
                nextMem +=
                    ((t - nextMem - TickSpan{1}) / perDram + 1) * perDram;
            }
        }

        now_ = t;
        if (t == end)
            break;
        // A boundary shared with the other domain may itself be idle
        // (tCore/tMem past t); it still elapses but needs no step.
        if (t == nextCore) {
            if (tCore <= t) {
                coreStepEvent();
                coreDirty = true;
            } else {
                coreCycles_ += CoreCycles{1};
            }
            nextCore += perCore;
        }
        if (t == nextMem) {
            if (tMem <= t) {
                memStep(false);
                memHorizonDirty_ = true;
                coreDirty = true; // A completion may have latched toCpu_.
            }
            nextMem += perDram;
        }
    }
    syncCores();
}

unsigned
System::parallelShards() const
{
    // The IO/DMA engine couples request-id allocation and completion
    // handling to the memory side with zero modeled latency, which
    // would drag the lookahead to zero; IO-enabled systems stay on the
    // serial kernel. A zero crossbar latency likewise leaves no
    // lookahead to shard over.
    if (cfg_.kernelThreads <= 1 || io_.enabled || controllers_.empty() ||
        toMem_.latency() == TickSpan{0} ||
        toCpu_.latency() == TickSpan{0}) {
        return 0;
    }
    return static_cast<unsigned>(
        std::min<std::size_t>(cfg_.kernelThreads - 1, controllers_.size()));
}

void
System::mergeStagedCompletions(unsigned parity)
{
    const std::size_t n = complStage_.size();
    bool any = false;
    for (std::size_t ch = 0; ch < n; ++ch) {
        mergeIdx_[ch] = 0;
        if (!complStage_[ch].stage.readBuf(parity).empty())
            any = true;
    }
    if (!any)
        return;
    // K-way merge in ascending (tick, channel) with within-channel
    // staging order preserved — exactly the serial kernel's completion
    // order, where memStep ticks controllers in channel-index order
    // and each controller completes in its own deterministic order.
    while (true) {
        std::size_t best = n;
        Tick bestAt = kMaxTick;
        for (std::size_t ch = 0; ch < n; ++ch) {
            const auto &buf = complStage_[ch].stage.readBuf(parity);
            if (mergeIdx_[ch] >= buf.size())
                continue;
            const Tick at = buf[mergeIdx_[ch]].at;
            if (best == n || at < bestAt) {
                best = ch;
                bestAt = at;
            }
        }
        if (best == n)
            break;
        const StagedCompletion &sc =
            complStage_[best].stage.readBuf(parity)[mergeIdx_[best]++];
        Request *req = sc.req;
        if (!req->isIo && !req->isWrite)
            toCpu_.push(sc.at, {req->core, req->addr});
        freeRequest(req);
    }
}

void
System::advanceParallel(Tick end)
{
    const unsigned memShards = parallelShards();
    const TickSpan perCore = cfg_.clocks.ticksPerCore;
    const TickSpan perDram = cfg_.clocks.ticksPerDram;

    // Lookahead: every cross-shard path pays at least the shorter
    // crossbar latency, so traffic staged during an epoch is never
    // deliverable before the next one starts.
    const TickSpan epochLen = std::min(toMem_.latency(), toCpu_.latency());
    const Tick start = now_;
    const std::uint64_t nEpochs =
        (end - start + epochLen - TickSpan{1}) / epochLen;

    if (!pool_)
        pool_ = std::make_unique<WorkerPool>(memShards);

    // Window-global batch cap, same formula as advanceEvent() so the
    // cores' batching decisions (and thus their lazy accounting and
    // stats) are identical to the serial kernel's.
    const Tick firstCore = alignUp(start, perCore);
    batchLimit_ =
        end > firstCore
            ? coreCycles_ +
                  CoreCycles{(end - firstCore - TickSpan{1}) / perCore + 1}
            : coreCycles_;

    // Prologue: hand toMem_'s backlog to the shards as pre-staged
    // arrivals, tagged with their FIFO position so the epilogue can
    // hand unconsumed entries back in the original push order. Epoch
    // 0's consumers read parity 1.
    reqSeq_ = 0;
    reqStage_.reset();
    while (toMem_.size() > 0) {
        auto [readyAt, req] = toMem_.takeFront();
        reqStage_.push(1, {readyAt, req, reqSeq_++});
    }

    std::vector<KernelStats> shardStats(memShards);
    SpinBarrier barrier(memShards + 1);
    parallelMode_ = true;

    pool_->run(memShards + 1, [&](unsigned shard) {
        if (shard == 0) {
            // ---- Core shard (calling thread): cores, caches, toCpu_
            // consumption, request allocation, the system clock and
            // the core-cycle counter — a core-domain-only copy of
            // advanceEvent()'s walk.
            Tick nextCore = alignUp(start, perCore);
            Tick tCore{};
            for (std::uint64_t e = 0; e < nEpochs; ++e) {
                const Tick e1 = std::min(start + (e + 1) * epochLen, end);
                coreParity_ = static_cast<unsigned>(e & 1);
                reqStage_.beginEpoch(coreParity_);
                // Completions the mem shards staged last epoch become
                // deliverable no earlier than this epoch; replaying
                // them before any boundary keeps toCpu_ in order.
                mergeStagedCompletions(coreParity_ ^ 1u);
                bool coreDirty = true;
                while (true) {
                    if (coreDirty) {
                        tCore =
                            alignUpFrom(nextCore, coreEventAt(), perCore);
                        coreDirty = false;
                    }
                    const Tick t = std::min(tCore, e1);
                    if (nextCore < t) {
                        std::uint64_t skipped;
                        if (t - nextCore <= std::uint64_t{8} * perCore) {
                            skipped = 0;
                            while (nextCore < t) {
                                nextCore += perCore;
                                ++skipped;
                            }
                        } else {
                            skipped =
                                (t - nextCore - TickSpan{1}) / perCore + 1;
                            nextCore += skipped * perCore;
                        }
                        coreCycles_ += CoreCycles{skipped};
                    }
                    now_ = t;
                    if (t == e1)
                        break;
                    coreStepEvent();
                    coreDirty = true;
                    nextCore += perCore;
                }
                barrier.arriveAndWait();
            }
        } else {
            // ---- Memory shard: the controllers of channels ch with
            // ch % memShards == shard-1, on a private copy of the
            // serial kernel's DRAM-boundary walk. Never reads now_.
            const unsigned s = shard - 1;
            KernelStats &ks = shardStats[s];
            Tick nextMem = alignUp(start, perDram);
            for (std::uint64_t e = 0; e < nEpochs; ++e) {
                const Tick e1 = std::min(start + (e + 1) * epochLen, end);
                const unsigned parity = static_cast<unsigned>(e & 1);
                for (std::size_t ch = s; ch < controllers_.size();
                     ch += memShards) {
                    complStage_[ch].stage.beginEpoch(parity);
                    complStage_[ch].parity =
                        static_cast<std::uint8_t>(parity);
                }
                // Absorb the requests the core shard staged last
                // epoch; per-channel order is global push order.
                for (const StagedRequest &sr :
                     reqStage_.readBuf(parity ^ 1u)) {
                    const auto ch = sr.req->coord.channel;
                    if (ch % memShards == s)
                        chArrivals_[ch].push_back(sr);
                }
                while (true) {
                    Tick ev = kMaxTick;
                    for (std::size_t ch = s; ch < controllers_.size();
                         ch += memShards) {
                        if (!chArrivals_[ch].empty() &&
                            chArrivals_[ch].front().readyAt < ev) {
                            ev = chArrivals_[ch].front().readyAt;
                        }
                        if (ctlDueAt_[ch] < ev)
                            ev = ctlDueAt_[ch];
                    }
                    const Tick t = alignUpFrom(nextMem, ev, perDram);
                    if (t >= e1)
                        break;
                    for (std::size_t ch = s; ch < controllers_.size();
                         ch += memShards) {
                        auto &dq = chArrivals_[ch];
                        while (!dq.empty() && dq.front().readyAt <= t) {
                            controllers_[ch]->enqueue(dq.front().req, t);
                            dq.pop_front();
                            ctlDueAt_[ch] = t;
                        }
                        if (ctlDueAt_[ch] <= t) {
                            ctlDueAt_[ch] = controllers_[ch]->tick(t);
                            ++ks.ctlTicksRun;
                        }
                    }
                    ++ks.memStepsRun;
                    nextMem = t + perDram;
                }
                barrier.arriveAndWait();
            }
        }
    });

    // ---- Epilogue (single-threaded again): restore the serial
    // kernel's invariants so serial and parallel windows interleave
    // freely on one System.
    parallelMode_ = false;
    for (const KernelStats &ks : shardStats) {
        kernelStats_.memStepsRun += ks.memStepsRun;
        kernelStats_.ctlTicksRun += ks.ctlTicksRun;
    }
    const unsigned lastParity = static_cast<unsigned>((nEpochs - 1) & 1);
    // In-flight requests nobody consumed — arrivals still waiting for
    // their first DRAM boundary plus the final epoch's unread staging
    // — go back into toMem_ in push order (seq ascending implies
    // readyAt nondecreasing, preserving the link's FIFO contract).
    std::vector<StagedRequest> leftovers;
    for (auto &dq : chArrivals_) {
        leftovers.insert(leftovers.end(), dq.begin(), dq.end());
        dq.clear();
    }
    for (const StagedRequest &sr : reqStage_.readBuf(lastParity))
        leftovers.push_back(sr);
    std::sort(leftovers.begin(), leftovers.end(),
              [](const StagedRequest &a, const StagedRequest &b) {
                  return a.seq < b.seq;
              });
    for (const StagedRequest &sr : leftovers)
        toMem_.pushAt(sr.readyAt, sr.req);
    reqStage_.reset();
    // The final epoch's completions were never replayed; their
    // delivery ticks land at or after end, matching what the serial
    // kernel would have left latched in toCpu_.
    mergeStagedCompletions(lastParity);
    for (auto &cs : complStage_) {
        cs.stage.reset();
        cs.parity = 0;
    }
    memHorizonDirty_ = true;
    syncCores();
}

void
System::resetStats()
{
    statsStartCycle_ = coreCycles_;
    for (auto &core : cores_)
        core->resetStats();
    hierarchy_->resetStats();
    backend_->resetStats(now_);
}

MetricSet
System::collect() const
{
    MetricSet m;
    m.measuredCycles = (coreCycles_ - statsStartCycle_).count();

    std::uint64_t committed = 0;
    for (const auto &core : cores_) {
        committed += core->stats().committedInstructions;
        m.perCoreIpc.push_back(core->stats().ipc());
        m.perCoreCommitted.push_back(core->stats().committedInstructions);
        m.perCoreCycles.push_back(core->stats().cycles);
    }
    if (!m.perCoreIpc.empty()) {
        const auto [lo, hi] = std::minmax_element(m.perCoreIpc.begin(),
                                                  m.perCoreIpc.end());
        m.ipcDisparity = *hi > 0.0 ? *lo / *hi : 1.0;
    }
    m.committedInstructions = committed;
    m.userIpc = m.measuredCycles
                    ? static_cast<double>(committed) /
                          static_cast<double>(m.measuredCycles)
                    : 0.0;
    m.l2Mpki = committed ? 1000.0 *
                               static_cast<double>(
                                   hierarchy_->stats().l2DemandMisses) /
                               static_cast<double>(committed)
                         : 0.0;

    std::uint64_t hits = 0, misses = 0, conflicts = 0;
    TickSpan latTicks;
    std::uint64_t latSamples = 0;
    std::uint64_t singles = 0, activations = 0;
    std::uint64_t casTotal = 0, casSameGroup = 0;
    LogHistogram latencyHist{24};
    for (const auto &mc : controllers_) {
        latencyHist.merge(mc->stats().readLatencyHist);
    }
    m.readLatencyP50 = latencyHist.percentile(0.50);
    m.readLatencyP95 = latencyHist.percentile(0.95);
    m.readLatencyP99 = latencyHist.percentile(0.99);
    for (const auto &mc : controllers_) {
        const auto &s = mc->stats();
        hits += s.rowHits;
        misses += s.rowMisses;
        conflicts += s.rowConflicts;
        latTicks += s.readLatencyTicks;
        latSamples += s.readLatencySamples;
        singles += s.activationAccesses.bucket(1);
        activations += s.activationAccesses.count();
        m.avgReadQueue += s.readQueueLen.mean(now_);
        m.avgWriteQueue += s.writeQueueLen.mean(now_);
        m.memReads += s.servedReads + s.forwardedReads;
        m.memWrites += s.servedWrites;
        const auto &ch = mc->channel().stats();
        casTotal += ch.reads + ch.writes;
        casSameGroup += ch.casSameGroup;
    }
    m.sameGroupCasPct =
        casTotal ? 100.0 * static_cast<double>(casSameGroup) /
                       static_cast<double>(casTotal)
                 : 0.0;
    const std::uint64_t cas = hits + misses + conflicts;
    m.rowHitRatePct =
        cas ? 100.0 * static_cast<double>(hits) / static_cast<double>(cas)
            : 0.0;
    m.avgReadLatency =
        latSamples ? static_cast<double>(latTicks.count()) /
                         static_cast<double>(latSamples) /
                         static_cast<double>(cfg_.clocks.ticksPerCore.count())
                   : 0.0;
    m.singleAccessPct = activations
                            ? 100.0 * static_cast<double>(singles) /
                                  static_cast<double>(activations)
                            : 0.0;
    // Media-side quantities — bus utilization, the energy model, and
    // (stacked backend) per-vault occupancy and remap counters — are
    // the backend's to report.
    backend_->collect(m, now_);
    return m;
}

MetricSet
System::run()
{
    advance(cfg_.warmupCoreCycles);
    resetStats();
    advance(cfg_.measureCoreCycles);
    return collect();
}

} // namespace mcsim
