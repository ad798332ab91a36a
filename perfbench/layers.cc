#include "layers.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "cpu/hierarchy.hh"
#include "dram/channel.hh"
#include "mem/backend.hh"

namespace perf {

using namespace mcsim;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(q * static_cast<double>(v.size()));
    const std::size_t idx =
        rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    return v[std::min(idx, v.size() - 1)];
}

double
tailQuantileFor(std::size_t n)
{
    double best = 0.0;
    for (const double q : {0.5, 0.9, 0.99, 0.999}) {
        // Samples strictly beyond the nearest-rank q-th sample.
        const double beyond =
            static_cast<double>(n) -
            std::ceil(q * static_cast<double>(n) - 1e-9);
        if (beyond >= 10.0)
            best = q;
    }
    return best;
}

double
overheadPct(double tracedS, double untracedS)
{
    return untracedS > 0.0 ? 100.0 * (tracedS - untracedS) / untracedS
                           : 0.0;
}

void
LayerTotals::addKernel(const KernelStats &k, double coreCycles, double cores,
                       double dramCycles, double queues)
{
    coreTicksRun += static_cast<double>(k.coreTicksRun);
    coreBatched += static_cast<double>(k.coreCyclesBatched);
    coreTickBase += coreCycles * cores;
    ctlTicksRun += static_cast<double>(k.ctlTicksRun);
    ctlTickBase += dramCycles * queues;
}

void
Checks::expect(bool ok, const std::string &what)
{
    ++attempted;
    if (!ok) {
        ++failed;
        if (failures.size() < 20)
            failures.push_back(what);
    }
}

bool
identical(const MetricSet &a, const MetricSet &b)
{
    return a.userIpc == b.userIpc && a.avgReadLatency == b.avgReadLatency &&
           a.readLatencyP50 == b.readLatencyP50 &&
           a.readLatencyP95 == b.readLatencyP95 &&
           a.readLatencyP99 == b.readLatencyP99 &&
           a.rowHitRatePct == b.rowHitRatePct && a.l2Mpki == b.l2Mpki &&
           a.sameGroupCasPct == b.sameGroupCasPct &&
           a.avgReadQueue == b.avgReadQueue &&
           a.avgWriteQueue == b.avgWriteQueue &&
           a.bwUtilPct == b.bwUtilPct &&
           a.singleAccessPct == b.singleAccessPct &&
           a.ipcDisparity == b.ipcDisparity &&
           a.dramEnergyNj == b.dramEnergyNj &&
           a.committedInstructions == b.committedInstructions &&
           a.measuredCycles == b.measuredCycles &&
           a.memReads == b.memReads && a.memWrites == b.memWrites &&
           a.perCoreIpc == b.perCoreIpc &&
           a.perVaultReadQueue == b.perVaultReadQueue &&
           a.vaultQueueImbalance == b.vaultQueueImbalance &&
           a.remapMigrations == b.remapMigrations &&
           a.remapMigratedRows == b.remapMigratedRows;
}

bool
closeEnough(const MetricSet &a, const MetricSet &b)
{
    // The results cache prints about six significant digits.
    const auto close = [](double x, double y) {
        return std::fabs(x - y) <= 1e-5 * (std::fabs(y) + 1.0);
    };
    return close(a.userIpc, b.userIpc) &&
           close(a.avgReadLatency, b.avgReadLatency) &&
           close(a.rowHitRatePct, b.rowHitRatePct) &&
           close(a.l2Mpki, b.l2Mpki) &&
           close(a.avgReadQueue, b.avgReadQueue) &&
           close(a.avgWriteQueue, b.avgWriteQueue) &&
           close(a.bwUtilPct, b.bwUtilPct) &&
           close(a.singleAccessPct, b.singleAccessPct) &&
           a.memReads == b.memReads && a.memWrites == b.memWrites &&
           a.committedInstructions == b.committedInstructions;
}

std::uint64_t
digest(const std::vector<MetricSet> &sets)
{
    std::uint64_t h = 1469598103934665603ull;
    const auto mix = [&h](const char *text) {
        for (const char *p = text; *p; ++p) {
            h ^= static_cast<unsigned char>(*p);
            h *= 1099511628211ull;
        }
    };
    char buf[64];
    const auto num = [&](double v) {
        std::snprintf(buf, sizeof(buf), "%.17g;", v);
        mix(buf);
    };
    for (const MetricSet &m : sets) {
        for (const double v :
             {m.userIpc, m.avgReadLatency, m.readLatencyP50,
              m.readLatencyP95, m.readLatencyP99, m.rowHitRatePct,
              m.l2Mpki, m.sameGroupCasPct, m.avgReadQueue,
              m.avgWriteQueue, m.bwUtilPct, m.singleAccessPct,
              m.ipcDisparity, m.dramEnergyNj, m.vaultQueueImbalance}) {
            num(v);
        }
        for (const std::uint64_t v :
             {m.committedInstructions, m.measuredCycles, m.memReads,
              m.memWrites, m.remapMigrations, m.remapMigratedRows}) {
            num(static_cast<double>(v));
        }
        mix("|");
    }
    return h;
}

bool
casMatchesRequests(std::uint64_t rdCmds, std::uint64_t wrCmds,
                   const MetricSet &m, std::uint64_t forwardedReads,
                   std::uint32_t queues)
{
    // Reads in flight at a window edge: a few per queue at most.
    constexpr std::uint64_t slackPerQueue = 16;
    const double cas = static_cast<double>(rdCmds + wrCmds);
    const double served =
        static_cast<double>(m.memReads + m.memWrites) -
        static_cast<double>(forwardedReads);
    return std::fabs(cas - served) <=
           static_cast<double>(slackPerQueue * queues);
}

bool
casMatchesRequests(System &sys, const MetricSet &m)
{
    std::uint64_t rd = 0, wr = 0, fwd = 0;
    for (std::uint32_t q = 0; q < sys.numControllers(); ++q) {
        const ChannelStats &cs = sys.controller(q).channel().stats();
        rd += cs.reads;
        wr += cs.writes;
        fwd += sys.controller(q).stats().forwardedReads;
    }
    return casMatchesRequests(rd, wr, m, fwd, sys.numControllers());
}

SimConfig
Scenario::externalCfg() const
{
    SimConfig c = cfg;
    c.numCores = params.cores;
    c.core.mlpWindow =
        cfg.coreMlpOverride ? cfg.coreMlpOverride : params.mlpWindow;
    c.core.storeBufferEntries = params.storeBufferEntries;
    return c;
}

double
timerOverheadNs()
{
    std::vector<double> samples;
    samples.reserve(2001);
    for (int i = 0; i < 2001; ++i) {
        const auto a = Clock::now();
        const auto b = Clock::now();
        samples.push_back(
            std::chrono::duration<double, std::nano>(b - a).count());
    }
    return median(samples);
}

namespace {

/** Cap on captured generator calls and DRAM commands per point. */
constexpr std::size_t kCaptureCap = 2'000'000;

enum class CallKind : std::uint8_t { Next, Local, Refused, Fetch };

struct Call
{
    Addr addr = 0;
    std::uint64_t tick = 0;
    std::uint32_t length = 0;
    std::uint8_t core = 0;
    CallKind what = CallKind::Next;
    Op::Kind opKind = Op::Kind::Compute;
};

/**
 * The timing decorator: forwards every generator call (including
 * tryNextOpLocal, so core batching behaves exactly as undecorated),
 * counts it, and captures a prefix of the call stream with the
 * simulated tick it happened at.
 */
class TracingGenerator : public WorkloadGenerator
{
  public:
    explicit TracingGenerator(WorkloadGenerator &inner) : inner_(inner)
    {
        calls_.reserve(kCaptureCap);
    }

    void attach(const System &sys) { sys_ = &sys; }

    const char *name() const override { return inner_.name(); }

    Op
    nextOp(CoreId core) override
    {
        const Op op = inner_.nextOp(core);
        record(CallKind::Next, core, op.addr, op.length, op.kind);
        return op;
    }

    bool
    tryNextOpLocal(CoreId core, Op &out) override
    {
        const bool ok = inner_.tryNextOpLocal(core, out);
        if (ok)
            record(CallKind::Local, core, out.addr, out.length, out.kind);
        else
            record(CallKind::Refused, core, 0, 0, Op::Kind::Compute);
        return ok;
    }

    Addr
    nextFetchBlock(CoreId core) override
    {
        const Addr a = inner_.nextFetchBlock(core);
        record(CallKind::Fetch, core, a, 0, Op::Kind::Compute);
        return a;
    }

    std::uint64_t calls() const { return count_; }
    const std::vector<Call> &captured() const { return calls_; }

  private:
    void
    record(CallKind what, CoreId core, Addr addr, std::uint32_t len,
           Op::Kind kind)
    {
        ++count_;
        if (calls_.size() < kCaptureCap) {
            calls_.push_back({addr, sys_ ? sys_->now().count() : 0, len,
                              static_cast<std::uint8_t>(core), what, kind});
        }
    }

    WorkloadGenerator &inner_;
    const System *sys_ = nullptr;
    std::uint64_t count_ = 0;
    std::vector<Call> calls_;
};

struct TimedCommand
{
    std::uint64_t tick;
    DramCommand cmd;
};

struct MemReq
{
    std::uint64_t tick;
    Addr addr;
    CoreId core;
    bool isWrite;
};

double
nsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::nano>(b - a).count();
}

/** Replay the captured call sequence into a fresh generator. */
void
replayWorkload(const Scenario &sc, std::uint64_t capacity,
               const std::vector<Call> &calls, LayerTotals &t,
               Checks &checks)
{
    SyntheticWorkload fresh(sc.params, capacity);
    std::uint64_t mismatches = 0;
    const auto t0 = Clock::now();
    for (const Call &c : calls) {
        switch (c.what) {
        case CallKind::Next: {
            const Op op = fresh.nextOp(c.core);
            mismatches += op.kind != c.opKind || op.addr != c.addr ||
                          op.length != c.length;
            break;
        }
        case CallKind::Local:
        case CallKind::Refused: {
            Op op;
            const bool ok = fresh.tryNextOpLocal(c.core, op);
            mismatches += ok != (c.what == CallKind::Local) ||
                          (ok && (op.kind != c.opKind || op.addr != c.addr ||
                                  op.length != c.length));
            break;
        }
        case CallKind::Fetch:
            mismatches += fresh.nextFetchBlock(c.core) != c.addr;
            break;
        }
    }
    t.genReplayNs += nsBetween(t0, Clock::now());
    t.genReplayCalls += calls.size();
    checks.expect(mismatches == 0,
                  "workload replay diverged from the live op stream");
}

/**
 * Replay the captured loads, stores and fetches into a fresh cache
 * hierarchy (every miss answered at once) and return the memory
 * requests it sends, stamped with the tick of the op that caused them
 * plus the crossbar latency.
 */
std::vector<MemReq>
replayCpu(const Scenario &sc, const SimConfig &cfg,
          const std::vector<Call> &calls, LayerTotals &t)
{
    CacheHierarchy h(sc.params.cores, cfg.hierarchy);
    std::vector<MemReq> reqs;
    reqs.reserve(calls.size() / 2);
    std::uint64_t arrival = 0;
    h.setSendMemRead([&](CoreId core, Addr a) {
        reqs.push_back({arrival, a, core, false});
    });
    h.setSendMemWrite([&](CoreId core, Addr a) {
        reqs.push_back({arrival, a, core, true});
    });
    h.setWake([](CoreId, MissKind) {});
    const std::uint64_t xbar =
        cfg.clocks.coreToTicks(cfg.xbarLatencyCycles).count();
    const Addr blockMask = ~static_cast<Addr>(cfg.hierarchy.l1d.blockBytes - 1);

    std::uint64_t accesses = 0;
    const auto t0 = Clock::now();
    for (const Call &c : calls) {
        arrival = c.tick + xbar;
        AccessOutcome out;
        if (c.what == CallKind::Fetch) {
            out = h.ifetch(c.core, c.addr);
        } else if ((c.what == CallKind::Next || c.what == CallKind::Local) &&
                   c.opKind == Op::Kind::Load) {
            out = h.load(c.core, c.addr);
        } else if ((c.what == CallKind::Next || c.what == CallKind::Local) &&
                   c.opKind == Op::Kind::Store) {
            out = h.store(c.core, c.addr);
        } else {
            continue;
        }
        ++accesses;
        if (out == AccessOutcome::Miss)
            h.onMemResponse(c.core, c.addr & blockMask);
    }
    t.cpuReplayNs += nsBetween(t0, Clock::now());
    t.cpuAccesses += accesses;
    return reqs;
}

/**
 * Route the request stream through a fresh backend and feed it to the
 * backend's controllers at the captured arrival ticks, ticking each
 * queue when it is due or has an arrival (the event kernel's rule).
 */
void
replayMem(const SimConfig &cfg, std::uint32_t cores,
          const std::vector<MemReq> &reqs, double timerNs, LayerTotals &t,
          Checks &checks)
{
    if (reqs.empty())
        return;
    auto backend = makeMemBackend(cfg, cores);
    const std::uint32_t queues = backend->numQueues();
    const std::uint64_t tpd = cfg.clocks.ticksPerDram.count();
    const auto alignUp = [tpd](std::uint64_t x) {
        return (x + tpd - 1) / tpd * tpd;
    };

    std::vector<Request> storage(reqs.size());
    const auto r0 = Clock::now();
    for (std::size_t i = 0; i < reqs.size(); ++i) {
        Request &r = storage[i];
        r.id = i + 1;
        r.core = reqs[i].core;
        r.addr = reqs[i].addr;
        r.isWrite = reqs[i].isWrite;
        backend->route(r, Tick{alignUp(reqs[i].tick)});
    }
    t.routeNs += nsBetween(r0, Clock::now());
    t.routes += reqs.size();

    std::vector<std::uint8_t> done(reqs.size(), 0);
    std::uint64_t completed = 0, duplicates = 0;
    for (std::uint32_t q = 0; q < queues; ++q) {
        backend->queue(q).setCompletionCallback([&](Request *r, Tick) {
            duplicates += done[r->id - 1]++ != 0;
            ++completed;
        });
    }

    std::vector<std::uint64_t> due(queues, 0);
    std::vector<char> arrived(queues, 0);
    std::size_t next = 0;
    std::uint64_t now = alignUp(reqs.front().tick);
    const std::uint64_t giveUpAt =
        alignUp(reqs.back().tick) + 1'000'000'000ull;
    double tickNs = 0.0, enqNs = 0.0;
    std::uint64_t ticks = 0;
    while (completed < reqs.size() && now < giveUpAt) {
        std::fill(arrived.begin(), arrived.end(), 0);
        while (next < reqs.size() && reqs[next].tick <= now) {
            Request *r = &storage[next++];
            MemController &mc = backend->queue(r->coord.channel);
            const auto a = Clock::now();
            mc.enqueue(r, Tick{now});
            enqNs += nsBetween(a, Clock::now()) - timerNs;
            arrived[r->coord.channel] = 1;
        }
        std::uint64_t nextAt = next < reqs.size() ? alignUp(reqs[next].tick)
                                                  : kMaxTick.count();
        for (std::uint32_t q = 0; q < queues; ++q) {
            if (arrived[q] || due[q] <= now) {
                MemController &mc = backend->queue(q);
                const auto a = Clock::now();
                due[q] = mc.tick(Tick{now}).count();
                tickNs += nsBetween(a, Clock::now()) - timerNs;
                ++ticks;
            }
            nextAt = std::min(nextAt, due[q]);
        }
        now = alignUp(std::max(nextAt, now + tpd));
    }
    t.memTicks += ticks;
    t.memTickNs += tickNs;
    t.memEnqueues += next;
    t.memEnqueueNs += enqNs;
    checks.expect(completed == reqs.size() && duplicates == 0,
                  "memory replay: every request must complete exactly once");
}

/** Replay each queue's command trace into a fresh Channel. */
void
replayDram(System &sys, const SimConfig &cfg,
           const std::vector<std::vector<TimedCommand>> &trace,
           double timerNs, LayerTotals &t, Checks &checks)
{
    std::uint64_t rejected = 0;
    for (std::uint32_t q = 0; q < trace.size(); ++q) {
        const Channel &live = sys.controller(q).channel();
        Channel fresh(live.geometry(), live.timings(), cfg.refreshEnabled,
                      live.clocks());
        for (const TimedCommand &tc : trace[q]) {
            const Tick at{tc.tick};
            const auto a = Clock::now();
            const Tick legal = fresh.nextLegalAt(tc.cmd, at);
            const auto b = Clock::now();
            if (legal != at || !fresh.canIssue(tc.cmd, at)) {
                ++rejected;
                break;
            }
            const auto c = Clock::now();
            fresh.issue(tc.cmd, at);
            const auto d = Clock::now();
            t.dramNextLegalNs += nsBetween(a, b) - timerNs;
            t.dramIssueNs += nsBetween(c, d) - timerNs;
            ++t.dramIssues;
        }
    }
    checks.expect(rejected == 0,
                  "DRAM replay: a fresh channel must accept every command");
}

} // namespace

double
traceOnce(const Scenario &sc, const MetricSet &untraced,
          std::uint64_t chunkCycles, LayerTotals *totals, Checks &checks)
{
    const SimConfig cfg = sc.externalCfg();
    const std::uint64_t capacity =
        makeMemBackend(cfg, sc.params.cores)->capacityBytes();
    SyntheticWorkload gen(sc.params, capacity);
    TracingGenerator dec(gen);
    std::vector<double> chunkMs;
    std::vector<std::vector<TimedCommand>> trace;
    std::uint64_t counts[5] = {};
    std::uint64_t warmCounts[5] = {};
    std::size_t traced = 0;

    System sys(cfg, dec, sc.params.cores);
    dec.attach(sys);
    trace.resize(sys.numControllers());
    for (std::uint32_t q = 0; q < sys.numControllers(); ++q) {
        sys.controller(q).channel().setCommandHook(
            [&, q](const DramCommand &cmd, Tick at) {
                ++counts[static_cast<int>(cmd.type)];
                if (traced < kCaptureCap) {
                    trace[q].push_back({at.count(), cmd});
                    ++traced;
                }
            });
    }

    const auto advanceChunks = [&](std::uint64_t cycles) {
        while (cycles > 0) {
            const std::uint64_t n = std::min(cycles, chunkCycles);
            const auto c0 = Clock::now();
            sys.advance(n);
            chunkMs.push_back(secondsSince(c0) * 1e3);
            cycles -= n;
        }
    };
    const auto t0 = Clock::now();
    advanceChunks(cfg.warmupCoreCycles);
    std::copy(std::begin(counts), std::end(counts), warmCounts);
    sys.resetStats();
    advanceChunks(cfg.measureCoreCycles);
    const MetricSet m = sys.collect();
    const double wall = secondsSince(t0);

    checks.expect(identical(m, untraced),
                  "traced run must reproduce the untraced metrics");
    if (!totals)
        return wall;

    LayerTotals &t = *totals;
    ++t.points;
    t.genCalls += dec.calls();
    std::uint64_t fwd = 0;
    for (std::uint32_t c = 0; c < sys.numCores(); ++c) {
        t.l1dAccesses += sys.hierarchy().l1d(c).stats().accesses;
        t.l1dMisses += sys.hierarchy().l1d(c).stats().misses;
    }
    for (std::uint32_t q = 0; q < sys.numControllers(); ++q)
        fwd += sys.controller(q).stats().forwardedReads;
    t.l2MpkiSum += m.l2Mpki;

    const double coreCycles =
        static_cast<double>(sys.clocks().ticksToCore(sys.now()).count());
    const double dramCycles = static_cast<double>(sys.now().count()) /
                              static_cast<double>(
                                  sys.clocks().ticksPerDram.count());
    t.addKernel(sys.kernelStats(), coreCycles, sys.numCores(), dramCycles,
                sys.numControllers());
    t.chunkMs.insert(t.chunkMs.end(), chunkMs.begin(), chunkMs.end());

    std::uint64_t all = 0;
    for (const std::uint64_t c : counts)
        all += c;
    t.cmdsWholeRun += all;
    const auto window = [&](DramCommandType type) {
        const int i = static_cast<int>(type);
        return counts[i] - warmCounts[i];
    };
    t.act += window(DramCommandType::Activate);
    t.pre += window(DramCommandType::Precharge);
    t.rd += window(DramCommandType::Read);
    t.wr += window(DramCommandType::Write);
    t.ref += window(DramCommandType::Refresh);
    checks.expect(casMatchesRequests(window(DramCommandType::Read),
                                     window(DramCommandType::Write), m, fwd,
                                     sys.numControllers()),
                  "DRAM RD+WR commands must match served requests");
    t.rowHitSum += m.rowHitRatePct;
    t.readQueueSum += m.avgReadQueue;
    t.writeQueueSum += m.avgWriteQueue;
    t.singleAccessSum += m.singleAccessPct;
    t.stacked = cfg.backend == MemBackendKind::StackedDram;
    t.remapMigrations += m.remapMigrations;
    t.imbalanceSum += m.vaultQueueImbalance;

    const double timerNs = timerOverheadNs();
    replayWorkload(sc, capacity, dec.captured(), t, checks);
    const std::vector<MemReq> reqs = replayCpu(sc, cfg, dec.captured(), t);
    replayMem(cfg, sc.params.cores, reqs, timerNs, t, checks);
    replayDram(sys, cfg, trace, timerNs, t, checks);
    return wall;
}

void
LayerTotals::report(std::map<std::string, double> &out) const
{
    const auto ratio = [](double num, double den) {
        return den > 0.0 ? num / den : 0.0;
    };
    const double n = points ? static_cast<double>(points) : 1.0;
    out["workload.op_ns"] =
        ratio(genReplayNs, static_cast<double>(genReplayCalls));
    out["workload.calls"] = static_cast<double>(genCalls);
    out["cpu.access_ns"] = ratio(cpuReplayNs, static_cast<double>(cpuAccesses));
    out["cpu.l1d_hit_pct"] =
        100.0 * (1.0 - ratio(static_cast<double>(l1dMisses),
                             static_cast<double>(l1dAccesses)));
    out["cpu.l2_mpki"] = l2MpkiSum / n;
    out["kernel.core_ticks_run_pct"] = 100.0 * ratio(coreTicksRun, coreTickBase);
    out["kernel.batched_pct"] = 100.0 * ratio(coreBatched, coreTickBase);
    out["kernel.ctl_ticks_run_pct"] = 100.0 * ratio(ctlTicksRun, ctlTickBase);
    out["kernel.chunk_ms_p50"] = percentile(chunkMs, 0.5);
    out["kernel.chunk_ms_p90"] = percentile(chunkMs, 0.9);
    out["kernel.chunks"] = static_cast<double>(chunkMs.size());
    out["mem.tick_ns"] = ratio(memTickNs, static_cast<double>(memTicks));
    out["mem.enqueue_ns"] =
        ratio(memEnqueueNs, static_cast<double>(memEnqueues));
    out["mem.cmds_per_ctl_tick"] =
        ratio(static_cast<double>(cmdsWholeRun), ctlTicksRun);
    out["mem.row_hit_pct"] = rowHitSum / n;
    out["mem.read_queue_avg"] = readQueueSum / n;
    out["mem.write_queue_avg"] = writeQueueSum / n;
    out["dram.issue_ns"] = ratio(dramIssueNs, static_cast<double>(dramIssues));
    out["dram.next_legal_ns"] =
        ratio(dramNextLegalNs, static_cast<double>(dramIssues));
    out["dram.act"] = static_cast<double>(act);
    out["dram.pre"] = static_cast<double>(pre);
    out["dram.rd"] = static_cast<double>(rd);
    out["dram.wr"] = static_cast<double>(wr);
    out["dram.ref"] = static_cast<double>(ref);
    out["dram.single_access_pct"] = singleAccessSum / n;
    // Backend routing is this benchmark's question only on the stacked
    // backend; flat runs report 0 (not exercised).
    out["backend.route_ns"] =
        stacked ? ratio(routeNs, static_cast<double>(routes)) : 0.0;
    out["backend.remap_migrations"] = static_cast<double>(remapMigrations);
    out["backend.vault_queue_imbalance"] = stacked ? imbalanceSum / n : 0.0;
    out["trace.overhead_pct"] = overheadPct(tracedWallS, untracedWallS);
}

void
selfTest(Checks &checks)
{
    // Percentile choice: at least ten samples beyond the reported one.
    checks.expect(tailQuantileFor(99) == 0.5 && tailQuantileFor(100) == 0.9 &&
                      tailQuantileFor(999) == 0.9 &&
                      tailQuantileFor(1000) == 0.99 &&
                      tailQuantileFor(10000) == 0.999 &&
                      tailQuantileFor(19) == 0.0,
                  "self-test: tail percentile choice");
    std::vector<double> v;
    for (int i = 100; i >= 1; --i)
        v.push_back(i);
    checks.expect(percentile(v, 0.9) == 90.0 && percentile(v, 0.5) == 50.0 &&
                      percentile(v, 1.0) == 100.0 && median(v) == 50.5,
                  "self-test: nearest-rank percentile and median");

    // Ratio bases: core ratios over core cycles x cores, controller
    // ticks over DRAM cycles x queues, commands over controller ticks.
    KernelStats k;
    k.coreTicksRun = 40;
    k.coreCyclesBatched = 120;
    k.ctlTicksRun = 200;
    LayerTotals t;
    t.addKernel(k, 100.0, 2.0, 100.0, 4.0);
    t.points = 2;
    t.cmdsWholeRun = 50;
    t.l1dAccesses = 1000;
    t.l1dMisses = 50;
    t.rowHitSum = 150.0;
    std::map<std::string, double> out;
    t.report(out);
    checks.expect(out["kernel.core_ticks_run_pct"] == 20.0 &&
                      out["kernel.batched_pct"] == 60.0 &&
                      out["kernel.ctl_ticks_run_pct"] == 50.0 &&
                      out["mem.cmds_per_ctl_tick"] == 0.25 &&
                      out["cpu.l1d_hit_pct"] == 95.0 &&
                      out["mem.row_hit_pct"] == 75.0,
                  "self-test: per-layer ratio bases");

    // Tracing overhead: excess of traced over untraced wall time.
    checks.expect(std::fabs(overheadPct(1.25, 1.0) - 25.0) < 1e-12 &&
                      overheadPct(1.0, 0.0) == 0.0 &&
                      overheadPct(0.9, 1.0) < 0.0,
                  "self-test: tracing overhead");

    // The CAS check tolerates in-flight reads, not lost requests.
    MetricSet m;
    m.memReads = 110;
    m.memWrites = 50;
    checks.expect(casMatchesRequests(100, 50, m, 10, 1) &&
                      casMatchesRequests(90, 50, m, 10, 1) &&
                      !casMatchesRequests(60, 50, m, 10, 1),
                  "self-test: CAS-versus-request slack");
}

} // namespace perf
