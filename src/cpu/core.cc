#include "core.hh"

#include "common/log.hh"

namespace mcsim {

Core::Core(CoreId id, WorkloadGenerator &gen, CacheHierarchy &hierarchy,
           const CoreConfig &cfg)
    : id_(id), gen_(gen), hierarchy_(hierarchy), cfg_(cfg)
{
    mc_assert(cfg_.mlpWindow >= 1, "MLP window must be >= 1");
}

void
Core::commit(std::uint32_t n)
{
    stats_.committedInstructions += n;
    x_.fetchCredits = x_.fetchCredits > n ? x_.fetchCredits - n : 0;
}

void
Core::missReturned(MissKind kind)
{
    switch (kind) {
      case MissKind::Load:
        mc_assert(x_.outstandingLoads > 0, "spurious load return");
        --x_.outstandingLoads;
        if (x_.outstandingLoads < cfg_.mlpWindow)
            x_.blockedOnLoads = false;
        break;
      case MissKind::Store:
        mc_assert(x_.outstandingStores > 0, "spurious store return");
        --x_.outstandingStores;
        if (x_.outstandingStores < cfg_.storeBufferEntries)
            x_.blockedOnStores = false;
        break;
      case MissKind::Ifetch:
        x_.blockedOnFetch = false;
        break;
    }
}

void
Core::doFetch()
{
    Addr fa;
    if (x_.fetchPending) {
        // Pulled by runBatch() at this exact point of the per-core
        // stream, but its access was not core-private; run it now.
        fa = x_.pendingFetch;
        x_.fetchPending = false;
    } else {
        fa = gen_.nextFetchBlock(id_);
    }
    switch (hierarchy_.ifetch(id_, fa)) {
      case AccessOutcome::L1Hit:
        x_.fetchCredits = cfg_.instrsPerFetchBlock;
        break;
      case AccessOutcome::L2Hit:
        x_.fetchCredits = cfg_.instrsPerFetchBlock;
        x_.stallCyclesLeft = cfg_.l2HitLatency;
        break;
      case AccessOutcome::Miss:
      case AccessOutcome::MergedMiss:
        x_.fetchCredits = cfg_.instrsPerFetchBlock;
        x_.blockedOnFetch = true;
        break;
    }
}

void
Core::executeOp()
{
    if (x_.computeRemaining > 0) {
        --x_.computeRemaining;
        commit();
        return;
    }
    Op op;
    if (x_.opPending) {
        // Latched by runBatch(): already drawn from the generator in
        // per-core order, left for this ordered tick to execute.
        op = x_.pendingOp;
        x_.opPending = false;
    } else {
        op = gen_.nextOp(id_);
    }
    switch (op.kind) {
      case Op::Kind::Compute:
        mc_assert(op.length >= 1, "empty compute op");
        x_.computeRemaining = op.length - 1;
        commit();
        return;

      case Op::Kind::Load:
        switch (hierarchy_.load(id_, op.addr)) {
          case AccessOutcome::L1Hit:
            break;
          case AccessOutcome::L2Hit:
            x_.stallCyclesLeft = cfg_.l2HitLatency;
            break;
          case AccessOutcome::Miss:
          case AccessOutcome::MergedMiss:
            ++x_.outstandingLoads;
            if (x_.outstandingLoads >= cfg_.mlpWindow)
                x_.blockedOnLoads = true;
            break;
        }
        commit();
        return;

      case Op::Kind::Store:
        switch (hierarchy_.store(id_, op.addr)) {
          case AccessOutcome::L1Hit:
            break;
          case AccessOutcome::L2Hit:
            // The store buffer absorbs the LLC round trip.
            break;
          case AccessOutcome::Miss:
          case AccessOutcome::MergedMiss:
            ++x_.outstandingStores;
            if (x_.outstandingStores >= cfg_.storeBufferEntries)
                x_.blockedOnStores = true;
            break;
        }
        commit();
        return;
    }
}

void
Core::catchUpTo(CoreCycle cycle)
{
    if (cycle.count() <= x_.synced)
        return;
    std::uint64_t n = cycle.count() - x_.synced;
    x_.synced = cycle.count();
    stats_.cycles += n;
    // Replicate tick()'s inactive paths in bulk, in tick() order:
    // fixed-latency stall cycles drain first, then blocked cycles
    // count against the stall statistics.
    const std::uint64_t stallPart =
        x_.stallCyclesLeft < n ? x_.stallCyclesLeft : n;
    x_.stallCyclesLeft -= static_cast<std::uint32_t>(stallPart);
    n -= stallPart;
    if (n == 0)
        return;
    if (x_.blockedOnFetch) {
        stats_.fetchStallCycles += n;
        return;
    }
    if (x_.blockedOnLoads || x_.blockedOnStores) {
        stats_.loadMissStallCycles += n;
        return;
    }
    // Committing tail of a compute run: each cycle decrements the op,
    // commits one instruction, and consumes one fetch credit.
    const std::uint64_t run = x_.computeRemaining < x_.fetchCredits
                                  ? x_.computeRemaining
                                  : x_.fetchCredits;
    mc_assert(n <= run, "catch-up spans cycles where the core could act");
    x_.computeRemaining -= static_cast<std::uint32_t>(n);
    x_.fetchCredits -= static_cast<std::uint32_t>(n);
    stats_.committedInstructions += n;
}

std::uint64_t
Core::runBatch(CoreCycle limit)
{
    // Batching is only legal while no miss is in flight: returning
    // fills mutate this core's L1s, and outstanding-counter updates
    // from completions must interleave with new misses in exact cycle
    // order.
    if (x_.blockedOnFetch || x_.blockedOnLoads || x_.blockedOnStores ||
        x_.outstandingLoads > 0 || x_.outstandingStores > 0) {
        return 0;
    }
    if (x_.synced >= limit.count())
        return 0;
    // The hot loop runs on locals: the opaque generator call inside
    // could alias anything as far as the compiler knows, and spilling
    // these to memory every iteration costs more than the batch saves.
    std::uint64_t left = limit.count() - x_.synced;
    const std::uint64_t window = left;
    std::uint64_t synced = x_.synced;
    std::uint64_t cycles = stats_.cycles;
    std::uint64_t committed = stats_.committedInstructions;
    std::uint32_t credits = x_.fetchCredits;
    std::uint32_t compute = x_.computeRemaining;
    bool opHeld = x_.opPending;
    Op op;
    if (opHeld)
        op = x_.pendingOp;
    Addr fetchAddr = x_.pendingFetch;
    bool fetchHeld = x_.fetchPending;
    if (x_.stallCyclesLeft > 0) {
        // A fixed-latency stall (an L2 hit) is core-private dead time:
        // absorb it here, exactly as tick()/catchUpTo() account it,
        // instead of bouncing back through the kernel's due-cycle
        // machinery and returning for the cycle after the stall.
        const std::uint64_t s =
            x_.stallCyclesLeft < left ? x_.stallCyclesLeft : left;
        x_.stallCyclesLeft -= static_cast<std::uint32_t>(s);
        synced += s;
        cycles += s;
        left -= s;
    }
    while (left > 0) {
        if (compute > 0 && credits > 0) {
            // Committing tail of a compute run, in bulk: one commit
            // and one credit per cycle, exactly as tick() would.
            std::uint32_t run = compute < credits ? compute : credits;
            if (static_cast<std::uint64_t>(run) > left)
                run = static_cast<std::uint32_t>(left);
            compute -= run;
            credits -= run;
            synced += run;
            cycles += run;
            committed += run;
            left -= run;
            continue;
        }
        if (credits == 0) {
            if (!fetchHeld) {
                // Fetch-block pulls use only per-core generator state,
                // and this is exactly the point of the per-core stream
                // where tick() would pull.
                fetchAddr = gen_.nextFetchBlock(id_);
                fetchHeld = true;
            }
            if (!hierarchy_.l1i(id_).accessIfPresent(fetchAddr, false)) {
                // Leaves the L1I: run at the ordered tick. Warm the
                // host's caches with the L2 set it will scan there.
                hierarchy_.l2Prefetch(fetchAddr);
                break;
            }
            fetchHeld = false;
            credits = cfg_.instrsPerFetchBlock;
            continue; // An L1I-hit fetch shares the consuming cycle.
        }
        if (!opHeld) {
            if (!gen_.tryNextOpLocal(id_, op))
                break; // Touches shared state: pull at the ordered tick.
            opHeld = true;
        }
        if (op.kind == Op::Kind::Compute) {
            mc_assert(op.length >= 1, "empty compute op");
            compute = op.length;
            opHeld = false;
            continue; // Committed by the bulk path above.
        }
        // Load or store: only an L1D hit is core-private.
        const bool store = op.kind == Op::Kind::Store;
        if (!hierarchy_.l1d(id_).accessIfPresent(op.addr, store)) {
            // Leaves the L1D: run at the ordered tick. Warm the host's
            // caches with the L2 set it will scan there.
            hierarchy_.l2Prefetch(op.addr);
            break;
        }
        opHeld = false;
        ++synced;
        ++cycles;
        ++committed;
        --credits;
        --left;
    }
    x_.synced = synced;
    x_.fetchCredits = credits;
    x_.computeRemaining = compute;
    x_.opPending = opHeld;
    if (opHeld)
        x_.pendingOp = op;
    x_.fetchPending = fetchHeld;
    if (fetchHeld)
        x_.pendingFetch = fetchAddr;
    stats_.cycles = cycles;
    stats_.committedInstructions = committed;
    return window - left;
}

void
Core::tick()
{
    ++x_.synced;
    ++stats_.cycles;
    if (x_.stallCyclesLeft > 0) {
        --x_.stallCyclesLeft;
        return;
    }
    if (x_.blockedOnFetch) {
        ++stats_.fetchStallCycles;
        return;
    }
    if (x_.blockedOnLoads || x_.blockedOnStores) {
        ++stats_.loadMissStallCycles;
        return;
    }
    if (x_.fetchCredits == 0) {
        doFetch();
        // The fetch itself consumes this cycle if it left L1I.
        if (x_.blockedOnFetch || x_.stallCyclesLeft > 0)
            return;
    }
    executeOp();
}

} // namespace mcsim
