#include "hierarchy.hh"

#include "common/log.hh"

namespace mcsim {

CacheHierarchy::CacheHierarchy(std::uint32_t numCores,
                               const HierarchyConfig &cfg)
{
    for (std::uint32_t c = 0; c < numCores; ++c) {
        l1i_.push_back(std::make_unique<Cache>(cfg.l1i));
        l1d_.push_back(std::make_unique<Cache>(cfg.l1d));
    }
    l2_ = std::make_unique<Cache>(cfg.l2);
}

void
CacheHierarchy::writebackToMemory(CoreId core, Addr blockAddr)
{
    ++stats_.memWritebacks;
    mc_assert(sendMemWrite_, "memory write path not wired");
    sendMemWrite_(core, blockAddr);
}

AccessOutcome
CacheHierarchy::missToL2(CoreId core, Addr blockAddr, MissKind kind,
                         bool isWrite)
{
    if (l2_->access(blockAddr, isWrite)) {
        // LLC hit: fill the L1 now (the core charges the latency).
        Cache &l1 = kind == MissKind::Ifetch ? *l1i_[core] : *l1d_[core];
        const auto fill = l1.fill(blockAddr, isWrite);
        if (fill.victimDirty) {
            // L1 dirty victim folds into the L2 (write-back, no DRAM).
            l2_->access(fill.victimAddr, true);
        }
        return AccessOutcome::L2Hit;
    }

    ++stats_.l2DemandMisses;
    auto [it, fresh] = mshrs_.try_emplace(blockAddr);
    it->second.push_back({core, kind});
    if (!fresh)
        return AccessOutcome::MergedMiss;

    ++stats_.memReads;
    mc_assert(sendMemRead_, "memory read path not wired");
    sendMemRead_(core, blockAddr);
    return AccessOutcome::Miss;
}

void
CacheHierarchy::onMemResponse(CoreId core, Addr blockAddr)
{
    (void)core; // Waiters carry their own core ids.
    const auto fill = l2_->fill(blockAddr, false);
    if (fill.victimDirty)
        writebackToMemory(kIoCoreId, fill.victimAddr);

    auto it = mshrs_.find(blockAddr);
    if (it == mshrs_.end()) {
        // A response with no MSHR means bookkeeping broke somewhere.
        mc_panic("memory response for unknown block ", blockAddr);
    }
    auto waiters = std::move(it->second);
    mshrs_.erase(it);
    for (const Waiter &w : waiters) {
        Cache &l1 =
            w.kind == MissKind::Ifetch ? *l1i_[w.core] : *l1d_[w.core];
        const bool dirty = w.kind == MissKind::Store;
        const auto l1Fill = l1.fill(blockAddr, dirty);
        if (l1Fill.victimDirty)
            l2_->access(l1Fill.victimAddr, true);
        if (wake_)
            wake_(w.core, w.kind);
    }
}

} // namespace mcsim
