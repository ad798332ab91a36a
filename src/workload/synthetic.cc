#include "synthetic.hh"

#include <algorithm>
#include <cmath>

#include "common/bitutils.hh"
#include "common/log.hh"

namespace mcsim {

namespace {

constexpr std::uint32_t kBlockBytes = 64;

/** Bijective index scrambler over a power-of-two domain. */
std::uint64_t
scrambleIndex(std::uint64_t idx, std::uint64_t mask)
{
    return (idx * 0x9E3779B97F4A7C15ULL) & mask;
}

/** Cheap well-mixed hash for intra-window jitter. */
std::uint64_t
jitterHash(std::uint64_t x)
{
    x ^= x >> 33;
    x *= 0xFF51AFD7ED558CCDULL;
    x ^= x >> 33;
    return x;
}

} // namespace

const char *
workloadCategoryName(WorkloadCategory c)
{
    switch (c) {
      case WorkloadCategory::ScaleOut: return "Scale-out";
      case WorkloadCategory::Transactional: return "Transactional";
      case WorkloadCategory::DecisionSupport: return "Decision Support";
    }
    return "???";
}

const char *
workloadCategoryAcronym(WorkloadCategory c)
{
    switch (c) {
      case WorkloadCategory::ScaleOut: return "SCO";
      case WorkloadCategory::Transactional: return "TRS";
      case WorkloadCategory::DecisionSupport: return "DSP";
    }
    return "???";
}

SyntheticWorkload::SyntheticWorkload(const WorkloadParams &params,
                                     Addr addressSpace)
    : params_(params)
{
    mc_assert(!params_.regions.empty(), "workload '", params_.name,
              "' has no data regions");
    mc_assert(params_.cores >= 1, "workload needs at least one core");

    // Lay out code, then the data regions, packed from the bottom of
    // the address space.
    Addr cursor = 0;
    auto reserve = [&](std::uint64_t bytes) {
        const std::uint64_t rounded = blocksFor(bytes);
        const Addr base = cursor;
        cursor += rounded * kBlockBytes;
        return std::make_pair(base, rounded);
    };

    std::tie(codeBase_, codeBlocks_) = reserve(params_.codeFootprintBytes);
    codeBlockMask_ = codeBlocks_ - 1;
    codeZipf_ = std::make_unique<ZipfianGenerator>(
        codeBlocks_, params_.codeZipfTheta);

    // Region entry weights: a region that captures `stickyRefs`
    // consecutive references enters with weight share/stickyRefs so
    // its long-run reference share remains `share`.
    double shareSum = 0.0;
    for (const auto &spec : params_.regions) {
        RegionState rs;
        rs.spec = spec;
        mc_assert(isPowerOf2(spec.spreadFactor),
                  "spreadFactor must be a power of two");
        std::tie(rs.base, rs.blocks) =
            reserve(spec.footprintBytes * spec.spreadFactor);
        rs.blocks /= spec.spreadFactor;
        rs.blockMask = rs.blocks - 1;
        if (spec.seqBurstBlocks == 0) {
            rs.zipf = std::make_unique<ZipfianGenerator>(rs.blocks,
                                                         spec.zipfTheta);
        }
        mc_assert(spec.stickyRefs >= 1, "stickyRefs must be >= 1");
        shareSum += spec.share / spec.stickyRefs;
        regions_.push_back(std::move(rs));
        regionCdf_.push_back(shareSum);
    }
    mc_assert(shareSum > 0.0, "region shares sum to zero");
    for (auto &c : regionCdf_)
        c /= shareSum;

    mc_assert(cursor <= addressSpace, "workload '", params_.name,
              "' footprint ", cursor, " exceeds address space ",
              addressSpace);

    cores_.resize(params_.cores);
    for (std::uint32_t c = 0; c < params_.cores; ++c) {
        CoreState &cs = cores_[c];
        cs.rng.reseed(params_.seed * 0x51ed27f1ULL + c, c + 1);
        cs.baseMemProb = params_.memRefPerInstr * intensityOf(c);
        cs.memProb = std::min(0.95, std::max(0.001, cs.baseMemProb));
        cs.log1mMemProb = std::log1p(-cs.memProb);
        // Stagger initial phases across cores.
        cs.phaseIsHigh = (c % 2) == 0;
        cs.phaseInstrsLeft =
            static_cast<std::int64_t>(params_.phaseMeanInstrs) * (c + 1) /
            params_.cores;
        cs.streamPos.assign(regions_.size(), 0);
        cs.burstLeft.assign(regions_.size(), 0);
        cs.repeatLeft.assign(regions_.size(), 0);
        cs.codeBlock = scrambleIndex(c * 977, codeBlockMask_);
        rebuildRunThresh(cs);
    }
}

std::uint64_t
SyntheticWorkload::blocksFor(std::uint64_t bytes)
{
    const std::uint64_t blocks =
        std::max<std::uint64_t>(1, (bytes + kBlockBytes - 1) / kBlockBytes);
    return isPowerOf2(blocks) ? blocks : (1ull << ceilLog2(blocks));
}

double
SyntheticWorkload::intensityOf(CoreId core) const
{
    if (params_.intensitySpread <= 0.0 || params_.cores <= 1)
        return 1.0;
    const double pos = 2.0 * static_cast<double>(core) /
                           static_cast<double>(params_.cores - 1) -
                       1.0;
    return 1.0 + params_.intensitySpread * pos;
}

Addr
SyntheticWorkload::regionAddress(RegionState &region, CoreState &cs,
                                 std::size_t regionIdx)
{
    const RegionSpec &spec = region.spec;
    if (spec.seqBurstBlocks > 0) {
        // Streaming: word-granular sweeps over consecutive blocks;
        // repeatsPerBlock models the intra-block accesses the L1
        // filters out.
        auto &repeat = cs.repeatLeft[regionIdx];
        auto &burst = cs.burstLeft[regionIdx];
        auto &pos = cs.streamPos[regionIdx];
        if (repeat > 0) {
            --repeat;
        } else {
            if (burst == 0) {
                if (spec.sharedFrontier) {
                    // Bursts are consecutive slices of one shared
                    // scan; occasionally the frontier jumps to a new
                    // random extent (a new file/buffer).
                    if (cs.rng.chance(0.02)) {
                        region.frontier =
                            cs.rng.below64(region.blocks);
                    }
                    pos = region.frontier;
                    region.frontier = (region.frontier +
                                       spec.seqBurstBlocks) &
                                      region.blockMask;
                } else {
                    pos = cs.rng.below64(region.blocks);
                }
                burst = spec.seqBurstBlocks;
            }
            pos = (pos + 1) & region.blockMask;
            --burst;
            repeat = spec.repeatsPerBlock > 0 ? spec.repeatsPerBlock - 1
                                              : 0;
        }
        return region.base + pos * kBlockBytes;
    }
    std::uint64_t idx = region.zipf->sample(cs.rng);
    if (spec.scramble)
        idx = scrambleIndex(idx, region.blockMask);
    // Sparse placement: each block owns a spreadFactor-sized window
    // and sits at a pseudo-random (but fixed) offset inside it, which
    // keeps cache set-index bits diverse while spreading the region
    // across many DRAM rows. Bijective, so footprint is preserved.
    if (spec.spreadFactor > 1) {
        idx = idx * spec.spreadFactor +
              (jitterHash(idx) & (spec.spreadFactor - 1));
    }
    return region.base + idx * kBlockBytes;
}

void
SyntheticWorkload::advancePhase(CoreState &cs, std::uint32_t instrs)
{
    if (params_.phaseMeanInstrs == 0)
        return;
    cs.phaseInstrsLeft -= instrs;
    if (cs.phaseInstrsLeft > 0)
        return;
    cs.phaseIsHigh = !cs.phaseIsHigh;
    // Geometric phase length around the configured mean.
    const double u = std::max(1e-9, cs.rng.nextDouble());
    cs.phaseInstrsLeft = static_cast<std::int64_t>(
        -std::log(u) * static_cast<double>(params_.phaseMeanInstrs));
    // Normalize so the long-run mean intensity multiplier is 1.
    const double norm = (params_.phaseHigh + params_.phaseLow) / 2.0;
    const double factor =
        (cs.phaseIsHigh ? params_.phaseHigh : params_.phaseLow) / norm;
    cs.memProb =
        std::min(0.95, std::max(0.001, cs.baseMemProb * factor));
    cs.log1mMemProb = std::log1p(-cs.memProb);
    rebuildRunThresh(cs);
}

void
SyntheticWorkload::rebuildRunThresh(CoreState &cs)
{
    for (std::size_t k = 0; k < kRunLevels; ++k) {
        cs.runThresh[k] =
            -std::expm1(cs.log1mMemProb * static_cast<double>(k + 1));
    }
}

std::uint32_t
SyntheticWorkload::runLength(const CoreState &cs, double u) const
{
    // runThresh[k] is the geometric CDF at k, so run == k exactly when
    // runThresh[k-1] <= u < runThresh[k]. A table compare replaces the
    // per-op log1p()+divide; draws within kRunMargin of a boundary
    // (where the table and the closed form could round differently)
    // fall through to the original formula, keeping results
    // bit-identical to it. The thresholds rise with k, so the first k
    // with u below runThresh[k] - kRunMargin is the count of those at
    // or below u: the first kCountedLevels are counted without a
    // branch, and only runs at least that long scan on.
    std::size_t k = 0;
    for (std::size_t i = 0; i < kCountedLevels; ++i)
        k += cs.runThresh[i] - kRunMargin <= u;
    for (; k < kRunLevels; ++k) {
        if (u < cs.runThresh[k] - kRunMargin) {
            if (k > 0 && u < cs.runThresh[k - 1] + kRunMargin)
                break;
            return static_cast<std::uint32_t>(k);
        }
    }
    return static_cast<std::uint32_t>(std::log1p(-u) / cs.log1mMemProb);
}

std::size_t
SyntheticWorkload::pickRegion(CoreState &cs)
{
    // Continue a sticky run, or pick a region by entry weight.
    if (cs.stickyRegion >= 0 && cs.stickyLeft > 0) {
        --cs.stickyLeft;
        return static_cast<std::size_t>(cs.stickyRegion);
    }
    const double u = cs.rng.nextDouble();
    std::size_t idx = 0;
    while (idx + 1 < regionCdf_.size() && u > regionCdf_[idx])
        ++idx;
    if (regions_[idx].spec.stickyRefs > 1) {
        cs.stickyRegion = static_cast<int>(idx);
        cs.stickyLeft = regions_[idx].spec.stickyRefs - 1;
    } else {
        cs.stickyRegion = -1;
        cs.stickyLeft = 0;
    }
    return idx;
}

Op
SyntheticWorkload::finishMemoryOp(CoreState &cs, std::size_t idx)
{
    Op op;
    op.addr = regionAddress(regions_[idx], cs, idx);
    op.kind = cs.rng.chance(params_.storeFrac) ? Op::Kind::Store
                                               : Op::Kind::Load;
    return op;
}

Op
SyntheticWorkload::nextOp(CoreId core)
{
    CoreState &cs = cores_[core];

    if (cs.resumePending) {
        // tryNextOpLocal() already consumed this reference's run and
        // region draws; finish it here, at the globally ordered turn,
        // where touching the shared frontier is legal.
        cs.resumePending = false;
        return finishMemoryOp(cs, cs.resumeRegion);
    }

    if (!cs.pendingMem) {
        // Choose the length of the next non-memory run. Under a
        // Bernoulli(p) per-instruction memory-reference model the run
        // length is geometric.
        const std::uint32_t run = runLength(cs, cs.rng.nextDouble());
        if (run > 0) {
            cs.pendingMem = true;
            Op op;
            op.kind = Op::Kind::Compute;
            op.length = std::min<std::uint32_t>(run, 512);
            advancePhase(cs, op.length);
            return op;
        }
    }
    cs.pendingMem = false;
    advancePhase(cs, 1);
    return finishMemoryOp(cs, pickRegion(cs));
}

bool
SyntheticWorkload::tryNextOpLocal(CoreId core, Op &out)
{
    CoreState &cs = cores_[core];
    if (cs.resumePending)
        return false; // The stashed reference must go first, ordered.

    if (!cs.pendingMem) {
        const std::uint32_t run = runLength(cs, cs.rng.nextDouble());
        if (run > 0) {
            cs.pendingMem = true;
            out = Op{};
            out.kind = Op::Kind::Compute;
            out.length = std::min<std::uint32_t>(run, 512);
            advancePhase(cs, out.length);
            return true;
        }
    }
    cs.pendingMem = false;
    advancePhase(cs, 1);
    const std::size_t idx = pickRegion(cs);
    const RegionState &r = regions_[idx];
    if (r.spec.seqBurstBlocks > 0 && r.spec.sharedFrontier &&
        cs.repeatLeft[idx] == 0 && cs.burstLeft[idx] == 0) {
        // Starting a new burst consumes the region-wide shared
        // frontier. Stash the pick; the next nextOp() call resumes it.
        cs.resumePending = true;
        cs.resumeRegion = static_cast<std::uint32_t>(idx);
        return false;
    }
    out = finishMemoryOp(cs, idx);
    return true;
}

Addr
SyntheticWorkload::nextFetchBlock(CoreId core)
{
    CoreState &cs = cores_[core];
    if (cs.rng.chance(params_.codeJumpProb)) {
        std::uint64_t target = codeZipf_->sample(cs.rng);
        cs.codeBlock = scrambleIndex(target, codeBlockMask_);
    } else {
        cs.codeBlock = (cs.codeBlock + 1) & codeBlockMask_;
    }
    return codeBase_ + cs.codeBlock * kBlockBytes;
}

} // namespace mcsim
