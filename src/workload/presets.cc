#include "presets.hh"

#include <algorithm>

#include "common/log.hh"

namespace mcsim {

namespace {

constexpr std::uint64_t KiB = 1024;
constexpr std::uint64_t MiB = 1024 * KiB;
constexpr std::uint64_t GiB = 1024 * MiB;

/** Hot, L2-resident working set. */
RegionSpec
hot(double share, std::uint64_t footprint, double theta = 0.85)
{
    RegionSpec r;
    r.share = share;
    r.footprintBytes = footprint;
    r.zipfTheta = theta;
    // Hot objects are scattered across the heap: stride them 64 block
    // slots apart so the cacheable footprint does not collapse onto a
    // handful of DRAM rows.
    r.spreadFactor = 64;
    return r;
}

/** Cold random heap, far larger than the LLC. */
RegionSpec
cold(double share, std::uint64_t footprint, double theta = 0.2)
{
    RegionSpec r;
    r.share = share;
    r.footprintBytes = footprint;
    r.zipfTheta = theta;
    return r;
}

/** Streaming buffers: sequential bursts, word-granular reuse. The
 *  whole burst is a sticky memcpy-like phase so its block misses land
 *  close together in time — the source of row-buffer hits. */
RegionSpec
stream(double share, std::uint64_t footprint, std::uint32_t burstBlocks,
       std::uint32_t repeats)
{
    RegionSpec r;
    r.share = share;
    r.footprintBytes = footprint;
    r.seqBurstBlocks = burstBlocks;
    r.repeatsPerBlock = repeats;
    r.scramble = false;
    r.stickyRefs = std::min<std::uint32_t>(burstBlocks * repeats, 768);
    r.sharedFrontier = true;
    return r;
}

} // namespace

WorkloadParams
workloadPreset(WorkloadId id)
{
    WorkloadParams p;
    p.memRefPerInstr = 0.30;
    p.storeFrac = 0.25;

    switch (id) {
      case WorkloadId::DS:
        // Data Serving (Cassandra): key-value lookups over a large
        // on-disk dataset with a memtable/cache layer; modest DMA from
        // the storage path.
        p.name = "Data Serving";
        p.acronym = "DS";
        p.category = WorkloadCategory::ScaleOut;
        p.regions = {hot(0.965, 640 * KiB, 0.92),
                     stream(0.025, 96 * MiB, 24, 4),
                     cold(0.013, 1 * GiB, 0.3)};
        p.codeFootprintBytes = 1 * MiB;
        p.codeZipfTheta = 0.85;
        p.intensitySpread = 0.30;
        p.ioWindow = 2;
        p.ioBurstBlocks = 48;
        p.ioThinkDramCycles = 60;
        p.phaseMeanInstrs = 60'000;
        p.phaseHigh = 2.2;
        p.phaseLow = 0.4;
        p.seed = 101;
        break;

      case WorkloadId::MR:
        // MapReduce (Hadoop text classification): scan-heavy map phase
        // with skewed per-core shard sizes (stragglers).
        p.name = "MapReduce";
        p.acronym = "MR";
        p.category = WorkloadCategory::ScaleOut;
        p.regions = {hot(0.975, 768 * KiB, 0.9),
                     stream(0.018, 192 * MiB, 32, 6),
                     cold(0.010, 768 * MiB, 0.25)};
        p.codeFootprintBytes = 768 * KiB;
        p.codeZipfTheta = 0.85;
        p.intensitySpread = 0.70;
        p.phaseMeanInstrs = 40'000;
        p.phaseHigh = 3.0;
        p.phaseLow = 0.25;
        p.seed = 102;
        break;

      case WorkloadId::SS:
        // SAT Solver (Klee): pointer chasing across clause databases;
        // almost no spatial locality, modest intensity.
        p.name = "SAT Solver";
        p.acronym = "SS";
        p.category = WorkloadCategory::ScaleOut;
        p.regions = {hot(0.970, 1 * MiB, 0.9),
                     stream(0.018, 32 * MiB, 16, 4),
                     cold(0.015, 1536 * MiB, 0.15)};
        p.codeFootprintBytes = 640 * KiB;
        p.codeZipfTheta = 0.85;
        p.intensitySpread = 0.25;
        p.phaseMeanInstrs = 60'000;
        p.phaseHigh = 1.8;
        p.phaseLow = 0.55;
        p.seed = 103;
        break;

      case WorkloadId::WF:
        // Web Frontend (PHP/web serving): 8-core configuration; high
        // row locality from request/response buffers and heavy DMA.
        p.name = "Web Frontend";
        p.acronym = "WF";
        p.category = WorkloadCategory::ScaleOut;
        p.cores = 8;
        p.regions = {hot(0.9700, 512 * KiB, 0.93),
                     stream(0.0235, 64 * MiB, 48, 8),
                     cold(0.0065, 512 * MiB, 0.3)};
        p.codeFootprintBytes = 1536 * KiB;
        p.codeZipfTheta = 0.88;
        p.codeJumpProb = 0.03;
        p.intensitySpread = 0.50;
        p.ioWindow = 2;
        p.ioBurstBlocks = 64;
        p.ioThinkDramCycles = 40;
        p.phaseMeanInstrs = 30'000;
        p.phaseHigh = 2.6;
        p.phaseLow = 0.3;
        p.seed = 104;
        break;

      case WorkloadId::WS:
        // Web Search (Nutch): index traversal dominated by a hot
        // posting-list cache; low off-chip intensity.
        p.name = "Web Search";
        p.acronym = "WS";
        p.category = WorkloadCategory::ScaleOut;
        p.regions = {hot(0.982, 640 * KiB, 0.93),
                     stream(0.010, 128 * MiB, 32, 6),
                     cold(0.008, 1 * GiB, 0.25)};
        p.codeFootprintBytes = 1 * MiB;
        p.codeZipfTheta = 0.88;
        p.intensitySpread = 0.30;
        p.phaseMeanInstrs = 60'000;
        p.phaseHigh = 1.8;
        p.phaseLow = 0.55;
        p.seed = 105;
        break;

      case WorkloadId::MS:
        // Media Streaming (Darwin): long sequential media buffers
        // pushed by DMA; bimodal row reuse (Fig. 8's 76% / 24% split).
        p.name = "Media Streaming";
        p.acronym = "MS";
        p.category = WorkloadCategory::ScaleOut;
        p.regions = {hot(0.947, 768 * KiB, 0.92),
                     stream(0.048, 256 * MiB, 128, 8),
                     cold(0.010, 768 * MiB, 0.3)};
        p.codeFootprintBytes = 640 * KiB;
        p.codeZipfTheta = 0.85;
        p.intensitySpread = 0.25;
        p.ioWindow = 3;
        p.ioBurstBlocks = 128;
        p.ioThinkDramCycles = 40;
        p.phaseMeanInstrs = 50'000;
        p.phaseHigh = 2.0;
        p.phaseLow = 0.5;
        p.seed = 106;
        break;

      case WorkloadId::WSPEC99:
        // SPECweb99: static/dynamic web serving; moderate locality,
        // noticeable per-core imbalance across connection handlers.
        p.name = "SPECweb99";
        p.acronym = "WSPEC99";
        p.category = WorkloadCategory::Transactional;
        p.regions = {hot(0.963, 768 * KiB, 0.92),
                     stream(0.028, 96 * MiB, 48, 5),
                     cold(0.013, 1 * GiB, 0.25)};
        p.codeFootprintBytes = 1 * MiB;
        p.codeZipfTheta = 0.85;
        p.intensitySpread = 0.60;
        p.phaseMeanInstrs = 40'000;
        p.phaseHigh = 2.5;
        p.phaseLow = 0.3;
        p.seed = 107;
        break;

      case WorkloadId::TPCC1:
        // TPC-C on DBMS vendor A: OLTP B-tree walks, random rows.
        p.name = "TPC-C1";
        p.acronym = "TPC-C1";
        p.category = WorkloadCategory::Transactional;
        p.regions = {hot(0.963, 1 * MiB, 0.92),
                     stream(0.024, 64 * MiB, 32, 4),
                     cold(0.023, 2 * GiB, 0.2)};
        p.codeFootprintBytes = 1536 * KiB;
        p.codeZipfTheta = 0.88;
        p.intensitySpread = 0.25;
        p.phaseMeanInstrs = 60'000;
        p.phaseHigh = 1.8;
        p.phaseLow = 0.55;
        p.seed = 108;
        break;

      case WorkloadId::TPCC2:
        // TPC-C on DBMS vendor B: similar mix, slightly more logging
        // (stream) traffic.
        p.name = "TPC-C2";
        p.acronym = "TPC-C2";
        p.category = WorkloadCategory::Transactional;
        p.regions = {hot(0.960, 1 * MiB, 0.92),
                     stream(0.028, 64 * MiB, 32, 4),
                     cold(0.022, 2 * GiB, 0.2)};
        p.codeFootprintBytes = 1536 * KiB;
        p.codeZipfTheta = 0.88;
        p.intensitySpread = 0.25;
        p.phaseMeanInstrs = 60'000;
        p.phaseHigh = 1.8;
        p.phaseLow = 0.55;
        p.seed = 109;
        break;

      case WorkloadId::TPCHQ2:
        // TPC-H Q2: join-intensive; index probes over large tables
        // with some scan traffic; MLP from independent probes.
        p.name = "TPC-H Q2";
        p.acronym = "TPCH-Q2";
        p.category = WorkloadCategory::DecisionSupport;
        p.regions = {hot(0.942, 1 * MiB, 0.92),
                     stream(0.034, 512 * MiB, 24, 2),
                     cold(0.036, 3 * GiB, 0.1)};
        p.codeFootprintBytes = 512 * KiB;
        p.codeZipfTheta = 0.85;
        p.mlpWindow = 4;
        p.intensitySpread = 0.15;
        p.phaseMeanInstrs = 80'000;
        p.phaseHigh = 1.5;
        p.phaseLow = 0.7;
        p.seed = 110;
        break;

      case WorkloadId::TPCHQ6:
        // TPC-H Q6: select-intensive scan; the most memory-hungry.
        p.name = "TPC-H Q6";
        p.acronym = "TPCH-Q6";
        p.category = WorkloadCategory::DecisionSupport;
        p.regions = {hot(0.924, 1 * MiB, 0.92),
                     stream(0.046, 1 * GiB, 24, 2),
                     cold(0.043, 3 * GiB, 0.1)};
        p.codeFootprintBytes = 384 * KiB;
        p.codeZipfTheta = 0.85;
        p.mlpWindow = 4;
        p.intensitySpread = 0.15;
        p.phaseMeanInstrs = 80'000;
        p.phaseHigh = 1.5;
        p.phaseLow = 0.7;
        p.seed = 111;
        break;

      case WorkloadId::TPCHQ17:
        // TPC-H Q17: select-join mix between Q2 and Q6.
        p.name = "TPC-H Q17";
        p.acronym = "TPCH-Q17";
        p.category = WorkloadCategory::DecisionSupport;
        p.regions = {hot(0.933, 1 * MiB, 0.92),
                     stream(0.040, 768 * MiB, 24, 2),
                     cold(0.039, 3 * GiB, 0.1)};
        p.codeFootprintBytes = 512 * KiB;
        p.codeZipfTheta = 0.85;
        p.mlpWindow = 4;
        p.intensitySpread = 0.15;
        p.phaseMeanInstrs = 80'000;
        p.phaseHigh = 1.5;
        p.phaseLow = 0.7;
        p.seed = 112;
        break;
    }
    // Shares are calibrated as relative weights; publish them
    // normalized so the preset reads as a probability split.
    double shareSum = 0.0;
    for (const auto &r : p.regions)
        shareSum += r.share;
    mc_assert(shareSum > 0.0, "preset has no region weight");
    for (auto &r : p.regions)
        r.share /= shareSum;
    return p;
}

const char *
workloadAcronym(WorkloadId id)
{
    switch (id) {
      case WorkloadId::DS: return "DS";
      case WorkloadId::MR: return "MR";
      case WorkloadId::SS: return "SS";
      case WorkloadId::WF: return "WF";
      case WorkloadId::WS: return "WS";
      case WorkloadId::MS: return "MS";
      case WorkloadId::WSPEC99: return "WSPEC99";
      case WorkloadId::TPCC1: return "TPC-C1";
      case WorkloadId::TPCC2: return "TPC-C2";
      case WorkloadId::TPCHQ2: return "TPCH-Q2";
      case WorkloadId::TPCHQ6: return "TPCH-Q6";
      case WorkloadId::TPCHQ17: return "TPCH-Q17";
    }
    return "???";
}

bool
tryWorkloadFromAcronym(const std::string &acronym, WorkloadId &out)
{
    for (WorkloadId id : kAllWorkloads) {
        if (acronym == workloadAcronym(id)) {
            out = id;
            return true;
        }
    }
    return false;
}

WorkloadCategory
workloadCategory(WorkloadId id)
{
    switch (id) {
      case WorkloadId::DS:
      case WorkloadId::MR:
      case WorkloadId::SS:
      case WorkloadId::WF:
      case WorkloadId::WS:
      case WorkloadId::MS:
        return WorkloadCategory::ScaleOut;
      case WorkloadId::WSPEC99:
      case WorkloadId::TPCC1:
      case WorkloadId::TPCC2:
        return WorkloadCategory::Transactional;
      case WorkloadId::TPCHQ2:
      case WorkloadId::TPCHQ6:
      case WorkloadId::TPCHQ17:
        return WorkloadCategory::DecisionSupport;
    }
    mc_panic("bad workload id");
}

std::vector<WorkloadId>
workloadsInCategory(WorkloadCategory cat)
{
    std::vector<WorkloadId> out;
    for (auto id : kAllWorkloads) {
        if (workloadCategory(id) == cat)
            out.push_back(id);
    }
    return out;
}

} // namespace mcsim
