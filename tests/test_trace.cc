/**
 * @file
 * Trace capture/replay tests: binary roundtrip, recording wrapper
 * transparency, and looping replay.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "workload/synthetic.hh"
#include "workload/trace.hh"

using namespace mcsim;

namespace {

std::string
tempTracePath(const char *tag)
{
    return std::string(::testing::TempDir()) + "/cloudmc_" + tag +
           ".trace";
}

WorkloadParams
tinyParams()
{
    WorkloadParams p;
    p.cores = 2;
    p.memRefPerInstr = 0.4;
    RegionSpec r;
    r.share = 1.0;
    r.footprintBytes = 1 << 20;
    r.zipfTheta = 0.5;
    p.regions = {r};
    p.seed = 77;
    return p;
}

} // namespace

TEST(Trace, RecordingIsTransparent)
{
    const std::string path = tempTracePath("transparent");
    SyntheticWorkload inner(tinyParams(), 1ull << 30);
    SyntheticWorkload reference(tinyParams(), 1ull << 30);
    TraceWriter writer(path, 2);
    RecordingWorkload rec(inner, writer);
    for (int i = 0; i < 500; ++i) {
        const Op a = rec.nextOp(i % 2);
        const Op b = reference.nextOp(i % 2);
        ASSERT_EQ(a.addr, b.addr);
        ASSERT_EQ(static_cast<int>(a.kind), static_cast<int>(b.kind));
        ASSERT_EQ(rec.nextFetchBlock(i % 2),
                  reference.nextFetchBlock(i % 2));
    }
    EXPECT_EQ(writer.recordsWritten(), 2u * 500u);
    std::remove(path.c_str());
}

TEST(Trace, RoundtripReplaysIdentically)
{
    const std::string path = tempTracePath("roundtrip");
    std::vector<Op> captured;
    std::vector<Addr> fetches;
    {
        SyntheticWorkload inner(tinyParams(), 1ull << 30);
        TraceWriter writer(path, 2);
        RecordingWorkload rec(inner, writer);
        for (int i = 0; i < 300; ++i) {
            captured.push_back(rec.nextOp(0));
            fetches.push_back(rec.nextFetchBlock(0));
        }
    }
    TraceWorkload replay(path);
    EXPECT_EQ(replay.numCores(), 2u);
    for (int i = 0; i < 300; ++i) {
        const Op op = replay.nextOp(0);
        ASSERT_EQ(op.addr, captured[i].addr);
        ASSERT_EQ(static_cast<int>(op.kind),
                  static_cast<int>(captured[i].kind));
        ASSERT_EQ(op.length, captured[i].length);
        ASSERT_EQ(replay.nextFetchBlock(0), fetches[i]);
    }
    std::remove(path.c_str());
}

TEST(Trace, ReplayLoopsWhenExhausted)
{
    const std::string path = tempTracePath("loop");
    Op first{};
    {
        SyntheticWorkload inner(tinyParams(), 1ull << 30);
        TraceWriter writer(path, 2);
        RecordingWorkload rec(inner, writer);
        first = rec.nextOp(0);
        (void)rec.nextFetchBlock(0);
        for (int i = 0; i < 9; ++i) {
            (void)rec.nextOp(0);
            (void)rec.nextFetchBlock(0);
        }
    }
    TraceWorkload replay(path);
    for (int i = 0; i < 10; ++i)
        (void)replay.nextOp(0);
    // The 11th op wraps to the beginning.
    const Op wrapped = replay.nextOp(0);
    EXPECT_EQ(wrapped.addr, first.addr);
    std::remove(path.c_str());
}

TEST(TraceDeathTest, WriterRejectsCoreBeyond16Bits)
{
    // The on-disk record stores the core id in 16 bits; a wider id
    // must be diagnosed instead of silently wrapped onto another core.
    const std::string path = tempTracePath("widecore");
    TraceWriter writer(path, 2);
    TraceRecord rec;
    rec.type = TraceRecord::Type::Op;
    rec.core = 0x1'0000u;
    EXPECT_EXIT(writer.record(rec), ::testing::ExitedWithCode(1),
                "16-bit core field");
    // The boundary value still fits.
    rec.core = 0xFFFFu;
    writer.record(rec);
    EXPECT_EQ(writer.recordsWritten(), 1u);
    std::remove(path.c_str());
}

TEST(TraceDeathTest, LoaderDiagnosesTruncatedTrailingRecord)
{
    // A capture killed mid-write leaves a partial final record; the
    // loader must refuse it loudly, not silently drop the tail.
    const std::string path = tempTracePath("truncated");
    {
        SyntheticWorkload inner(tinyParams(), 1ull << 30);
        TraceWriter writer(path, 2);
        RecordingWorkload rec(inner, writer);
        for (int i = 0; i < 4; ++i) {
            (void)rec.nextOp(i % 2);
            (void)rec.nextFetchBlock(i % 2);
        }
    }
    {
        std::FILE *f = std::fopen(path.c_str(), "ab");
        ASSERT_NE(f, nullptr);
        const char partial[7] = {0, 1, 2, 3, 4, 5, 6};
        ASSERT_EQ(std::fwrite(partial, 1, sizeof(partial), f),
                  sizeof(partial));
        std::fclose(f);
    }
    EXPECT_EXIT(TraceWorkload replay(path),
                ::testing::ExitedWithCode(1), "ends mid-record");
    std::remove(path.c_str());
}

namespace {

/** Write a trace file byte by byte: the header, then raw records. */
struct RawRecord
{
    std::uint8_t type;
    std::uint8_t kind;
    std::uint16_t core;
    std::uint32_t length;
    std::uint64_t addr;
};

void
writeRawTrace(const std::string &path, std::uint32_t numCores,
              const std::vector<RawRecord> &records)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    const char magic[8] = {'c', 'm', 'c', 't', 'r', 'c', '0', '1'};
    const std::uint32_t reserved = 0;
    std::fwrite(magic, 1, sizeof(magic), f);
    std::fwrite(&numCores, sizeof(numCores), 1, f);
    std::fwrite(&reserved, sizeof(reserved), 1, f);
    for (const RawRecord &r : records) {
        static_assert(sizeof(RawRecord) == 16, "on-disk record size");
        std::fwrite(&r, sizeof(r), 1, f);
    }
    std::fclose(f);
}

} // namespace

TEST(TraceDeathTest, LoaderRejectsUnknownOpKind)
{
    // Op::Kind has three values; a fourth would later be cast
    // unchecked into the enum and replayed as garbage.
    const std::string path = tempTracePath("badkind");
    writeRawTrace(path, 1, {{0, 2, 0, 1, 64}, {0, 3, 0, 1, 128}});
    EXPECT_EXIT(TraceWorkload replay(path), ::testing::ExitedWithCode(1),
                "record 1 has unknown op kind 3");
    std::remove(path.c_str());
}

TEST(TraceDeathTest, LoaderRejectsUnknownRecordType)
{
    // Only Op (0) and Fetch (1) exist; anything else is not an op.
    const std::string path = tempTracePath("badtype");
    writeRawTrace(path, 1, {{1, 0, 0, 1, 64}, {7, 0, 0, 1, 128}});
    EXPECT_EXIT(TraceWorkload replay(path), ::testing::ExitedWithCode(1),
                "record 1 has unknown type 7");
    std::remove(path.c_str());
}

TEST(TraceDeathTest, LoaderRejectsCoreCountBeyond16Bits)
{
    // A 16-byte header alone must not be able to size ~4G per-core
    // tables: records address cores through a 16-bit field.
    const std::string path = tempTracePath("hugecores");
    writeRawTrace(path, 0xFFFF'FFFFu, {});
    EXPECT_EXIT(TraceWorkload replay(path), ::testing::ExitedWithCode(1),
                "declares 4294967295 cores");
    // The largest count the core field can address still loads.
    writeRawTrace(path, 0x10000u, {{0, 1, 0xFFFF, 1, 64}});
    TraceWorkload replay(path);
    EXPECT_EQ(replay.numRecords(), 1u);
    std::remove(path.c_str());
}

TEST(TraceDeathTest, LoaderRejectsAddressBeyondModelledWidth)
{
    // The caches keep 32-bit set-relative tags, exact only below
    // 2^kAddrBits; a larger address would alias a lower block.
    const std::string path = tempTracePath("hugeaddr");
    const Addr limit = Addr{1} << kAddrBits;
    writeRawTrace(path, 1, {{1, 0, 0, 1, limit - 64}, {0, 1, 0, 1, limit}});
    EXPECT_EXIT(TraceWorkload replay(path), ::testing::ExitedWithCode(1),
                "record 1 has address 0x200000000000, beyond the modelled "
                "45-bit address space");
    // Fetch records are checked too.
    writeRawTrace(path, 1, {{1, 0, 0, 1, ~Addr{0}}});
    EXPECT_EXIT(TraceWorkload replay(path), ::testing::ExitedWithCode(1),
                "record 0 has address 0xffffffffffffffff");
    // The last block below the limit still loads.
    writeRawTrace(path, 1, {{0, 1, 0, 1, limit - 64}});
    TraceWorkload replay(path);
    EXPECT_EQ(replay.numRecords(), 1u);
    std::remove(path.c_str());
}

TEST(Trace, IntactFileStillLoadsAfterTruncationCheck)
{
    const std::string path = tempTracePath("intact");
    std::uint64_t written = 0;
    {
        SyntheticWorkload inner(tinyParams(), 1ull << 30);
        TraceWriter writer(path, 2);
        RecordingWorkload rec(inner, writer);
        for (int i = 0; i < 6; ++i) {
            (void)rec.nextOp(i % 2);
            (void)rec.nextFetchBlock(i % 2);
        }
        written = writer.recordsWritten();
    }
    TraceWorkload replay(path);
    EXPECT_EQ(replay.numRecords(), written);
    std::remove(path.c_str());
}

TEST(Trace, PerCoreStreamsIndependent)
{
    const std::string path = tempTracePath("percore");
    std::vector<Op> core1;
    {
        SyntheticWorkload inner(tinyParams(), 1ull << 30);
        TraceWriter writer(path, 2);
        RecordingWorkload rec(inner, writer);
        for (int i = 0; i < 50; ++i) {
            (void)rec.nextOp(0);
            core1.push_back(rec.nextOp(1));
            (void)rec.nextFetchBlock(0);
            (void)rec.nextFetchBlock(1);
        }
    }
    TraceWorkload replay(path);
    // Reading core 1 alone reproduces its sub-stream.
    for (int i = 0; i < 50; ++i)
        ASSERT_EQ(replay.nextOp(1).addr, core1[i].addr);
    std::remove(path.c_str());
}
