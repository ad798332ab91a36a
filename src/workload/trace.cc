#include "trace.hh"

#include <cstring>

#include "common/log.hh"

namespace mcsim {

namespace {

constexpr char kMagic[8] = {'c', 'm', 'c', 't', 'r', 'c', '0', '1'};

struct FileHeader
{
    char magic[8];
    std::uint32_t numCores;
    std::uint32_t reserved;
};

struct FileRecord
{
    std::uint8_t type;
    std::uint8_t kind;
    std::uint16_t core;
    std::uint32_t length;
    std::uint64_t addr;
};

static_assert(sizeof(FileRecord) == 16, "trace record must be packed");

} // namespace

TraceWriter::TraceWriter(const std::string &path, std::uint32_t numCores)
    : file_(std::fopen(path.c_str(), "wb"))
{
    if (!file_)
        mc_fatal("cannot open trace file '", path, "' for writing");
    FileHeader hdr{};
    std::memcpy(hdr.magic, kMagic, sizeof(kMagic));
    hdr.numCores = numCores;
    if (std::fwrite(&hdr, sizeof(hdr), 1, file_) != 1)
        mc_fatal("cannot write trace header to '", path, "'");
}

TraceWriter::~TraceWriter()
{
    if (file_)
        std::fclose(file_);
}

void
TraceWriter::record(const TraceRecord &rec)
{
    // The on-disk record narrows CoreId to 16 bits; silently wrapping
    // would scatter a >64K-core capture across bogus small core ids.
    if (rec.core > 0xFFFFu) {
        mc_fatal("trace record core ", rec.core,
                 " exceeds the format's 16-bit core field");
    }
    FileRecord fr{};
    fr.type = static_cast<std::uint8_t>(rec.type);
    fr.kind = rec.kind;
    fr.core = static_cast<std::uint16_t>(rec.core);
    fr.length = rec.length;
    fr.addr = rec.addr;
    if (std::fwrite(&fr, sizeof(fr), 1, file_) != 1)
        mc_fatal("trace write failed");
    ++written_;
}

TraceWorkload::TraceWorkload(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        mc_fatal("cannot open trace file '", path, "'");
    FileHeader hdr{};
    if (std::fread(&hdr, sizeof(hdr), 1, f) != 1 ||
        std::memcmp(hdr.magic, kMagic, sizeof(kMagic)) != 0) {
        std::fclose(f);
        mc_fatal("'", path, "' is not a cloudmc trace");
    }
    // Records carry a 16-bit core id (TraceWriter enforces it), so a
    // larger count can only come from a corrupt or hostile header;
    // refuse it before it sizes the per-core tables.
    if (hdr.numCores > 0x10000u) {
        std::fclose(f);
        mc_fatal("trace '", path, "' declares ", hdr.numCores,
                 " cores; the 16-bit core field allows at most 65536");
    }
    numCores_ = hdr.numCores;
    cores_.resize(numCores_);

    FileRecord fr{};
    while (true) {
        // Byte-granular read so a trailing partial record (a capture
        // killed mid-write) is diagnosed instead of silently dropped.
        const std::size_t n = std::fread(&fr, 1, sizeof(fr), f);
        if (n == 0)
            break;
        if (n != sizeof(fr)) {
            std::fclose(f);
            mc_fatal("trace '", path, "' ends mid-record (", n,
                     " trailing bytes); truncated capture?");
        }
        if (fr.core >= numCores_) {
            std::fclose(f);
            mc_fatal("trace record core ", fr.core, " out of range");
        }
        const bool fetch =
            fr.type == static_cast<std::uint8_t>(TraceRecord::Type::Fetch);
        if (!fetch &&
            fr.type != static_cast<std::uint8_t>(TraceRecord::Type::Op)) {
            std::fclose(f);
            mc_fatal("trace '", path, "' record ", totalRecords_,
                     " has unknown type ", unsigned{fr.type});
        }
        if (!fetch &&
            fr.kind > static_cast<std::uint8_t>(Op::Kind::Store)) {
            std::fclose(f);
            mc_fatal("trace '", path, "' record ", totalRecords_,
                     " has unknown op kind ", unsigned{fr.kind});
        }
        if (fr.addr >> kAddrBits) {
            std::fclose(f);
            mc_fatal("trace '", path, "' record ", totalRecords_,
                     " has address 0x", std::hex, fr.addr,
                     ", beyond the modelled ", std::dec, kAddrBits,
                     "-bit address space");
        }
        ++totalRecords_;
        if (fetch) {
            cores_[fr.core].fetches.push_back(fr.addr);
        } else {
            TraceRecord rec;
            rec.type = TraceRecord::Type::Op;
            rec.kind = fr.kind;
            rec.core = fr.core;
            rec.length = fr.length;
            rec.addr = fr.addr;
            cores_[fr.core].ops.push_back(rec);
        }
    }
    std::fclose(f);
    if (totalRecords_ == 0)
        mc_fatal("trace '", path, "' contains no records");
    // A trace may cover only a subset of the declared cores (e.g. a
    // capture filtered to one core); replaying an uncovered core is
    // diagnosed lazily in nextOp()/nextFetchBlock().
}

Op
TraceWorkload::nextOp(CoreId core)
{
    mc_assert(core < numCores_, "trace replay core out of range");
    PerCore &pc = cores_[core];
    mc_assert(!pc.ops.empty(), "trace has no ops for core ", core);
    const TraceRecord &rec = pc.ops[pc.opCursor];
    pc.opCursor = (pc.opCursor + 1) % pc.ops.size();
    Op op;
    op.kind = static_cast<Op::Kind>(rec.kind);
    op.length = rec.length;
    op.addr = rec.addr;
    return op;
}

Addr
TraceWorkload::nextFetchBlock(CoreId core)
{
    mc_assert(core < numCores_, "trace replay core out of range");
    PerCore &pc = cores_[core];
    mc_assert(!pc.fetches.empty(), "trace has no fetches for core ", core);
    const Addr a = pc.fetches[pc.fetchCursor];
    pc.fetchCursor = (pc.fetchCursor + 1) % pc.fetches.size();
    return a;
}

} // namespace mcsim
