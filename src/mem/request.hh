/**
 * @file
 * The memory request type exchanged between the cache hierarchy and
 * the memory controller.
 */

#ifndef CLOUDMC_MEM_REQUEST_HH
#define CLOUDMC_MEM_REQUEST_HH

#include <cstdint>

#include "common/types.hh"
#include "dram/dram_params.hh"

namespace mcsim {

/** How a serviced request found its target row. */
enum class RowOutcome : std::uint8_t {
    Unknown,  ///< Not yet serviced.
    Hit,      ///< Row already open; CAS only.
    Miss,     ///< Bank was precharged; ACT + CAS.
    Conflict, ///< Another row was open; PRE + ACT + CAS.
};

/** A block-granularity memory request at the controller. */
struct Request
{
    std::uint64_t id = 0;
    CoreId core = 0;
    bool isWrite = false;
    bool isIo = false; ///< Issued by a DMA/IO engine, not a core.

    Addr addr = 0;       ///< Block-aligned physical address.
    DramCoord coord;     ///< Decoded channel/rank/bank/row/column.

    Tick arrivedAt;   ///< Enqueue tick at the controller.
    Tick completedAt; ///< Read: last data beat; write: CAS issue.

    /** Earliest tick the backend will service this request (default 0:
     *  immediately). Stamped by MemBackend::route() when the target
     *  slot is mid-migration (stacked backend's remap cost model); the
     *  controller clamps every command's legal tick to it. */
    Tick availableAt;

    // --- controller bookkeeping (set by MemController::enqueue) ---
    /** Enqueue order at this request's controller: the age tie-break
     *  for requests that arrived on the same tick. */
    std::uint64_t seq = 0;

    RowOutcome outcome = RowOutcome::Unknown;

    // --- scheduler scratch state ---
    bool marked = false;   ///< PAR-BS batch membership.
    bool preIssued = false; ///< A conflict PRE was issued for us.
    bool actIssued = false; ///< An ACT was issued for us.
};

/** Age order of the age-ordered schedulers (FR-FCFS, FCFS,
 *  FCFS_banks): earlier arrival first, then earlier enqueue
 *  (Request::seq). A total order over one controller's queued
 *  requests, so a pick by it never depends on candidate order. */
inline bool
olderThan(const Request &a, const Request &b)
{
    return a.arrivedAt != b.arrivedAt ? a.arrivedAt < b.arrivedAt
                                      : a.seq < b.seq;
}

} // namespace mcsim

#endif // CLOUDMC_MEM_REQUEST_HH
