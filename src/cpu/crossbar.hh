/**
 * @file
 * Fixed-latency crossbar link model.
 *
 * The scale-out pod uses a 16x4 crossbar between cores and LLC banks
 * and a link from the LLC to the memory controllers. The paper never
 * varies the NoC, so cloudmc models each traversal as a fixed latency
 * with unlimited bandwidth: a FIFO of (ready tick, payload) pairs.
 * Port contention is deliberately left out: the study varies only
 * the memory side, so contention in the crossbar would shift all
 * configurations equally.
 */

#ifndef CLOUDMC_CPU_CROSSBAR_HH
#define CLOUDMC_CPU_CROSSBAR_HH

#include <deque>
#include <utility>
#include <vector>

#include "common/types.hh"

namespace mcsim {

/** Constant-delay in-order delivery channel. */
template <typename Payload>
class CrossbarLink
{
  public:
    explicit CrossbarLink(TickSpan latencyTicks) : latency_(latencyTicks) {}

    /** Inject a payload at @p now; it is deliverable at now+latency. */
    void
    push(Tick now, Payload payload)
    {
        fifo_.push_back({now + latency_, std::move(payload)});
    }

    /** True when a payload is deliverable at @p now. */
    bool
    ready(Tick now) const
    {
        return !fifo_.empty() && fifo_.front().first <= now;
    }

    /** Remove and return the front payload (must be ready()). */
    Payload
    pop()
    {
        Payload p = std::move(fifo_.front().second);
        fifo_.pop_front();
        return p;
    }

    /**
     * Tick at which the next payload becomes deliverable; kMaxTick
     * when the link is empty. Delivery is in-order, so the head entry
     * is always the earliest.
     */
    Tick
    nextReadyAt() const
    {
        return fifo_.empty() ? kMaxTick : fifo_.front().first;
    }

    /**
     * Remove and return the front entry regardless of readiness,
     * delivery tick included. The epoch-sharded kernel uses this to
     * hand a link's backlog to the shards at window start.
     */
    std::pair<Tick, Payload>
    takeFront()
    {
        std::pair<Tick, Payload> e = std::move(fifo_.front());
        fifo_.pop_front();
        return e;
    }

    /**
     * Re-insert a payload with a precomputed delivery tick (the
     * inverse of takeFront(), used when the epoch-sharded kernel hands
     * unconsumed traffic back at window end). Callers must restore in
     * nondecreasing readyAt order or the in-order contract breaks.
     */
    void
    pushAt(Tick readyAt, Payload payload)
    {
        fifo_.push_back({readyAt, std::move(payload)});
    }

    std::size_t size() const { return fifo_.size(); }
    TickSpan latency() const { return latency_; }

  private:
    TickSpan latency_;
    std::deque<std::pair<Tick, Payload>> fifo_;
};

/**
 * Double-buffered cross-shard staging queue for the epoch-sharded
 * kernel (see README "Deterministic intra-simulation parallelism").
 *
 * One side of a crossbar link produces entries during epoch k into the
 * buffer of parity k&1; the other side consumes the opposite buffer —
 * the one filled during epoch k-1 — so producer and consumer never
 * touch the same vector inside an epoch. The inter-epoch barrier is
 * the only synchronization: it publishes epoch k's writes before any
 * epoch-k+1 read, and a buffer is rewritten only two epochs after its
 * last reader crossed a barrier.
 *
 * Ownership rules (unchecked, by construction of the kernel):
 *  - exactly one writer thread per EpochStage;
 *  - the writer calls beginEpoch(parity) once per epoch, before any
 *    push, to reclaim the buffer its readers finished with;
 *  - readers only touch readBuf(parity) for the parity they are
 *    consuming, and never across their own epoch's boundary.
 */
template <typename Entry>
class EpochStage
{
  public:
    /** Writer: reclaim this epoch's write buffer (clears it). */
    void
    beginEpoch(unsigned parity)
    {
        buf_[parity & 1].clear();
    }

    /** Writer: stage one entry into this epoch's buffer. */
    void
    push(unsigned parity, Entry e)
    {
        buf_[parity & 1].push_back(std::move(e));
    }

    /** Reader: the buffer filled during the previous epoch. */
    const std::vector<Entry> &
    readBuf(unsigned parity) const
    {
        return buf_[parity & 1];
    }

    /** Single-threaded teardown: drop everything in both buffers. */
    void
    reset()
    {
        buf_[0].clear();
        buf_[1].clear();
    }

  private:
    std::vector<Entry> buf_[2];
};

} // namespace mcsim

#endif // CLOUDMC_CPU_CROSSBAR_HH
