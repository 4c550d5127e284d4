/**
 * @file
 * The TG-Diffuser's node-event dependency table (Algorithm 2, §4.2),
 * stored by event.
 *
 * Node n's entry D[n] is the set of:
 *   (a) the indices of every event incident to node n, and
 *   (b) for each incident event e(n,q) at index i, the indices of q's
 *       events with index > i (a neighbor's *future* events affect n's
 *       memory through n's next update; its past events do not).
 *
 * Only q's first contact with n matters in (b), so e(a,b) is in D[n]
 * exactly when n is a or b, or n met a or b in an earlier event of
 * the range. The table keeps the transpose of the entries: for each
 * event, the nodes whose entry holds it (CSR: one offset per event and
 * one flat uint32 node array). Algorithm 3 sweeps it forward from the
 * batch start, and the ABS profile counts a window with it, so both
 * touch only the events they look at.
 *
 * Tables are immutable after construction. The chunked variant (§4.2
 * "Chunk-based Optimization") builds one table per range of
 * consecutive events, truncating dependencies at the chunk boundary.
 */

#ifndef CASCADE_CORE_DEPENDENCY_TABLE_HH
#define CASCADE_CORE_DEPENDENCY_TABLE_HH

#include <cstdint>
#include <span>
#include <vector>

#include "graph/event.hh"
#include "graph/event_source.hh"

namespace cascade {

/** Immutable by-event dependency table over an event range. */
class DependencyTable
{
  public:
    /**
     * Build over events [lo, hi) of the sequence (Algorithm 2) in one
     * counting and one filling sweep over the range. Neighbor
     * future-events are truncated to < hi, which is exactly the
     * chunk-boundary rule; lo=0, hi=N gives the full table.
     */
    static DependencyTable build(const EventSource &src, size_t lo,
                                 size_t hi);

    /** Build from a resident sequence. */
    static DependencyTable
    build(const EventSequence &seq, size_t lo, size_t hi)
    {
        return build(VectorEventSource(seq), lo, hi);
    }

    /**
     * Nodes whose entry holds event e, each once (the event's own
     * endpoints first). Every event has at least one.
     * @pre rangeLo() <= e < rangeHi()
     */
    std::span<const uint32_t>
    dependents(size_t e) const
    {
        const size_t i = e - lo_;
        return {deps_.data() + offsets_[i],
                deps_.data() + offsets_[i + 1]};
    }

    size_t numNodes() const { return numNodes_; }
    size_t rangeLo() const { return lo_; }
    size_t rangeHi() const { return hi_; }

    /** Nodes with at least one entry, ascending: the endpoints of the
     *  range's events. */
    const std::vector<NodeId> &activeNodes() const { return active_; }

    /** Wall-clock seconds spent building (Figure 13b accounting). */
    double buildSeconds() const { return buildSeconds_; }

    /** Resident bytes (Figure 13c accounting). */
    size_t bytes() const;

  private:
    /** offsets_[e - lo] .. offsets_[e - lo + 1] index deps_. */
    std::vector<size_t> offsets_;
    std::vector<uint32_t> deps_;
    std::vector<NodeId> active_;
    size_t numNodes_ = 0;
    size_t lo_ = 0;
    size_t hi_ = 0;
    double buildSeconds_ = 0.0;
};

} // namespace cascade

#endif // CASCADE_CORE_DEPENDENCY_TABLE_HH
