/**
 * @file
 * Topology-Aware Graph Diffuser (§4.2).
 *
 * Owns the dependency table(s) and per-node event pointers and answers
 * the runtime question "how far may the next batch extend?" via
 * Algorithm 3: each non-stable node tolerates at most Max_r relevant
 * events before it must be refreshed; the batch boundary is the
 * minimum last-tolerable event across nodes (inclusive).
 *
 * The minimum is found by one forward sweep over the by-event table
 * from the batch start: each event bumps the pointers of the nodes
 * whose entry holds it, and the sweep stops at the first event that
 * gives a non-stable node its (Max_r + 1)-th relevant event. That
 * event is the minimum of entry[ptr + Max_r] over the nodes, so the
 * lookup costs the batch's own (event, node) pairs, not a pass over
 * every active node.
 *
 * With a nonzero chunk size the event range is split into consecutive
 * chunks whose tables are built independently (dependencies truncated
 * at chunk boundaries) and optionally *pipelined*: chunk k+1's table
 * builds on a worker thread while chunk k trains, so only the stall
 * time is charged as preprocessing (§4.2, evaluated as Cascade_EX in
 * §5.5).
 */

#ifndef CASCADE_CORE_TG_DIFFUSER_HH
#define CASCADE_CORE_TG_DIFFUSER_HH

#include <memory>
#include <vector>

#include "core/dependency_table.hh"
#include "graph/event.hh"
#include "util/queue.hh"

namespace cascade {

class ByteWriter;
class ByteReader;

namespace obs {
class MetricsRegistry;
class Histogram;
class Gauge;
class Counter;
}

/** Adaptive batch-boundary search over the dependency table. */
class TgDiffuser
{
  public:
    struct Options
    {
        /** Events per chunk; 0 = one table over everything. */
        size_t chunkSize = 0;
        /** Overlap next-chunk table building with training. */
        bool pipeline = true;
        /** Hard cap on batch length; 0 = uncapped. */
        size_t maxBatchCap = 0;
    };

    /**
     * @param src        training events (tables cover [0, train_end));
     *                   must outlive the diffuser
     * @param train_end  number of training events
     */
    TgDiffuser(const EventSource &src, size_t train_end, Options opts);

    /** Construct over a resident sequence (borrowed, not copied). */
    TgDiffuser(const EventSequence &seq, size_t train_end, Options opts)
        : TgDiffuser(std::make_unique<VectorEventSource>(seq), train_end,
                     opts)
    {}

    ~TgDiffuser();

    TgDiffuser(const TgDiffuser &) = delete;
    TgDiffuser &operator=(const TgDiffuser &) = delete;

    /** Set Max_r (driven by the Adaptive Batch Sensor). */
    void setMaxRevisit(size_t maxr);
    size_t maxRevisit() const { return maxr_; }

    /**
     * Algorithm 3: exclusive end of the batch starting at st.
     * @param stable per-node stable flags (empty = none stable)
     * @post st < result <= trainEnd, result <= current chunk end
     */
    size_t lastTolerableEnd(size_t st,
                            const std::vector<uint8_t> &stable);

    /** Rewind pointers/chunk cursor for a new epoch. */
    void resetEpoch();

    /**
     * Degradation-ladder rung: stop prefetching chunk tables on a
     * worker thread. Any in-flight prefetch is drained first — a
     * clean result is kept, a failed one is discarded so the next
     * ensureChunk rebuilds synchronously. One-way for the lifetime of
     * this diffuser; harmless when pipelining was never on.
     */
    void disablePipeline();

    /** Pipelined prefetching currently enabled? */
    bool pipelined() const { return opts_.pipeline; }

    /** Table building seconds; pipelined builds charge only stalls. */
    double preprocessSeconds() const { return prepSeconds_; }

    /** Accumulated Algorithm 3 lookup seconds. */
    double lookupSeconds() const { return lookupSeconds_; }

    /**
     * Publish lookup/preprocess measurements as named instruments
     * (`stage.lookup.seconds` histogram, `diffuser.*` gauges). The
     * accessors above remain views over the same numbers.
     */
    void bindMetrics(obs::MetricsRegistry &registry);

    /** Drop the bound instruments (registry about to go away). */
    void unbindMetrics();

    /** Dependency-table bytes across built chunks (Figure 13c). */
    size_t tableBytes() const;

    size_t numChunks() const { return chunkBounds_.size(); }

    /** Already-built table for chunk c, or nullptr. */
    const DependencyTable *
    table(size_t c) const
    {
        return c < tables_.size() ? tables_[c].get() : nullptr;
    }

    /**
     * Serialize the mid-epoch position: Max_r, current chunk and the
     * per-node event pointers (Algorithm 3's cursors).
     */
    void saveState(ByteWriter &w) const;

    /**
     * Restore a position written by saveState, rebuilding the active
     * chunk's table if needed. The active chunk's cursors must be the
     * relevant-event counts of every node before one event of the
     * chunk, as saveState writes them; that position is where the
     * next sweep resumes.
     * @return false, with the diffuser unchanged, on a node-count
     *         mismatch, a short payload, a bad chunk, or cursors that
     *         are no such position (one past a node's entry, say)
     */
    bool loadState(ByteReader &r);

  private:
    /**
     * Table for chunk c, building or waiting as needed.
     *
     * Exception-safe: a failed build — whether thrown by the
     * pipelined worker (surfacing here through the future) or by a
     * synchronous rebuild — leaves no broken table cached and no
     * stale pending state, counts into `diffuser.build_failures`,
     * and propagates to the caller (the batch-boundary stage), where
     * the session's supervisor retries or degrades.
     */
    const DependencyTable &ensureChunk(size_t c);

    /** Enter chunk c: reset pointers, prefetch c+1. */
    void enterChunk(size_t c);

    /**
     * The sweep position in the current chunk that the cursors in
     * `ptrs` describe, or SIZE_MAX if they describe none.
     */
    size_t positionOf(const DependencyTable &table,
                      const std::vector<size_t> &ptrs) const;

    /** Adapter-owning delegate for the EventSequence convenience
     *  constructor: the wrapper must live as long as src_. */
    TgDiffuser(std::unique_ptr<VectorEventSource> owned, size_t train_end,
               Options opts)
        : TgDiffuser(*owned, train_end, opts)
    {
        ownedSrc_ = std::move(owned);
    }

    std::unique_ptr<VectorEventSource> ownedSrc_;
    const EventSource &src_;
    size_t trainEnd_;
    Options opts_;
    size_t maxr_ = 8;

    /** chunkBounds_[c] = {lo, hi} of chunk c. */
    std::vector<std::pair<size_t, size_t>> chunkBounds_;
    std::vector<std::unique_ptr<DependencyTable>> tables_;
    /** One-shot prefetch slot (util/queue.hh): chunk k+1's table
     *  builds on its worker while chunk k trains. */
    AsyncCell<std::unique_ptr<DependencyTable>> pending_;
    size_t pendingChunk_ = SIZE_MAX;

    size_t curChunk_ = SIZE_MAX;
    /** Per node: its relevant events in the current chunk before
     *  swept_ (its entry cursor). Nodes outside the chunk keep
     *  whatever an earlier chunk left; nothing reads them. */
    std::vector<size_t> ptrs_;
    /** First event of the current chunk not yet swept. */
    size_t swept_ = 0;

    /** Per node: the pointer value at which the node binds the
     *  lookup numbered `lookup` (its pointer then, plus Max_r + 1). */
    struct Barrier
    {
        uint64_t lookup = 0;
        size_t at = 0;
    };
    std::vector<Barrier> barriers_;
    uint64_t lookups_ = 0;

    double prepSeconds_ = 0.0;
    double lookupSeconds_ = 0.0;

    /** Bound instruments (null until bindMetrics). */
    obs::Histogram *lookupHist_ = nullptr;
    obs::Gauge *prepGauge_ = nullptr;
    obs::Gauge *tableBytesGauge_ = nullptr;
    obs::Counter *buildFailCounter_ = nullptr;
};

} // namespace cascade

#endif // CASCADE_CORE_TG_DIFFUSER_HH
