#include "core/tg_diffuser.hh"

#include <algorithm>

#include "obs/metrics.hh"
#include "util/binio.hh"
#include "util/fault.hh"
#include "util/logging.hh"
#include "util/timer.hh"

namespace cascade {

TgDiffuser::TgDiffuser(const EventSource &src, size_t train_end,
                       Options opts)
    : src_(src), trainEnd_(train_end), opts_(opts),
      ptrs_(src.numNodes(), 0), barriers_(src.numNodes())
{
    CASCADE_CHECK(train_end <= src.size(),
                  "TgDiffuser: train_end beyond stream");
    const size_t chunk =
        opts_.chunkSize == 0 ? trainEnd_ : opts_.chunkSize;
    for (size_t lo = 0; lo < trainEnd_; lo += chunk)
        chunkBounds_.emplace_back(lo, std::min(trainEnd_, lo + chunk));
    if (chunkBounds_.empty())
        chunkBounds_.emplace_back(0, 0);
    tables_.resize(chunkBounds_.size());

    // The first table always builds up front (nothing to overlap
    // with); its cost is charged as preprocessing either way.
    Timer t;
    tables_[0] = std::make_unique<DependencyTable>(DependencyTable::build(
        src_, chunkBounds_[0].first, chunkBounds_[0].second));
    prepSeconds_ += t.seconds();
}

TgDiffuser::~TgDiffuser()
{
    // AsyncCell's destructor also drops, but doing it here keeps the
    // join ahead of the members the worker lambda reads.
    if (pending_.active())
        pending_.drop();
}

void
TgDiffuser::setMaxRevisit(size_t maxr)
{
    maxr_ = std::max<size_t>(1, maxr);
}

void
TgDiffuser::bindMetrics(obs::MetricsRegistry &registry)
{
    lookupHist_ = &registry.histogram("stage.lookup.seconds");
    prepGauge_ = &registry.gauge("diffuser.preprocess_seconds");
    tableBytesGauge_ = &registry.gauge("diffuser.table_bytes");
    buildFailCounter_ = &registry.counter("diffuser.build_failures");
    prepGauge_->set(prepSeconds_);
    tableBytesGauge_->set(static_cast<double>(tableBytes()));
}

void
TgDiffuser::unbindMetrics()
{
    lookupHist_ = nullptr;
    prepGauge_ = nullptr;
    tableBytesGauge_ = nullptr;
    buildFailCounter_ = nullptr;
}

void
TgDiffuser::disablePipeline()
{
    if (pending_.active()) {
        // Drain the in-flight prefetch: keep a clean table, discard a
        // failed one (the failing prefetch is typically why we are
        // degrading; its chunk rebuilds synchronously on next use).
        const size_t c = pendingChunk_;
        pendingChunk_ = SIZE_MAX;
        try {
            auto built = pending_.collect();
            if (c < tables_.size() && !tables_[c])
                tables_[c] = std::move(built);
        } catch (...) {
            if (buildFailCounter_)
                buildFailCounter_->add(1);
        }
    }
    opts_.pipeline = false;
}

const DependencyTable &
TgDiffuser::ensureChunk(size_t c)
{
    CASCADE_CHECK(c < tables_.size(), "ensureChunk: bad chunk");
    if (tables_[c])
        return *tables_[c];
    Timer t;
    try {
        if (pendingChunk_ == c && pending_.active()) {
            // Pipelined build in flight: only the stall is
            // preprocessing. collect() consumes the slot either way,
            // so a failed prefetch leaves no stale pending state and
            // the supervisor's retry rebuilds synchronously below.
            pendingChunk_ = SIZE_MAX;
            tables_[c] = pending_.collect();
        } else {
            fault::maybeFailChunkBuild(c);
            tables_[c] =
                std::make_unique<DependencyTable>(DependencyTable::build(
                    src_, chunkBounds_[c].first, chunkBounds_[c].second));
        }
    } catch (...) {
        prepSeconds_ += t.seconds();
        if (prepGauge_)
            prepGauge_->set(prepSeconds_);
        if (buildFailCounter_)
            buildFailCounter_->add(1);
        throw;
    }
    prepSeconds_ += t.seconds();
    if (prepGauge_)
        prepGauge_->set(prepSeconds_);
    if (tableBytesGauge_)
        tableBytesGauge_->set(static_cast<double>(tableBytes()));
    return *tables_[c];
}

void
TgDiffuser::enterChunk(size_t c)
{
    const DependencyTable &table = ensureChunk(c);
    curChunk_ = c;
    swept_ = table.rangeLo();
    for (NodeId n : table.activeNodes())
        ptrs_[static_cast<size_t>(n)] = 0;

    // Prefetch the next chunk's table on a worker thread. A build
    // that throws is captured in the cell and surfaces at the
    // consuming ensureChunk, never on the worker.
    if (opts_.pipeline && c + 1 < tables_.size() && !tables_[c + 1] &&
        pendingChunk_ == SIZE_MAX) {
        const auto [lo, hi] = chunkBounds_[c + 1];
        pendingChunk_ = c + 1;
        pending_.launch([this, next = c + 1, lo, hi] {
            fault::maybeFailChunkBuild(next);
            return std::make_unique<DependencyTable>(
                DependencyTable::build(src_, lo, hi));
        });
    }
}

size_t
TgDiffuser::lastTolerableEnd(size_t st, const std::vector<uint8_t> &stable)
{
    CASCADE_CHECK(st < trainEnd_, "lastTolerableEnd: st out of range");
    Timer timer;

    // Advance the chunk cursor to the one containing st.
    size_t c = curChunk_ == SIZE_MAX ? 0 : curChunk_;
    while (c + 1 < chunkBounds_.size() && st >= chunkBounds_[c].second)
        ++c;
    if (c != curChunk_)
        enterChunk(c);
    const DependencyTable &table = *tables_[c];
    const size_t chunk_hi = chunkBounds_[c].second;
    const size_t limit = opts_.maxBatchCap > 0
        ? std::min(chunk_hi, st + opts_.maxBatchCap)
        : chunk_hi;

    // Algorithm 3 as a forward sweep from where the last batch ended:
    // node n's (Max_r + 1)-th relevant event from there is
    // entry[ptr + Max_r], so the first event that gives a non-stable
    // node that count is the minimum over nodes. A node with Max_r or
    // fewer events left never reaches it (the "-" / MAX_INT entries
    // of Figure 7(b)).
    // (Locals, not members, in the loop: the pointer stores could
    // alias size_t members and force a reload per dependent.)
    const uint8_t *stab = stable.empty() ? nullptr : stable.data();
    const uint64_t lookup = ++lookups_;
    const size_t maxr = maxr_;
    size_t e = swept_;
    bool bound = false;
    while (e < limit && !bound) {
        for (uint32_t n : table.dependents(e)) {
            Barrier &b = barriers_[n];
            if (b.lookup != lookup) {
                b.lookup = lookup;
                b.at = ptrs_[n] + maxr + 1;
            }
            // SG-Filter: stable nodes pose no barrier.
            if (++ptrs_[n] == b.at && !(stab && stab[n]))
                bound = true;
        }
        ++e;
    }

    // The boundary event itself belongs to the batch (Figure 7(b):
    // the batch's last event *is* the first intolerable one).
    const size_t ed = std::max(bound ? e : limit, st + 1);
    CASCADE_CHECK(ed > st && ed <= chunk_hi,
                  "lastTolerableEnd made no progress");
    // Pointers count every relevant event before the batch's end
    // (more than the sweep saw only if st skipped ahead of it).
    for (; e < ed; ++e) {
        for (uint32_t n : table.dependents(e))
            ++ptrs_[n];
    }
    swept_ = e;

    const double dt = timer.seconds();
    lookupSeconds_ += dt;
    if (lookupHist_)
        lookupHist_->record(dt);
    return ed;
}

void
TgDiffuser::resetEpoch()
{
    curChunk_ = SIZE_MAX;
    std::fill(ptrs_.begin(), ptrs_.end(), 0);
}

void
TgDiffuser::saveState(ByteWriter &w) const
{
    w.u64(curChunk_ == SIZE_MAX ? UINT64_MAX
                                : static_cast<uint64_t>(curChunk_));
    w.u64(maxr_);
    w.u64(ptrs_.size());
    if (!ptrs_.empty())
        w.bytes(ptrs_.data(), ptrs_.size() * sizeof(size_t));
}

bool
TgDiffuser::loadState(ByteReader &r)
{
    uint64_t chunk = 0, maxr = 0, n = 0;
    if (!r.u64(chunk) || !r.u64(maxr) || !r.u64(n) ||
        n != ptrs_.size()) {
        return false;
    }
    if (chunk != UINT64_MAX && chunk >= chunkBounds_.size())
        return false;
    std::vector<size_t> ptrs(static_cast<size_t>(n), 0);
    if (!ptrs.empty() &&
        !r.bytes(ptrs.data(), ptrs.size() * sizeof(size_t))) {
        return false;
    }
    // The sweep resumes where the saved cursors stand, so they must
    // stand at one event of the chunk; check before changing state.
    size_t swept = 0;
    if (chunk != UINT64_MAX) {
        swept = positionOf(ensureChunk(static_cast<size_t>(chunk)), ptrs);
        if (swept == SIZE_MAX)
            return false;
    }
    maxr_ = std::max<uint64_t>(1, maxr);
    if (chunk == UINT64_MAX) {
        resetEpoch();
    } else {
        // enterChunk prefetches the next table and zeroes the active
        // pointers; the saved cursors then replace them so the
        // batch-boundary search resumes mid-epoch.
        enterChunk(static_cast<size_t>(chunk));
        swept_ = swept;
    }
    ptrs_ = std::move(ptrs);
    return true;
}

size_t
TgDiffuser::positionOf(const DependencyTable &table,
                       const std::vector<size_t> &ptrs) const
{
    // Every event has a dependent, so the pair count before each
    // event is distinct and the cursors' sum names one candidate.
    size_t want = 0;
    for (NodeId n : table.activeNodes())
        want += ptrs[static_cast<size_t>(n)];
    std::vector<size_t> counts(ptrs.size(), 0);
    size_t pos = table.rangeLo();
    size_t pairs = 0;
    for (; pairs < want && pos < table.rangeHi(); ++pos) {
        const auto deps = table.dependents(pos);
        for (uint32_t n : deps)
            ++counts[n];
        pairs += deps.size();
    }
    // Equal counts also rule out a sum that wrapped around.
    for (NodeId n : table.activeNodes()) {
        const size_t i = static_cast<size_t>(n);
        if (counts[i] != ptrs[i])
            return SIZE_MAX;
    }
    return pos;
}

size_t
TgDiffuser::tableBytes() const
{
    size_t b = 0;
    for (const auto &t : tables_) {
        if (t)
            b += t->bytes();
    }
    return b;
}

} // namespace cascade
