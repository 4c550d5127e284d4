/**
 * @file
 * TG-Diffuser tests (Algorithm 3): progress/partition guarantees, the
 * Max_r endurance invariant, stable-node bypass, the Figure 7(b)/8(b)
 * worked examples, chunk capping and epoch reset; an oracle that
 * checks every boundary and cursor of the sweep against the full scan
 * over brute-force per-node entries; and checkpoint cursors that must
 * be rejected.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>

#include "core/dependency_table.hh"
#include "core/tg_diffuser.hh"
#include "dependency_reference.hh"
#include "graph/adjacency.hh"
#include "graph/dataset.hh"
#include "util/binio.hh"

using namespace cascade;
using testref::bruteForceEntries;
using testref::countIn;

namespace {

/** The Figure 7 example sequence (see test_dependency_table.cc). */
EventSequence
figure7Sequence()
{
    EventSequence seq;
    seq.numNodes = 14;
    const std::vector<std::pair<NodeId, NodeId>> edges = {
        {1, 2}, {1, 7}, {1, 8}, {1, 9}, {10, 11}, {10, 12},
        {10, 13}, {10, 4}, {1, 3}, {1, 5}, {1, 6}, {3, 4},
    };
    double t = 0.0;
    for (auto [s, d] : edges)
        seq.events.push_back({s, d, t += 1.0});
    return seq;
}

std::vector<uint8_t> noStable;

} // namespace

TEST(TgDiffuser, Figure7WorkedExample)
{
    EventSequence seq = figure7Sequence();
    TgDiffuser diffuser(seq, seq.size(), {});
    diffuser.setMaxRevisit(4);

    // Figure 7(b): with Max_r = 4 the first batch ends at event 8
    // (inclusive), i.e. events [0, 9).
    EXPECT_EQ(diffuser.lastTolerableEnd(0, noStable), 9u);
}

TEST(TgDiffuser, Figure8StableNodesExtendTheBatch)
{
    EventSequence seq = figure7Sequence();
    TgDiffuser diffuser(seq, seq.size(), {});
    diffuser.setMaxRevisit(4);

    // Figure 8(b): with nodes 1, 2 and 7 stable the barrier at event
    // 8 vanishes and the batch extends to event 10 (inclusive).
    std::vector<uint8_t> stable(seq.numNodes, 0);
    stable[1] = stable[2] = stable[7] = 1;
    EXPECT_EQ(diffuser.lastTolerableEnd(0, stable), 11u);
}

TEST(TgDiffuser, BatchesPartitionTheSequenceInOrder)
{
    DatasetSpec spec = wikiSpec(200.0);
    Rng rng(1);
    EventSequence seq = generateDataset(spec, rng);
    TgDiffuser diffuser(seq, seq.size(), {});
    diffuser.setMaxRevisit(6);

    size_t st = 0;
    size_t batches = 0;
    while (st < seq.size()) {
        const size_t ed = diffuser.lastTolerableEnd(st, noStable);
        ASSERT_GT(ed, st);
        ASSERT_LE(ed, seq.size());
        st = ed;
        ++batches;
    }
    EXPECT_EQ(st, seq.size());
    EXPECT_GT(batches, 1u);
}

class MaxRevisitInvariant : public ::testing::TestWithParam<size_t>
{};

TEST_P(MaxRevisitInvariant, NoNodeExceedsMaxRPlusBoundary)
{
    // Property (§4.2): within any produced batch, every node's
    // relevant-event count is at most Max_r + 1 — the +1 being the
    // boundary event that triggers the node's refresh.
    const size_t maxr = GetParam();
    DatasetSpec spec = wikiSpec(250.0);
    Rng rng(2);
    EventSequence seq = generateDataset(spec, rng);
    const auto entries = bruteForceEntries(seq, 0, seq.size());
    TgDiffuser diffuser(seq, seq.size(), {});
    diffuser.setMaxRevisit(maxr);

    size_t st = 0;
    while (st < seq.size()) {
        const size_t ed = diffuser.lastTolerableEnd(st, noStable);
        for (size_t n = 0; n < entries.size(); ++n) {
            ASSERT_LE(countIn(entries[n], st, ed), maxr + 1)
                << "node " << n << " batch [" << st << "," << ed << ")";
        }
        st = ed;
    }
}

INSTANTIATE_TEST_SUITE_P(Sweep, MaxRevisitInvariant,
                         ::testing::Values(1, 2, 4, 8, 16));

TEST(TgDiffuser, LargerMaxRevisitNeverShrinksBatches)
{
    DatasetSpec spec = wikiSpec(250.0);
    Rng rng(3);
    EventSequence seq = generateDataset(spec, rng);

    auto firstBatch = [&](size_t maxr) {
        TgDiffuser d(seq, seq.size(), {});
        d.setMaxRevisit(maxr);
        return d.lastTolerableEnd(0, noStable);
    };
    size_t prev = 0;
    for (size_t maxr : {1, 2, 4, 8, 16, 32}) {
        const size_t ed = firstBatch(maxr);
        ASSERT_GE(ed, prev) << "maxr " << maxr;
        prev = ed;
    }
}

TEST(TgDiffuser, StableNodesNeverShrinkBatches)
{
    DatasetSpec spec = wikiSpec(250.0);
    Rng rng(4);
    EventSequence seq = generateDataset(spec, rng);
    TemporalAdjacency adj(seq);
    TgDiffuser a(seq, seq.size(), {});
    TgDiffuser b(seq, seq.size(), {});
    a.setMaxRevisit(4);
    b.setMaxRevisit(4);

    // Flag the highest-degree node stable.
    size_t hub = 0, hub_deg = 0;
    for (size_t n = 0; n < seq.numNodes; ++n) {
        if (adj.eventsOf(n).size() > hub_deg) {
            hub_deg = adj.eventsOf(n).size();
            hub = n;
        }
    }
    std::vector<uint8_t> stable(seq.numNodes, 0);
    stable[hub] = 1;

    size_t st_a = 0, st_b = 0;
    while (st_a < seq.size() && st_b < seq.size()) {
        const size_t ed_a = a.lastTolerableEnd(st_a, noStable);
        const size_t ed_b = b.lastTolerableEnd(st_b, stable);
        if (st_a == st_b) {
            ASSERT_GE(ed_b, ed_a);
        }
        st_a = ed_a;
        st_b = ed_b;
        if (st_a != st_b)
            break; // trajectories diverged; prefix comparison done
    }
}

TEST(TgDiffuser, AllStableRunsToChunkEnd)
{
    EventSequence seq = figure7Sequence();
    TgDiffuser diffuser(seq, seq.size(), {});
    diffuser.setMaxRevisit(1);
    std::vector<uint8_t> stable(seq.numNodes, 1);
    EXPECT_EQ(diffuser.lastTolerableEnd(0, stable), seq.size());
}

TEST(TgDiffuser, MaxBatchCapIsHonored)
{
    EventSequence seq = figure7Sequence();
    TgDiffuser::Options opts;
    opts.maxBatchCap = 3;
    TgDiffuser diffuser(seq, seq.size(), opts);
    diffuser.setMaxRevisit(100);
    EXPECT_EQ(diffuser.lastTolerableEnd(0, noStable), 3u);
}

TEST(TgDiffuser, ChunksBoundBatchesAndPartition)
{
    DatasetSpec spec = wikiSpec(250.0);
    Rng rng(5);
    EventSequence seq = generateDataset(spec, rng);
    TgDiffuser::Options opts;
    opts.chunkSize = seq.size() / 4 + 1;
    opts.pipeline = false;
    TgDiffuser diffuser(seq, seq.size(), opts);
    diffuser.setMaxRevisit(1000000); // only chunk boundaries bind

    EXPECT_EQ(diffuser.numChunks(), 4u);
    size_t st = 0;
    std::vector<size_t> ends;
    while (st < seq.size()) {
        st = diffuser.lastTolerableEnd(st, noStable);
        ends.push_back(st);
    }
    // With an unbounded Max_r each batch is exactly one chunk.
    ASSERT_EQ(ends.size(), 4u);
    EXPECT_EQ(ends.back(), seq.size());
    for (size_t e : ends)
        EXPECT_EQ(e % opts.chunkSize == 0 || e == seq.size(), true);
}

TEST(TgDiffuser, PipelinedChunksProduceSameBatches)
{
    DatasetSpec spec = wikiSpec(250.0);
    Rng rng(6);
    EventSequence seq = generateDataset(spec, rng);

    TgDiffuser::Options o1, o2;
    o1.chunkSize = o2.chunkSize = seq.size() / 3 + 1;
    o1.pipeline = false;
    o2.pipeline = true;
    TgDiffuser serial(seq, seq.size(), o1);
    TgDiffuser piped(seq, seq.size(), o2);
    serial.setMaxRevisit(5);
    piped.setMaxRevisit(5);

    size_t st = 0;
    while (st < seq.size()) {
        const size_t a = serial.lastTolerableEnd(st, noStable);
        const size_t b = piped.lastTolerableEnd(st, noStable);
        ASSERT_EQ(a, b);
        st = a;
    }
}

TEST(TgDiffuser, EpochResetReproducesBatches)
{
    DatasetSpec spec = wikiSpec(300.0);
    Rng rng(7);
    EventSequence seq = generateDataset(spec, rng);
    TgDiffuser diffuser(seq, seq.size(), {});
    diffuser.setMaxRevisit(4);

    std::vector<size_t> first, second;
    size_t st = 0;
    while (st < seq.size()) {
        st = diffuser.lastTolerableEnd(st, noStable);
        first.push_back(st);
    }
    diffuser.resetEpoch();
    st = 0;
    while (st < seq.size()) {
        st = diffuser.lastTolerableEnd(st, noStable);
        second.push_back(st);
    }
    EXPECT_EQ(first, second);
}

TEST(TgDiffuser, AccountsTimeAndBytes)
{
    EventSequence seq = figure7Sequence();
    TgDiffuser diffuser(seq, seq.size(), {});
    diffuser.setMaxRevisit(2);
    diffuser.lastTolerableEnd(0, noStable);
    EXPECT_GE(diffuser.preprocessSeconds(), 0.0);
    EXPECT_GT(diffuser.lookupSeconds(), 0.0);
    EXPECT_GT(diffuser.tableBytes(), 0u);
}

// ---------------------------------------------------------------------
// Oracle: the full scan the sweep replaced
// ---------------------------------------------------------------------

namespace {

/**
 * Algorithm 3 as a full scan over brute-force per-node entries: each
 * lookup takes the minimum of entry[ptr + Max_r] over every non-stable
 * node with more than Max_r events left, then advances every pointer
 * past the batch. state() is its position in saveState's layout.
 */
class ScanOracle
{
  public:
    ScanOracle(const EventSequence &seq, size_t train_end,
               TgDiffuser::Options opts)
        : seq_(seq), opts_(opts), ptrs_(seq.numNodes, 0)
    {
        const size_t chunk =
            opts.chunkSize == 0 ? train_end : opts.chunkSize;
        for (size_t lo = 0; lo < train_end; lo += chunk)
            bounds_.emplace_back(lo, std::min(train_end, lo + chunk));
        entries_.resize(bounds_.size());
    }

    void setMaxRevisit(size_t maxr) { maxr_ = std::max<size_t>(1, maxr); }

    void
    resetEpoch()
    {
        cur_ = SIZE_MAX;
        std::fill(ptrs_.begin(), ptrs_.end(), 0);
    }

    size_t
    lastTolerableEnd(size_t st, const std::vector<uint8_t> &stable)
    {
        size_t c = cur_ == SIZE_MAX ? 0 : cur_;
        while (c + 1 < bounds_.size() && st >= bounds_[c].second)
            ++c;
        const auto &entries = chunkEntries(c);
        if (c != cur_) {
            cur_ = c;
            for (size_t n = 0; n < entries.size(); ++n) {
                if (!entries[n].empty())
                    ptrs_[n] = 0;
            }
        }
        const size_t chunk_hi = bounds_[c].second;
        EventIdx best = std::numeric_limits<EventIdx>::max();
        for (size_t n = 0; n < entries.size(); ++n) {
            if (entries[n].empty() || (!stable.empty() && stable[n]))
                continue;
            if (ptrs_[n] + maxr_ >= entries[n].size())
                continue;
            best = std::min(best, entries[n][ptrs_[n] + maxr_]);
        }
        size_t ed = best == std::numeric_limits<EventIdx>::max()
            ? chunk_hi
            : std::min(chunk_hi, static_cast<size_t>(best) + 1);
        ed = std::max(ed, st + 1);
        if (opts_.maxBatchCap > 0)
            ed = std::min(ed, st + opts_.maxBatchCap);
        ed = std::min(ed, chunk_hi);
        for (size_t n = 0; n < entries.size(); ++n) {
            while (ptrs_[n] < entries[n].size() &&
                   entries[n][ptrs_[n]] < static_cast<EventIdx>(ed)) {
                ++ptrs_[n];
            }
        }
        return ed;
    }

    std::string
    state() const
    {
        ByteWriter w;
        w.u64(cur_ == SIZE_MAX ? UINT64_MAX : cur_);
        w.u64(maxr_);
        w.u64(ptrs_.size());
        w.bytes(ptrs_.data(), ptrs_.size() * sizeof(size_t));
        return w.buffer();
    }

  private:
    const testref::Entries &
    chunkEntries(size_t c)
    {
        if (entries_[c].empty()) {
            entries_[c] = bruteForceEntries(seq_, bounds_[c].first,
                                            bounds_[c].second);
        }
        return entries_[c];
    }

    const EventSequence &seq_;
    TgDiffuser::Options opts_;
    size_t maxr_ = 8;
    std::vector<std::pair<size_t, size_t>> bounds_;
    std::vector<testref::Entries> entries_;
    size_t cur_ = SIZE_MAX;
    std::vector<size_t> ptrs_;
};

std::string
savedState(const TgDiffuser &d)
{
    ByteWriter w;
    d.saveState(w);
    return w.buffer();
}

/**
 * Drive a diffuser and the oracle through two epochs with random
 * stable flags (sometimes none) and random Max_r changes mid-epoch;
 * every boundary and every cursor must agree. With `resume_at` the
 * diffuser is replaced after that many batches by a fresh one loaded
 * from its saved state.
 */
void
expectSweepMatchesScan(const EventSequence &seq, TgDiffuser::Options opts,
                       uint64_t seed, size_t resume_at = SIZE_MAX)
{
    const size_t n = seq.size();
    auto diffuser = std::make_unique<TgDiffuser>(seq, n, opts);
    ScanOracle oracle(seq, n, opts);
    Rng rng(seed);
    size_t maxr = 4;
    diffuser->setMaxRevisit(maxr);
    oracle.setMaxRevisit(maxr);
    std::vector<uint8_t> stable(seq.numNodes, 0);
    size_t batch = 0;
    for (int epoch = 0; epoch < 2; ++epoch) {
        if (epoch > 0) {
            diffuser->resetEpoch();
            oracle.resetEpoch();
        }
        size_t st = 0;
        while (st < n) {
            SCOPED_TRACE("batch " + std::to_string(batch) + " st " +
                         std::to_string(st));
            if (rng.bernoulli(0.1)) {
                maxr = 1 + rng.uniformInt(12);
                diffuser->setMaxRevisit(maxr);
                oracle.setMaxRevisit(maxr);
            }
            const double p = rng.uniform();
            for (auto &flag : stable)
                flag = rng.bernoulli(p) ? 1 : 0;
            const auto &flags = rng.bernoulli(0.2) ? noStable : stable;

            const size_t ed = diffuser->lastTolerableEnd(st, flags);
            ASSERT_EQ(ed, oracle.lastTolerableEnd(st, flags));
            const std::string saved = savedState(*diffuser);
            ASSERT_EQ(saved, oracle.state());
            if (++batch == resume_at) {
                auto resumed = std::make_unique<TgDiffuser>(seq, n, opts);
                ByteReader r(saved);
                ASSERT_TRUE(resumed->loadState(r));
                ASSERT_EQ(savedState(*resumed), saved);
                diffuser = std::move(resumed);
            }
            st = ed;
        }
    }
}

EventSequence
generated(DatasetSpec spec, uint64_t seed)
{
    Rng rng(seed);
    return generateDataset(spec, rng);
}

} // namespace

TEST(TgDiffuserOracle, RandomStableAndMaxrChangesMatchFullScan)
{
    for (uint64_t seed : {11u, 12u, 13u}) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        expectSweepMatchesScan(generated(wikiSpec(250.0), seed), {},
                               seed);
    }
    expectSweepMatchesScan(generated(sxFullSpec(20000.0), 14), {}, 14);
}

TEST(TgDiffuserOracle, CapsAndMidStreamChunksMatchFullScan)
{
    const EventSequence seq = generated(wikiSpec(250.0), 21);
    const size_t n = seq.size();
    for (bool pipeline : {false, true}) {
        for (size_t chunk : {size_t{0}, n / 3 + 1, n / 5 + 7, size_t{97}}) {
            for (size_t cap : {size_t{0}, size_t{7}}) {
                SCOPED_TRACE("pipeline " + std::to_string(pipeline) +
                             " chunk " + std::to_string(chunk) + " cap " +
                             std::to_string(cap));
                TgDiffuser::Options opts;
                opts.chunkSize = chunk;
                opts.pipeline = pipeline;
                opts.maxBatchCap = cap;
                expectSweepMatchesScan(seq, opts, 22 + chunk + cap);
            }
        }
    }
}

TEST(TgDiffuserOracle, ResumeMidChunkMatchesFullScan)
{
    const EventSequence seq = generated(wikiSpec(250.0), 31);
    for (bool pipeline : {false, true}) {
        for (size_t resume_at : {1u, 5u, 17u}) {
            SCOPED_TRACE("pipeline " + std::to_string(pipeline) +
                         " resume after " + std::to_string(resume_at));
            TgDiffuser::Options opts;
            opts.chunkSize = seq.size() / 3 + 1;
            opts.pipeline = pipeline;
            expectSweepMatchesScan(seq, opts, 32, resume_at);
        }
    }
}

// ---------------------------------------------------------------------
// Hostile checkpoint cursors
// ---------------------------------------------------------------------

namespace {

/** saveState's layout: chunk, Max_r, node count, one cursor a node. */
struct SavedPosition
{
    uint64_t chunk = 0;
    uint64_t maxr = 0;
    std::vector<size_t> ptrs;

    explicit SavedPosition(const std::string &bytes)
    {
        ByteReader r(bytes);
        uint64_t n = 0;
        EXPECT_TRUE(r.u64(chunk) && r.u64(maxr) && r.u64(n));
        ptrs.resize(n);
        EXPECT_TRUE(r.bytes(ptrs.data(), n * sizeof(size_t)));
    }

    std::string
    encode() const
    {
        ByteWriter w;
        w.u64(chunk);
        w.u64(maxr);
        w.u64(ptrs.size());
        w.bytes(ptrs.data(), ptrs.size() * sizeof(size_t));
        return w.buffer();
    }
};

/** A diffuser stopped mid-way through its second chunk. */
struct MidChunk
{
    EventSequence seq = generated(wikiSpec(250.0), 41);
    TgDiffuser::Options opts = [this] {
        TgDiffuser::Options o;
        o.chunkSize = seq.size() / 2 + 1;
        o.pipeline = false;
        return o;
    }();
    TgDiffuser diffuser{seq, seq.size(), opts};

    MidChunk()
    {
        diffuser.setMaxRevisit(3);
        size_t st = 0;
        while (st < opts.chunkSize + 20)
            st = diffuser.lastTolerableEnd(st, noStable);
    }

    /** The node with the most relevant events in the chunk. */
    std::pair<size_t, size_t>
    busiestNode() const
    {
        const auto entries = testref::entriesOf(*diffuser.table(1));
        size_t best = 0;
        for (size_t n = 1; n < entries.size(); ++n) {
            if (entries[n].size() > entries[best].size())
                best = n;
        }
        return {best, entries[best].size()};
    }
};

} // namespace

TEST(TgDiffuserState, LoadRejectsCursorPastNodeEntry)
{
    MidChunk m;
    const std::string good = savedState(m.diffuser);
    SavedPosition pos(good);
    ASSERT_EQ(pos.chunk, 1u);
    const auto [node, count] = m.busiestNode();
    pos.ptrs[node] = count + 1;

    // Both a fresh diffuser and the running one refuse the cursor and
    // keep the position they had.
    TgDiffuser fresh(m.seq, m.seq.size(), m.opts);
    const std::string fresh_before = savedState(fresh);
    const std::string bad = pos.encode();
    ByteReader r1(bad);
    EXPECT_FALSE(fresh.loadState(r1));
    EXPECT_EQ(savedState(fresh), fresh_before);
    ByteReader r2(bad);
    EXPECT_FALSE(m.diffuser.loadState(r2));
    EXPECT_EQ(savedState(m.diffuser), good);

    // The untouched bytes still load.
    ByteReader r3(good);
    EXPECT_TRUE(fresh.loadState(r3));
    EXPECT_EQ(savedState(fresh), good);
}

TEST(TgDiffuserState, LoadRejectsCursorsOfNoSinglePosition)
{
    // Each cursor within its entry, but together at no one event of
    // the chunk: the sweep could not resume from them.
    MidChunk m;
    SavedPosition pos(savedState(m.diffuser));
    const auto [node, count] = m.busiestNode();
    ASSERT_LT(pos.ptrs[node], count);
    pos.ptrs[node] += 1;
    const std::string bad = pos.encode();
    ByteReader r(bad);
    EXPECT_FALSE(m.diffuser.loadState(r));
}
