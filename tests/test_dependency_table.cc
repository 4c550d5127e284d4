/**
 * @file
 * Dependency-table tests (Algorithm 2): the by-event table, read back
 * per node, is checked against an independent brute-force reference
 * on random graphs, plus structural invariants (each event lists a
 * node once, its endpoints first; range truncation; exact resident
 * bytes; the paper's worked example from Figure 7(a)).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/dependency_table.hh"
#include "dependency_reference.hh"
#include "graph/dataset.hh"

using namespace cascade;
using testref::bruteForceEntries;
using testref::entriesOf;

namespace {

/** The worked example of Figure 7(a): 12 events over nodes 1..9,a-d. */
EventSequence
figure7Sequence()
{
    // Node ids: 1..9 => 1..9, a=10, b=11, c=12, d=13 (0 unused).
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

} // namespace

TEST(DependencyTable, MatchesBruteForceOnSyntheticGraphs)
{
    for (uint64_t seed : {1u, 2u, 3u}) {
        DatasetSpec spec = wikiSpec(400.0);
        Rng rng(seed);
        EventSequence seq = generateDataset(spec, rng);
        DependencyTable table =
            DependencyTable::build(seq, 0, seq.size());
        const auto got = entriesOf(table);
        const auto ref = bruteForceEntries(seq, 0, seq.size());
        for (size_t n = 0; n < seq.numNodes; ++n)
            ASSERT_EQ(got[n], ref[n]) << "node " << n;
    }
}

TEST(DependencyTable, MatchesBruteForceOnSubRange)
{
    DatasetSpec spec = wikiSpec(400.0);
    Rng rng(4);
    EventSequence seq = generateDataset(spec, rng);
    const size_t lo = seq.size() / 4, hi = 3 * seq.size() / 4;
    DependencyTable table = DependencyTable::build(seq, lo, hi);
    const auto got = entriesOf(table);
    const auto ref = bruteForceEntries(seq, lo, hi);
    for (size_t n = 0; n < seq.numNodes; ++n)
        ASSERT_EQ(got[n], ref[n]) << "node " << n;
}

TEST(DependencyTable, ReproducesFigure7Example)
{
    EventSequence seq = figure7Sequence();
    DependencyTable table =
        DependencyTable::build(seq, 0, seq.size());
    const auto entry = entriesOf(table);

    // Figure 7(a) right-hand side, node 1: {0,1,2,3,8,9,10,11}.
    EXPECT_EQ(entry[1],
              (std::vector<EventIdx>{0, 1, 2, 3, 8, 9, 10, 11}));
    // Node 2: {0,1,2,3,8,9,10} — connected to node 1 at event 0, so
    // it inherits node 1's later events but not e11 (node 3's).
    EXPECT_EQ(entry[2],
              (std::vector<EventIdx>{0, 1, 2, 3, 8, 9, 10}));
    // Node 3: {8,9,10,11}.
    EXPECT_EQ(entry[3], (std::vector<EventIdx>{8, 9, 10, 11}));
    // Node 4: {7,11}.
    EXPECT_EQ(entry[4], (std::vector<EventIdx>{7, 11}));
    // Node a (=10): {4,5,6,7,11}.
    EXPECT_EQ(entry[10], (std::vector<EventIdx>{4, 5, 6, 7, 11}));
    // Node d (=13): {6,7}.
    EXPECT_EQ(entry[13], (std::vector<EventIdx>{6, 7}));

    // The same table by event: e11 = (3, 4) is in the entries of its
    // endpoints, of node 1 (met 3 at e8) and of a (met 4 at e7).
    const auto deps = table.dependents(11);
    EXPECT_EQ(std::set<uint32_t>(deps.begin(), deps.end()),
              (std::set<uint32_t>{1, 3, 4, 10}));
}

TEST(DependencyTable, EntriesSortedUniqueInRange)
{
    // Each event lists a node at most once, so every node's entry is
    // strictly increasing, and the table holds no event past hi.
    DatasetSpec spec = redditSpec(500.0);
    Rng rng(5);
    EventSequence seq = generateDataset(spec, rng);
    const size_t hi = seq.size() / 2;
    DependencyTable table = DependencyTable::build(seq, 0, hi);
    EXPECT_EQ(table.rangeHi(), hi);
    for (size_t e = 0; e < hi; ++e) {
        const auto deps = table.dependents(e);
        ASSERT_FALSE(deps.empty()) << "event " << e;
        std::set<uint32_t> unique(deps.begin(), deps.end());
        ASSERT_EQ(unique.size(), deps.size()) << "event " << e;
        ASSERT_LT(*unique.rbegin(), seq.numNodes);
    }
    for (const auto &entry : entriesOf(table)) {
        for (size_t i = 1; i < entry.size(); ++i)
            ASSERT_LT(entry[i - 1], entry[i]);
    }
}

TEST(DependencyTable, ActiveNodesAreExactlyNonEmptyEntries)
{
    EventSequence seq = figure7Sequence();
    DependencyTable table =
        DependencyTable::build(seq, 0, seq.size());
    EXPECT_TRUE(std::is_sorted(table.activeNodes().begin(),
                               table.activeNodes().end()));
    std::set<NodeId> active(table.activeNodes().begin(),
                            table.activeNodes().end());
    const auto entries = entriesOf(table);
    for (size_t n = 0; n < seq.numNodes; ++n) {
        EXPECT_EQ(active.count(static_cast<NodeId>(n)) == 1,
                  !entries[n].empty());
    }
    EXPECT_FALSE(active.count(0)); // node 0 has no events
}

TEST(DependencyTable, OwnEventsAlwaysPresent)
{
    // An event's own endpoints always depend on it, listed first.
    DatasetSpec spec = moocSpec(500.0);
    Rng rng(6);
    EventSequence seq = generateDataset(spec, rng);
    DependencyTable table =
        DependencyTable::build(seq, 0, seq.size());
    for (size_t i = 0; i < seq.size(); ++i) {
        const auto deps = table.dependents(i);
        const Event &e = seq.events[i];
        ASSERT_EQ(deps[0], static_cast<uint32_t>(e.src));
        if (e.dst != e.src) {
            ASSERT_GE(deps.size(), 2u);
            ASSERT_EQ(deps[1], static_cast<uint32_t>(e.dst));
        }
    }
}

TEST(DependencyTable, ChunkedTablesCoverTheFullTableWithinChunks)
{
    // Within a chunk the chunked entry equals the full entry filtered
    // to the chunk (dependencies never cross the boundary).
    DatasetSpec spec = wikiSpec(400.0);
    Rng rng(7);
    EventSequence seq = generateDataset(spec, rng);
    const size_t chunk = seq.size() / 3;
    DependencyTable full =
        DependencyTable::build(seq, 0, seq.size());
    DependencyTable c1 = DependencyTable::build(seq, chunk,
                                                2 * chunk);
    const auto full_entries = entriesOf(full);
    const auto c1_entries = entriesOf(c1);
    for (size_t n = 0; n < seq.numNodes; ++n) {
        std::vector<EventIdx> expect;
        for (EventIdx e : full_entries[n]) {
            if (e >= static_cast<EventIdx>(chunk) &&
                e < static_cast<EventIdx>(2 * chunk)) {
                expect.push_back(e);
            }
        }
        // The chunked entry may contain *more* than the filtered full
        // entry? No: dependencies are within-chunk only, and any
        // within-chunk dependency is also a full-table dependency.
        // It may contain *fewer* cross-boundary inherited events —
        // but never ones the full table lacks.
        for (EventIdx e : c1_entries[n]) {
            ASSERT_TRUE(std::binary_search(expect.begin(), expect.end(),
                                           e))
                << "node " << n << " event " << e;
        }
    }
}

TEST(DependencyTable, BytesGrowWithEntries)
{
    EventSequence seq = figure7Sequence();
    DependencyTable big =
        DependencyTable::build(seq, 0, seq.size());
    DependencyTable small = DependencyTable::build(seq, 0, 2);
    EXPECT_GT(big.bytes(), small.bytes());
    EXPECT_GE(big.buildSeconds(), 0.0);
}

TEST(DependencyTable, BytesAreExactlyTheResidentArrays)
{
    // No growth slack: one offset per event plus one, one uint32 per
    // (event, node) pair, one id per active node.
    DatasetSpec spec = wikiSpec(400.0);
    Rng rng(8);
    EventSequence seq = generateDataset(spec, rng);
    DependencyTable table = DependencyTable::build(seq, 0, seq.size());
    size_t pairs = 0;
    for (size_t e = 0; e < seq.size(); ++e)
        pairs += table.dependents(e).size();
    EXPECT_EQ(table.bytes(),
              (seq.size() + 1) * sizeof(size_t) +
                  pairs * sizeof(uint32_t) +
                  table.activeNodes().size() * sizeof(NodeId));
}
