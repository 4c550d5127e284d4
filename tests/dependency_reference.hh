/**
 * @file
 * Test-only references for the dependency table (Algorithm 2): the
 * per-node entries straight from the paper's definition, and the same
 * per-node view read back out of a by-event DependencyTable.
 */

#ifndef CASCADE_TESTS_DEPENDENCY_REFERENCE_HH
#define CASCADE_TESTS_DEPENDENCY_REFERENCE_HH

#include <algorithm>
#include <vector>

#include "core/dependency_table.hh"
#include "graph/event.hh"

namespace cascade::testref {

using Entries = std::vector<std::vector<EventIdx>>;

/**
 * Straight-from-the-paper entries over [lo, hi), sorted and unique:
 * node n's own events, and for each own event i with neighbor q, q's
 * events after i.
 */
inline Entries
bruteForceEntries(const EventSequence &seq, size_t lo, size_t hi)
{
    Entries table(seq.numNodes);
    for (size_t n = 0; n < seq.numNodes; ++n) {
        const NodeId node = static_cast<NodeId>(n);
        for (size_t i = lo; i < hi; ++i) {
            const Event &e = seq.events[i];
            if (e.src != node && e.dst != node)
                continue;
            table[n].push_back(static_cast<EventIdx>(i));
            const NodeId q = e.src == node ? e.dst : e.src;
            for (size_t j = i + 1; j < hi; ++j) {
                const Event &f = seq.events[j];
                if (f.src == q || f.dst == q)
                    table[n].push_back(static_cast<EventIdx>(j));
            }
        }
        std::sort(table[n].begin(), table[n].end());
        table[n].erase(std::unique(table[n].begin(), table[n].end()),
                       table[n].end());
    }
    return table;
}

/**
 * Per-node entries of a by-event table: node n's entry lists, in
 * event order, every e whose dependents include n. A node listed
 * twice under one event shows up as a repeated index.
 */
inline Entries
entriesOf(const DependencyTable &table)
{
    Entries entries(table.numNodes());
    for (size_t e = table.rangeLo(); e < table.rangeHi(); ++e) {
        for (uint32_t n : table.dependents(e))
            entries[n].push_back(static_cast<EventIdx>(e));
    }
    return entries;
}

/** Entries of `entry` in [st, ed). */
inline size_t
countIn(const std::vector<EventIdx> &entry, size_t st, size_t ed)
{
    const auto lo = std::lower_bound(entry.begin(), entry.end(),
                                     static_cast<EventIdx>(st));
    const auto hi = std::lower_bound(entry.begin(), entry.end(),
                                     static_cast<EventIdx>(ed));
    return static_cast<size_t>(hi - lo);
}

} // namespace cascade::testref

#endif // CASCADE_TESTS_DEPENDENCY_REFERENCE_HH
