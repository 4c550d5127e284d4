#include "core/dependency_table.hh"

#include <algorithm>
#include <cstdint>
#include <limits>

#include "util/logging.hh"
#include "util/timer.hh"

namespace cascade {

DependencyTable
DependencyTable::build(const EventSource &src, size_t lo, size_t hi)
{
    CASCADE_CHECK(lo <= hi && hi <= src.size(),
                  "DependencyTable: bad range");
    CASCADE_CHECK(src.numNodes() <= std::numeric_limits<uint32_t>::max(),
                  "DependencyTable: node ids must fit in 32 bits");
    Timer timer;
    DependencyTable table;
    table.numNodes_ = src.numNodes();
    table.lo_ = lo;
    table.hi_ = hi;

    // partners[n]: the distinct nodes n met in an event of [lo, e), in
    // order of first contact. listed[n]: the last event that listed n.
    constexpr size_t kNever = std::numeric_limits<size_t>::max();
    std::vector<std::vector<uint32_t>> partners(table.numNodes_);
    std::vector<size_t> listed(table.numNodes_, kNever);

    // Calls visit(e, n) once for each node n whose entry holds e, in
    // event order: e's endpoints and every node that met one of them
    // before e.
    auto sweep = [&](auto &&visit) {
        for (auto &p : partners)
            p.clear();
        std::fill(listed.begin(), listed.end(), kNever);
        for (size_t e = lo; e < hi; ++e) {
            const Event ev = src.event(static_cast<EventIdx>(e));
            const auto a = static_cast<uint32_t>(ev.src);
            const auto b = static_cast<uint32_t>(ev.dst);
            auto add = [&](uint32_t n) {
                if (listed[n] != e) {
                    listed[n] = e;
                    visit(e, n);
                }
            };
            add(a);
            add(b);
            bool met = false;
            for (uint32_t n : partners[a]) {
                met |= n == b;
                add(n);
            }
            if (a == b)
                continue; // a self-loop adds no partner
            for (uint32_t n : partners[b])
                add(n);
            if (!met) {
                partners[a].push_back(b);
                partners[b].push_back(a);
            }
        }
    };

    // Count pass, then the fill pass writes into exact-size arrays.
    table.offsets_.assign(hi - lo + 1, 0);
    sweep([&](size_t e, uint32_t) { ++table.offsets_[e - lo + 1]; });
    for (size_t i = 1; i < table.offsets_.size(); ++i)
        table.offsets_[i] += table.offsets_[i - 1];
    table.deps_.resize(table.offsets_.back());
    size_t filled = 0;
    sweep([&](size_t, uint32_t n) { table.deps_[filled++] = n; });

    table.active_.reserve(static_cast<size_t>(
        table.numNodes_ - std::count(listed.begin(), listed.end(), kNever)));
    for (size_t n = 0; n < table.numNodes_; ++n) {
        if (listed[n] != kNever)
            table.active_.push_back(static_cast<NodeId>(n));
    }
    table.buildSeconds_ = timer.seconds();
    return table;
}

size_t
DependencyTable::bytes() const
{
    return offsets_.capacity() * sizeof(size_t) +
           deps_.capacity() * sizeof(uint32_t) +
           active_.capacity() * sizeof(NodeId);
}

} // namespace cascade
