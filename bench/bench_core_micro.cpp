/**
 * @file
 * Microbenchmarks (google-benchmark) for the hot paths behind the
 * overhead analysis of §5.4: dependency-table building (full and
 * chunked), the Algorithm 3 last-tolerable-event lookup, SG-Filter
 * flag updates, ETC batch expansion and the dense matmul kernel.
 */

#include <benchmark/benchmark.h>

#include "core/cascade_batcher.hh"
#include "core/dependency_table.hh"
#include "core/sg_filter.hh"
#include "core/tg_diffuser.hh"
#include "graph/dataset.hh"
#include "tensor/kernels.hh"
#include "train/batcher.hh"

using namespace cascade;

namespace {

const EventSequence &
sharedDataset()
{
    static EventSequence seq = [] {
        DatasetSpec spec = wikiSpec(40.0);
        Rng rng(42);
        return generateDataset(spec, rng);
    }();
    return seq;
}

} // namespace

static void
BM_DependencyTableBuild(benchmark::State &state)
{
    const EventSequence &seq = sharedDataset();
    const size_t hi = static_cast<size_t>(state.range(0));
    for (auto _ : state) {
        DependencyTable t =
            DependencyTable::build(seq, 0, std::min(hi, seq.size()));
        benchmark::DoNotOptimize(t.bytes());
    }
    state.SetItemsProcessed(state.iterations() *
                            std::min(hi, seq.size()));
}
BENCHMARK(BM_DependencyTableBuild)->Arg(1000)->Arg(2000)->Arg(3900);

static void
BM_DependencyTableBuildChunked(benchmark::State &state)
{
    // The §4.2 locality claim: building C chunk tables of N/C events
    // each touches smaller working sets than one N-event table.
    const EventSequence &seq = sharedDataset();
    const size_t chunks = static_cast<size_t>(state.range(0));
    const size_t step = (seq.size() + chunks - 1) / chunks;
    for (auto _ : state) {
        size_t bytes = 0;
        for (size_t lo = 0; lo < seq.size(); lo += step) {
            DependencyTable t = DependencyTable::build(
                seq, lo, std::min(seq.size(), lo + step));
            bytes += t.bytes();
        }
        benchmark::DoNotOptimize(bytes);
    }
    state.SetItemsProcessed(state.iterations() * seq.size());
}
BENCHMARK(BM_DependencyTableBuildChunked)->Arg(1)->Arg(4)->Arg(16);

static void
BM_LastTolerableLookup(benchmark::State &state)
{
    const EventSequence &seq = sharedDataset();
    TgDiffuser diffuser(seq, seq.size(), {});
    diffuser.setMaxRevisit(static_cast<size_t>(state.range(0)));
    std::vector<uint8_t> stable;
    size_t st = 0;
    for (auto _ : state) {
        if (st >= seq.size()) {
            diffuser.resetEpoch();
            st = 0;
        }
        st = diffuser.lastTolerableEnd(st, stable);
        benchmark::DoNotOptimize(st);
    }
}
BENCHMARK(BM_LastTolerableLookup)->Arg(4)->Arg(16)->Arg(64);

static void
BM_SgFilterUpdate(benchmark::State &state)
{
    const size_t n = 100000;
    SgFilter filter(n, 0.9);
    Rng rng(1);
    std::vector<NodeId> nodes;
    std::vector<double> cos;
    for (int i = 0; i < 1000; ++i) {
        nodes.push_back(static_cast<NodeId>(rng.uniformInt(n)));
        cos.push_back(rng.uniform());
    }
    for (auto _ : state)
        filter.update(nodes, cos);
    state.SetItemsProcessed(state.iterations() * nodes.size());
}
BENCHMARK(BM_SgFilterUpdate);

static void
BM_EtcExpansion(benchmark::State &state)
{
    const EventSequence &seq = sharedDataset();
    EtcBatcher etc(seq, 45);
    size_t st = 0;
    for (auto _ : state) {
        if (st >= seq.size())
            st = 0;
        st = etc.next(st);
        benchmark::DoNotOptimize(st);
    }
}
BENCHMARK(BM_EtcExpansion);

static void
BM_Matmul(benchmark::State &state)
{
    Rng rng(3);
    const size_t n = static_cast<size_t>(state.range(0));
    Tensor a = Tensor::randn(n, 64, rng);
    Tensor b = Tensor::randn(64, 64, rng);
    for (auto _ : state) {
        Tensor c = kernels::gemm(kernels::Trans::None, kernels::Trans::None,
                                 a, b);
        benchmark::DoNotOptimize(c.data());
    }
    state.SetItemsProcessed(state.iterations() * n * 64 * 64);
}
BENCHMARK(BM_Matmul)->Arg(128)->Arg(1024);

BENCHMARK_MAIN();
