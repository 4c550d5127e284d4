/**
 * @file
 * Reproducible hot-path benchmark runner (README "Benchmarking the
 * compute kernels").
 *
 * Measures, with fixed seeds and pinned thread counts:
 *
 *  1. Blocked-GEMM throughput (GFLOP/s) across shapes and thread
 *     counts, against the retained naive seed kernel as the
 *     single-threaded baseline;
 *  2. End-to-end training throughput (events/sec) for one epoch of the
 *     TGN model under the Cascade policy on the small WIKI-scale
 *     dataset.
 *
 * Each timing is one untimed warmup run, then `reps` timed runs
 * reported as min/median/max; throughputs and gates read the median.
 * The naive baseline is timed once per shape. Results are written as
 * BENCH_hotpath.json (schema cascade.bench_hotpath.v2, documented in
 * the README); `--smoke` shrinks shapes/reps to a seconds-long CI
 * smoke run.
 *
 * Usage: bench_hotpath [--smoke] [--reps N] [--out PATH]
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common.hh"
#include "tensor/kernels.hh"
#include "util/parallel.hh"
#include "util/rng.hh"
#include "util/timer.hh"

using namespace cascade;
using kernels::Trans;

namespace {

/** One product op(A) (m x k) * op(B) (k x n), optionally accumulated
 *  into C (gemmAcc). */
struct GemmShape
{
    size_t m, k, n;
    Trans ta = Trans::None, tb = Trans::None;
    bool acc = false;
};

const char *
transName(Trans t)
{
    return t == Trans::None ? "N" : "T";
}

/** Operand stored so that op(X) is rows x cols. */
Tensor
operand(Trans t, size_t rows, size_t cols, Rng &rng)
{
    return t == Trans::None ? Tensor::randn(rows, cols, rng)
                            : Tensor::randn(cols, rows, rng);
}

/** Spread of one timing over the timed reps. */
struct Spread
{
    double min = 0.0, median = 0.0, max = 0.0;
};

Spread
spreadOf(std::vector<double> samples)
{
    Spread s;
    if (samples.empty())
        return s;
    std::sort(samples.begin(), samples.end());
    const size_t n = samples.size();
    s.min = samples.front();
    s.max = samples.back();
    s.median = n % 2 ? samples[n / 2]
                     : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
    return s;
}

/** Time fn() `reps` times after one untimed warmup. */
template <typename Fn>
Spread
timeReps(size_t reps, Fn &&fn)
{
    fn(); // warmup
    std::vector<double> samples;
    samples.reserve(reps);
    for (size_t r = 0; r < reps; ++r) {
        Timer t;
        fn();
        samples.push_back(t.seconds());
    }
    return spreadOf(std::move(samples));
}

double
flopsOf(const GemmShape &s)
{
    return 2.0 * double(s.m) * double(s.k) * double(s.n);
}

/** GFLOP/s of a shape at a given time (0 for a zero time). */
double
gflopsAt(const GemmShape &s, double seconds)
{
    return seconds > 0.0 ? flopsOf(s) / seconds / 1e9 : 0.0;
}

/** One (shape, thread count) row; the naive time is the shape's. */
struct GemmResult
{
    GemmShape shape;
    size_t threads;
    Spread seconds;      ///< packed kernel
    Spread naiveSeconds; ///< naive reference, single-threaded

    double gflops() const { return gflopsAt(shape, seconds.median); }
    double
    speedup() const
    {
        return seconds.median > 0.0 ? naiveSeconds.median / seconds.median
                                    : 0.0;
    }
};

/** Operands of a shape, fixed by the seed. */
struct GemmOperands
{
    Tensor a, b;

    explicit GemmOperands(const GemmShape &s)
    {
        Rng rng(1234);
        a = operand(s.ta, s.m, s.k, rng);
        b = operand(s.tb, s.k, s.n, rng);
    }
};

Spread
benchGemm(const GemmShape &s, const GemmOperands &x, size_t threads,
          size_t reps)
{
    Tensor out(s.m, s.n);
    ThreadPool::setGlobalThreads(threads);
    return timeReps(reps, [&] {
        if (s.acc)
            kernels::gemmAcc(s.ta, s.tb, x.a, x.b, out);
        else
            kernels::gemm(s.ta, s.tb, x.a, x.b, out);
    });
}

/** The naive reference is single-threaded by construction; it times
 *  the product alone, also for accumulating shapes. */
Spread
benchNaive(const GemmShape &s, const GemmOperands &x, size_t reps)
{
    return timeReps(reps, [&] {
        Tensor c = kernels::naiveGemm(s.ta, s.tb, x.a, x.b);
    });
}

/** CPU model from /proc/cpuinfo ("unknown" where there is none). */
std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) != 0)
            continue;
        const size_t colon = line.find(':');
        if (colon != std::string::npos && colon + 2 <= line.size())
            return line.substr(colon + 2);
    }
    return "unknown";
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    size_t reps = 5;
    std::string out_path = "BENCH_hotpath.json";
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0) {
            smoke = true;
        } else if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
            reps = static_cast<size_t>(std::stoul(argv[++i]));
        } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
            out_path = argv[++i];
        } else {
            std::fprintf(stderr,
                         "usage: bench_hotpath [--smoke] [--reps N] "
                         "[--out PATH]\n");
            return 2;
        }
    }
    if (smoke)
        reps = std::min<size_t>(reps, 2);

    // The 512^3 point backs the documented >=3x acceptance threshold;
    // the odd shape exercises the register-tile edge paths. The last
    // three are the products that dominate TGN dim-128 training
    // (perfbench train-model): forward NN, dX = dY * W^T and
    // dW += X^T * dY, at a ~300-event batch.
    const std::vector<GemmShape> shapes = smoke
        ? std::vector<GemmShape>{{32, 32, 32},
                                 {64, 64, 64},
                                 {33, 17, 40, Trans::Transpose,
                                  Trans::Transpose, true}}
        : std::vector<GemmShape>{
              {64, 64, 64},
              {128, 256, 64},
              {512, 512, 512},
              {513, 511, 129},
              {300, 308, 128},
              {300, 128, 308, Trans::None, Trans::Transpose, true},
              {308, 300, 128, Trans::Transpose, Trans::None, true}};
    const std::vector<size_t> thread_counts = smoke
        ? std::vector<size_t>{1, 2}
        : std::vector<size_t>{1, 2, 4, 8};

    std::vector<GemmResult> results;
    for (const GemmShape &s : shapes) {
        const GemmOperands x(s);
        // The naive kernel is slow at 512^3; one warmup + few reps.
        const size_t naive_reps =
            (s.m * s.k * s.n >= (1ull << 26)) ? std::min<size_t>(reps, 3)
                                              : reps;
        const Spread naive = benchNaive(s, x, naive_reps);
        for (size_t t : thread_counts) {
            results.push_back({s, t, benchGemm(s, x, t, reps), naive});
            const GemmResult &r = results.back();
            std::printf("gemm %4zux%4zux%4zu %s%s%s  threads=%zu  "
                        "%8.2f GF/s  (s min/med/max %.2e/%.2e/%.2e; "
                        "naive %6.2f GF/s, %5.1fx)\n",
                        r.shape.m, r.shape.k, r.shape.n,
                        transName(r.shape.ta), transName(r.shape.tb),
                        r.shape.acc ? "+" : " ", r.threads, r.gflops(),
                        r.seconds.min, r.seconds.median, r.seconds.max,
                        gflopsAt(s, naive.median), r.speedup());
        }
    }
    ThreadPool::setGlobalThreads(0);

    // Two gates, both on medians. (1) The small-shape parallel
    // cutover: 128x256x64 (2^22 flops) must never get slower when
    // threads are added. The thread-count-blind cutover regressed
    // exactly this way (39x over naive at 1 thread, 9x at 8), so every
    // pinned thread count must stay within 2x of the single-thread
    // time (generous against timer noise; the regression was ~4.3x).
    // (2) 512^3 must run at least 3x faster than the naive baseline at
    // every thread count.
    for (const GemmResult &r : results) {
        const GemmShape &s = r.shape;
        if (s.m == 128 && s.k == 256 && s.n == 64) {
            double t1 = 0.0;
            for (const GemmResult &o : results)
                if (o.shape.m == s.m && o.shape.k == s.k &&
                    o.shape.n == s.n && o.threads == 1)
                    t1 = o.seconds.median;
            if (t1 > 0.0 && r.seconds.median > 2.0 * t1) {
                std::fprintf(stderr,
                             "FAIL: gemm %zux%zux%zu at %zu threads "
                             "took a median %.3e s vs %.3e s single-"
                             "threaded (>2x): the parallel cutover "
                             "regressed small shapes again\n",
                             s.m, s.k, s.n, r.threads, r.seconds.median,
                             t1);
                return 1;
            }
        }
        if (s.m == 512 && s.k == 512 && s.n == 512 && r.speedup() < 3.0) {
            std::fprintf(stderr,
                         "FAIL: gemm 512^3 at %zu threads is %.2fx the "
                         "naive baseline (median), below the 3x "
                         "threshold\n",
                         r.threads, r.speedup());
            return 1;
        }
    }

    // --- End-to-end: one epoch of TGN/Cascade on the small dataset ---
    bench::BenchConfig cfg; // fixed defaults, NOT env: reproducibility
    cfg.scaleMultiplier = smoke ? 8.0 : 1.0;
    cfg.epochs = 1;
    cfg.dim = 16;
    cfg.seed = 42;
    auto ds = bench::load(wikiSpec(50.0 * cfg.scaleMultiplier), cfg);

    kernels::resetStats();
    Timer e2e;
    TrainReport report = bench::runPolicy(*ds, "TGN",
                                          bench::Policy::Cascade, cfg);
    const double e2e_seconds = e2e.seconds();
    const kernels::KernelStats ks = kernels::stats();
    const double events_per_sec = report.wallSeconds > 0.0
        ? static_cast<double>(ds->trainEnd) / report.wallSeconds
        : 0.0;
    std::printf("end_to_end TGN/Cascade: %zu events, %.3fs train "
                "(%.0f events/s), %.3fs total\n",
                ds->trainEnd, report.wallSeconds, events_per_sec,
                e2e_seconds);

    std::FILE *f = std::fopen(out_path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "bench_hotpath: cannot write %s\n",
                     out_path.c_str());
        return 1;
    }
    std::fprintf(f, "{\n  \"schema\": \"cascade.bench_hotpath.v2\",\n");
    std::fprintf(f, "  \"smoke\": %s,\n", smoke ? "true" : "false");
    std::fprintf(f, "  \"reps\": %zu,\n", reps);
    std::fprintf(f, "  \"seed\": 1234,\n");
    std::fprintf(f,
                 "  \"provenance\": {\"compiler\": \"%s\", "
                 "\"nproc\": %u, \"cpu\": \"%s\"},\n",
                 __VERSION__, std::thread::hardware_concurrency(),
                 cpuModel().c_str());
    std::fprintf(f, "  \"gemm\": [\n");
    for (size_t i = 0; i < results.size(); ++i) {
        const GemmResult &r = results[i];
        std::fprintf(
            f,
            "    {\"m\": %zu, \"k\": %zu, \"n\": %zu, \"ta\": \"%s\", "
            "\"tb\": \"%s\", \"acc\": %s, \"threads\": %zu, "
            "\"seconds\": {\"min\": %.6e, \"median\": %.6e, "
            "\"max\": %.6e}, \"gflops\": %.3f, "
            "\"naive_seconds\": {\"min\": %.6e, \"median\": %.6e, "
            "\"max\": %.6e}, \"naive_gflops\": %.3f, "
            "\"speedup_vs_naive\": %.2f}%s\n",
            r.shape.m, r.shape.k, r.shape.n, transName(r.shape.ta),
            transName(r.shape.tb), r.shape.acc ? "true" : "false",
            r.threads, r.seconds.min, r.seconds.median, r.seconds.max,
            r.gflops(), r.naiveSeconds.min, r.naiveSeconds.median,
            r.naiveSeconds.max, gflopsAt(r.shape, r.naiveSeconds.median),
            r.speedup(), i + 1 < results.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(f,
                 "  \"end_to_end\": {\"dataset\": \"WIKI\", "
                 "\"model\": \"TGN\", \"policy\": \"Cascade\", "
                 "\"epochs\": 1, \"events\": %zu, "
                 "\"train_seconds\": %.4f, \"events_per_sec\": %.1f, "
                 "\"val_loss\": %.5f},\n",
                 ds->trainEnd, report.wallSeconds, events_per_sec,
                 report.valLoss);
    std::fprintf(f,
                 "  \"kernel_stats\": {\"gemm_calls\": %llu, "
                 "\"gemm_flops\": %llu, \"elementwise_calls\": %llu, "
                 "\"pool_hits\": %llu, \"pool_misses\": %llu, "
                 "\"pool_hit_rate\": %.4f}\n}\n",
                 static_cast<unsigned long long>(ks.gemmCalls),
                 static_cast<unsigned long long>(ks.gemmFlops),
                 static_cast<unsigned long long>(ks.elementwiseCalls),
                 static_cast<unsigned long long>(ks.poolHits),
                 static_cast<unsigned long long>(ks.poolMisses),
                 ks.poolHits + ks.poolMisses > 0
                     ? static_cast<double>(ks.poolHits) /
                           static_cast<double>(ks.poolHits + ks.poolMisses)
                     : 0.0);
    if (std::fclose(f) != 0) {
        std::fprintf(stderr, "close failed: %s\n", out_path.c_str());
        return 1;
    }
    std::printf("wrote %s\n", out_path.c_str());
    return 0;
}
