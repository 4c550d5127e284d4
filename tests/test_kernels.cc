/**
 * @file
 * Oracle tests for the blocked GEMM kernel against the retained naive
 * reference, the determinism-across-threads contract, the pooled
 * buffer allocator, the fused cosine-overwrite kernel and the kernel
 * metrics binding.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "obs/metrics.hh"
#include "tensor/gradcheck.hh"
#include "tensor/kernels.hh"
#include "tensor/ops.hh"
#include "tensor/tensor.hh"
#include "util/parallel.hh"
#include "util/rng.hh"

using namespace cascade;
using kernels::Trans;

namespace {

/** Max |a-b| over two equally-shaped tensors. */
double
maxAbsDiff(const Tensor &a, const Tensor &b)
{
    EXPECT_TRUE(a.sameShape(b));
    double m = 0.0;
    for (size_t i = 0; i < a.size(); ++i)
        m = std::max(m, std::abs(static_cast<double>(a.data()[i]) -
                                 static_cast<double>(b.data()[i])));
    return m;
}

/** Stored shape of operand X so that op(X) has the given logical dims. */
Tensor
makeOperand(Trans t, size_t logical_rows, size_t logical_cols, Rng &rng)
{
    return t == Trans::None
        ? Tensor::randn(logical_rows, logical_cols, rng)
        : Tensor::randn(logical_cols, logical_rows, rng);
}

struct Shape { size_t m, k, n; };

/**
 * Shapes chosen to exercise register-tile edges at any SIMD width
 * (MR is 6 or 8 rows, NR 8, 16 or 32 columns): degenerate vectors,
 * sub-tile, exact-tile and off-by-one sizes, plus one shape large
 * enough to cross the parallel-dispatch threshold.
 */
const Shape kShapes[] = {
    {1, 1, 1},   {1, 7, 1},   {3, 5, 7},    {4, 16, 64},
    {5, 17, 65}, {8, 1, 128}, {13, 33, 63}, {64, 64, 129},
    {130, 70, 66},
};

const Trans kTrans[] = {Trans::None, Trans::Transpose};

/** Bitwise equality of two equally-shaped tensors. */
void
expectSameBits(const Tensor &a, const Tensor &b, const std::string &what)
{
    ASSERT_TRUE(a.sameShape(b)) << what;
    for (size_t i = 0; i < a.size(); ++i)
        ASSERT_EQ(a.data()[i], b.data()[i]) << what << " at " << i;
}

/** Rows [r0, r1) of op(x) as an operand stored in the same orientation
 *  (rows of x, or columns of a transposed x). */
Tensor
opRowSlice(Trans t, const Tensor &x, size_t r0, size_t r1)
{
    if (t == Trans::None) {
        Tensor out(r1 - r0, x.cols());
        for (size_t r = r0; r < r1; ++r)
            for (size_t c = 0; c < x.cols(); ++c)
                out.at(r - r0, c) = x.at(r, c);
        return out;
    }
    Tensor out(x.rows(), r1 - r0);
    for (size_t r = 0; r < x.rows(); ++r)
        for (size_t c = r0; c < r1; ++c)
            out.at(r, c - r0) = x.at(r, c);
    return out;
}

/** gemm (acc=false) or gemmAcc into a copy of base (acc=true). */
Tensor
runGemm(Trans ta, Trans tb, const Tensor &a, const Tensor &b, bool acc,
        const Tensor &base)
{
    if (!acc)
        return kernels::gemm(ta, tb, a, b);
    Tensor out = base;
    kernels::gemmAcc(ta, tb, a, b, out);
    return out;
}

} // namespace

TEST(KernelGemm, MatchesNaiveOracleAllTransposeCombos)
{
    // kShapes, plus every m up to 17 against n around each possible NR
    // (8, 16, 32): m = 1, m = MR+-1, n = 1 (the GAT score column) and
    // n = NR+-1 on any build, at k = 0, 1 and 19.
    std::vector<Shape> shapes(std::begin(kShapes), std::end(kShapes));
    for (size_t m = 1; m <= 17; ++m)
        for (size_t n : {1, 2, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 65})
            for (size_t k : {0, 1, 19})
                shapes.push_back({m, k, n});

    Rng rng(11);
    for (const Shape &s : shapes) {
        for (Trans ta : kTrans) {
            for (Trans tb : kTrans) {
                Tensor a = makeOperand(ta, s.m, s.k, rng);
                Tensor b = makeOperand(tb, s.k, s.n, rng);
                Tensor base = Tensor::randn(s.m, s.n, rng);
                Tensor got = kernels::gemm(ta, tb, a, b);
                Tensor acc = runGemm(ta, tb, a, b, /*acc=*/true, base);
                Tensor want = kernels::naiveGemm(ta, tb, a, b);
                Tensor want_acc = base;
                want_acc += want;
                // Same-magnitude float sums in a different order; the
                // bound scales with the reduction length, which gemmAcc
                // makes one longer (the starting C).
                const double tol = 1e-4 * std::sqrt(double(s.k));
                const double tol_acc = 1e-4 * std::sqrt(double(s.k) + 1.0);
                EXPECT_LE(maxAbsDiff(got, want), tol)
                    << "m=" << s.m << " k=" << s.k << " n=" << s.n
                    << " ta=" << int(ta) << " tb=" << int(tb);
                EXPECT_LE(maxAbsDiff(acc, want_acc), tol_acc)
                    << "acc m=" << s.m << " k=" << s.k << " n=" << s.n
                    << " ta=" << int(ta) << " tb=" << int(tb);
                if (s.k == 0) { // an empty sum, exactly
                    for (size_t i = 0; i < got.size(); ++i)
                        ASSERT_EQ(got.data()[i], 0.0f);
                    expectSameBits(acc, base, "k=0 gemmAcc");
                }
            }
        }
    }
}

TEST(KernelGemm, BitIdenticalAcrossThreadCounts)
{
    // 2*260*256*264 = 35 Mflop crosses the parallel-dispatch cutover
    // even at 8 threads (8 * 2^22), so every pinned count really
    // bands the rows; the odd m and n leave partial row and column
    // tiles.
    const size_t m = 260, k = 256, n = 264;
    Rng rng(13);
    for (Trans ta : kTrans) {
        for (Trans tb : kTrans) {
            const Tensor a = makeOperand(ta, m, k, rng);
            const Tensor b = makeOperand(tb, k, n, rng);
            const Tensor base = Tensor::randn(m, n, rng);
            for (bool acc : {false, true}) {
                std::vector<Tensor> results;
                for (size_t threads : {1u, 2u, 8u}) {
                    ThreadPool::setGlobalThreads(threads);
                    results.push_back(runGemm(ta, tb, a, b, acc, base));
                }
                ThreadPool::setGlobalThreads(0);
                const std::string what = "ta=" + std::to_string(int(ta)) +
                    " tb=" + std::to_string(int(tb)) +
                    " acc=" + std::to_string(acc);
                for (size_t i = 1; i < results.size(); ++i)
                    expectSameBits(results[0], results[i], what);
            }
        }
    }
}

TEST(KernelGemm, RowSliceEqualsRowsOfFullProduct)
{
    // A block of rows computed on its own lands at other tile
    // boundaries (and blocks of a few rows take the single-tile path
    // that reads B in place), yet each element's arithmetic is the
    // same, so the bits must be too.
    const size_t m = 37, k = 45, n = 70;
    const std::pair<size_t, size_t> blocks[] = {
        {0, 1}, {1, 4}, {3, 7}, {5, 13}, {8, 16}, {9, 26}, {30, 37}};
    Rng rng(43);
    for (Trans ta : kTrans) {
        for (Trans tb : kTrans) {
            const Tensor a = makeOperand(ta, m, k, rng);
            const Tensor b = makeOperand(tb, k, n, rng);
            const Tensor base = Tensor::randn(m, n, rng);
            for (bool acc : {false, true}) {
                const Tensor full = runGemm(ta, tb, a, b, acc, base);
                for (auto [r0, r1] : blocks) {
                    const Tensor part =
                        runGemm(ta, tb, opRowSlice(ta, a, r0, r1), b, acc,
                                opRowSlice(Trans::None, base, r0, r1));
                    expectSameBits(
                        part, opRowSlice(Trans::None, full, r0, r1),
                        "rows [" + std::to_string(r0) + "," +
                            std::to_string(r1) + ") ta=" +
                            std::to_string(int(ta)) + " tb=" +
                            std::to_string(int(tb)) +
                            " acc=" + std::to_string(acc));
                }
            }
        }
    }
}

TEST(KernelGemmDeathTest, AliasedOutputPanicsBeforeReshape)
{
    // out == a with a different result shape: the alias check must
    // fire before the reshape recycles the caller's input.
    Rng rng(53);
    Tensor a = Tensor::randn(3, 4, rng);
    Tensor b = Tensor::randn(4, 2, rng);
    EXPECT_DEATH(kernels::gemm(Trans::None, Trans::None, a, b, a),
                 "aliases input");
    EXPECT_DEATH(kernels::gemm(Trans::Transpose, Trans::None, b, b, b),
                 "aliases input");
}

TEST(KernelGemm, AccAddsIntoExistingOutput)
{
    Rng rng(17);
    Tensor a = Tensor::randn(6, 9, rng);
    Tensor b = Tensor::randn(9, 5, rng);
    Tensor base = Tensor::randn(6, 5, rng);

    Tensor acc = base;
    kernels::gemmAcc(Trans::None, Trans::None, a, b, acc);

    Tensor prod = kernels::naiveGemm(Trans::None, Trans::None, a, b);
    for (size_t i = 0; i < acc.size(); ++i) {
        EXPECT_NEAR(acc.data()[i], base.data()[i] + prod.data()[i], 1e-4);
    }
}

TEST(KernelGemm, OutParamReshapesWrongShape)
{
    Rng rng(19);
    Tensor a = Tensor::randn(3, 4, rng);
    Tensor b = Tensor::randn(4, 2, rng);
    Tensor out(7, 7); // wrong shape on purpose
    kernels::gemm(Trans::None, Trans::None, a, b, out);
    EXPECT_EQ(out.rows(), 3u);
    EXPECT_EQ(out.cols(), 2u);
    Tensor want = kernels::naiveGemm(Trans::None, Trans::None, a, b);
    EXPECT_LE(maxAbsDiff(out, want), 1e-4);
}

TEST(KernelPool, RecycledBuffersAreReusedAndZeroed)
{
    const kernels::KernelStats before = kernels::stats();

    Tensor t = kernels::uninit(32, 32);
    t.fill(5.0f); // dirty the storage
    kernels::recycle(std::move(t));

    Tensor z = kernels::zeros(32, 32);
    for (size_t i = 0; i < z.size(); ++i)
        ASSERT_EQ(z.data()[i], 0.0f);

    const kernels::KernelStats after = kernels::stats();
    EXPECT_GE(after.poolReturns, before.poolReturns + 1);
    EXPECT_GE(after.poolHits, before.poolHits + 1);
}

TEST(KernelElementwise, OutParamVariantsMatchOperators)
{
    Rng rng(23);
    Tensor a = Tensor::randn(5, 9, rng);
    Tensor b = Tensor::randn(5, 9, rng);

    Tensor out(5, 9);
    kernels::add(a, b, out);
    for (size_t i = 0; i < out.size(); ++i)
        EXPECT_FLOAT_EQ(out.data()[i], a.data()[i] + b.data()[i]);

    kernels::sub(a, b, out);
    for (size_t i = 0; i < out.size(); ++i)
        EXPECT_FLOAT_EQ(out.data()[i], a.data()[i] - b.data()[i]);

    kernels::hadamard(a, b, out);
    for (size_t i = 0; i < out.size(); ++i)
        EXPECT_FLOAT_EQ(out.data()[i], a.data()[i] * b.data()[i]);

    kernels::scale(a, -2.5f, out);
    for (size_t i = 0; i < out.size(); ++i)
        EXPECT_FLOAT_EQ(out.data()[i], a.data()[i] * -2.5f);

    Tensor y = b;
    kernels::axpy(0.5f, a, y);
    for (size_t i = 0; i < y.size(); ++i)
        EXPECT_FLOAT_EQ(y.data()[i], b.data()[i] + 0.5f * a.data()[i]);
}

TEST(KernelReductions, RowAndColSums)
{
    Tensor a(2, 3, {1, 2, 3, 4, 5, 6});

    Tensor rs(2, 1);
    kernels::rowSum(a, rs);
    EXPECT_FLOAT_EQ(rs.at(0, 0), 6.0f);
    EXPECT_FLOAT_EQ(rs.at(1, 0), 15.0f);

    Tensor cs(1, 3);
    kernels::colSum(a, cs);
    EXPECT_FLOAT_EQ(cs.at(0, 0), 5.0f);
    EXPECT_FLOAT_EQ(cs.at(0, 1), 7.0f);
    EXPECT_FLOAT_EQ(cs.at(0, 2), 9.0f);
}

TEST(KernelReductions, RowSumOpForwardAndGradient)
{
    Rng rng(29);
    Variable a(Tensor::randn(4, 6, rng), true);

    Variable s = ops::rowSum(a);
    ASSERT_EQ(s.rows(), 4u);
    ASSERT_EQ(s.cols(), 1u);
    for (size_t r = 0; r < 4; ++r) {
        float want = 0.0f;
        for (size_t c = 0; c < 6; ++c)
            want += a.value().at(r, c);
        EXPECT_NEAR(s.value().at(r, 0), want, 1e-5);
    }

    EXPECT_LT(gradCheck({a},
                        [&] {
                            return ops::sumAll(
                                ops::square(ops::rowSum(a)));
                        }),
              1e-2);
}

TEST(KernelCosineOverwrite, MatchesCosineSimilarityAndOverwrites)
{
    Rng rng(31);
    Tensor olds = Tensor::randn(1, 33, rng);
    Tensor news = Tensor::randn(1, 33, rng);

    Tensor dst = olds;
    const double want = cosineSimilarityRows(olds, 0, news, 0);
    const double got =
        kernels::cosineOverwrite(dst.row(0), news.row(0), dst.cols());
    EXPECT_NEAR(got, want, 1e-12);
    for (size_t i = 0; i < dst.size(); ++i)
        EXPECT_EQ(dst.data()[i], news.data()[i]);
}

TEST(KernelCosineOverwrite, ZeroRowConventions)
{
    Tensor zero(1, 4);
    Tensor some(1, 4, {1, 0, 0, 0});

    // Both (near-)zero -> 1.0 (unwritten memory counts as unchanged).
    Tensor d1 = zero;
    EXPECT_EQ(kernels::cosineOverwrite(d1.row(0), zero.row(0), 4), 1.0);

    // Exactly one zero -> 0.0.
    Tensor d2 = zero;
    EXPECT_EQ(kernels::cosineOverwrite(d2.row(0), some.row(0), 4), 0.0);
    EXPECT_EQ(d2.at(0, 0), 1.0f);

    Tensor d3 = some;
    EXPECT_EQ(kernels::cosineOverwrite(d3.row(0), zero.row(0), 4), 0.0);
    EXPECT_EQ(d3.at(0, 0), 0.0f);
}

TEST(KernelStats, CountersAdvanceAndBindToRegistry)
{
    obs::MetricsRegistry registry;
    kernels::bindMetrics(registry);

    const kernels::KernelStats before = kernels::stats();
    Rng rng(37);
    Tensor a = Tensor::randn(8, 8, rng);
    Tensor b = Tensor::randn(8, 8, rng);
    Tensor c = kernels::gemm(Trans::None, Trans::None, a, b);
    Tensor out(8, 8);
    kernels::add(a, b, out);
    kernels::unbindMetrics();

    const kernels::KernelStats after = kernels::stats();
    EXPECT_EQ(after.gemmCalls, before.gemmCalls + 1);
    EXPECT_EQ(after.gemmFlops, before.gemmFlops + 2ull * 8 * 8 * 8);
    EXPECT_GE(after.elementwiseCalls, before.elementwiseCalls + 1);

    EXPECT_GE(registry.counter("kernels.gemm.calls").value(), 1u);
    EXPECT_GE(registry.counter("kernels.gemm.flops").value(),
              2ull * 8 * 8 * 8);
    EXPECT_GE(registry.counter("kernels.elementwise.calls").value(), 1u);
}

