/**
 * @file
 * Autograd tests: every op's analytic gradient is validated against
 * central finite differences, plus graph-mechanics tests (reuse,
 * detach, accumulation) and parameterized sweeps over shapes. The
 * OpBits suite pins every op's value and gradients bit for bit to an
 * element-at-a-time reference loop.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "tensor/gradcheck.hh"
#include "tensor/ops.hh"
#include "util/rng.hh"

using namespace cascade;
using namespace cascade::ops;

namespace {

Variable
leaf(size_t r, size_t c, Rng &rng, float stddev = 0.5f)
{
    return Variable(Tensor::randn(r, c, rng, stddev), true);
}

} // namespace

TEST(Autograd, MatmulGradient)
{
    Rng rng(1);
    Variable a = leaf(3, 4, rng), b = leaf(4, 2, rng);
    EXPECT_LT(gradCheck({a, b},
                        [&] { return sumAll(matmul(a, b)); }),
              1e-2);
}

TEST(Autograd, AddSameShapeGradient)
{
    Rng rng(2);
    Variable a = leaf(2, 3, rng), b = leaf(2, 3, rng);
    EXPECT_LT(gradCheck({a, b},
                        [&] { return sumAll(square(add(a, b))); }),
              1e-2);
}

TEST(Autograd, AddRowBroadcastGradient)
{
    Rng rng(3);
    Variable a = leaf(4, 3, rng), bias = leaf(1, 3, rng);
    EXPECT_LT(gradCheck({a, bias},
                        [&] { return sumAll(square(add(a, bias))); }),
              1e-2);
}

TEST(Autograd, AddColBroadcastGradient)
{
    Rng rng(4);
    Variable a = leaf(4, 3, rng), col = leaf(4, 1, rng);
    EXPECT_LT(gradCheck({a, col},
                        [&] { return sumAll(square(add(a, col))); }),
              1e-2);
}

TEST(Autograd, SubGradient)
{
    Rng rng(5);
    Variable a = leaf(3, 3, rng), b = leaf(3, 3, rng);
    EXPECT_LT(gradCheck({a, b},
                        [&] { return sumAll(square(sub(a, b))); }),
              1e-2);
}

TEST(Autograd, MulElementwiseGradient)
{
    Rng rng(6);
    Variable a = leaf(3, 3, rng), b = leaf(3, 3, rng);
    EXPECT_LT(gradCheck({a, b}, [&] { return sumAll(mul(a, b)); }),
              1e-2);
}

TEST(Autograd, MulColumnBroadcastGradient)
{
    Rng rng(7);
    Variable a = leaf(3, 4, rng), col = leaf(3, 1, rng);
    EXPECT_LT(gradCheck({a, col}, [&] { return sumAll(mul(a, col)); }),
              1e-2);
}

TEST(Autograd, ScaleGradient)
{
    Rng rng(8);
    Variable a = leaf(2, 5, rng);
    EXPECT_LT(gradCheck({a},
                        [&] { return sumAll(scale(square(a), -2.5f)); }),
              1e-2);
}

class UnaryOpGrad : public ::testing::TestWithParam<int>
{};

TEST_P(UnaryOpGrad, MatchesFiniteDifference)
{
    Rng rng(100 + GetParam());
    Variable a = leaf(3, 4, rng, 0.8f);
    auto apply = [&](const Variable &x) {
        switch (GetParam()) {
          case 0: return sigmoid(x);
          case 1: return tanhOp(x);
          case 2: return leakyRelu(x, 0.2f);
          case 3: return cosOp(x);
          case 4: return square(x);
          default: return relu(x);
        }
    };
    EXPECT_LT(gradCheck({a}, [&] { return sumAll(apply(a)); }), 2e-2);
}

INSTANTIATE_TEST_SUITE_P(AllUnaryOps, UnaryOpGrad,
                         ::testing::Values(0, 1, 2, 3, 4));

TEST(Autograd, ConcatColsGradient)
{
    Rng rng(9);
    Variable a = leaf(3, 2, rng), b = leaf(3, 4, rng);
    EXPECT_LT(gradCheck({a, b},
                        [&] {
                            return sumAll(square(concatCols(a, b)));
                        }),
              1e-2);
}

TEST(Autograd, SliceColsGradient)
{
    Rng rng(10);
    Variable a = leaf(3, 6, rng);
    EXPECT_LT(gradCheck({a},
                        [&] {
                            return sumAll(square(sliceCols(a, 1, 4)));
                        }),
              1e-2);
}

TEST(Autograd, GatherRowsGradientWithDuplicates)
{
    Rng rng(11);
    Variable a = leaf(4, 3, rng);
    std::vector<int64_t> idx = {0, 2, 2, 3, 0};
    EXPECT_LT(gradCheck({a},
                        [&] {
                            return sumAll(square(gatherRows(a, idx)));
                        }),
              1e-2);
}

TEST(Autograd, MeanAllGradient)
{
    Rng rng(12);
    Variable a = leaf(5, 4, rng);
    EXPECT_LT(gradCheck({a}, [&] { return meanAll(square(a)); }), 1e-2);
}

TEST(Autograd, GroupedMeanRowsGradient)
{
    Rng rng(13);
    Variable a = leaf(6, 3, rng);
    EXPECT_LT(gradCheck({a},
                        [&] {
                            return sumAll(square(groupedMeanRows(a, 3)));
                        }),
              1e-2);
}

TEST(Autograd, GroupedSoftmaxGradient)
{
    Rng rng(14);
    Variable s = leaf(8, 1, rng, 1.0f);
    Variable w(Tensor::randn(8, 1, rng), false); // fixed mixing weights
    EXPECT_LT(gradCheck({s},
                        [&] {
                            return sumAll(mul(groupedSoftmax(s, 4), w));
                        }),
              2e-2);
}

TEST(GroupedSoftmax, RowsSumToOnePerGroup)
{
    Rng rng(15);
    Variable s = leaf(12, 1, rng, 2.0f);
    Variable p = groupedSoftmax(s, 4);
    for (size_t g = 0; g < 3; ++g) {
        double sum = 0.0;
        for (size_t j = 0; j < 4; ++j)
            sum += p.value().at(g * 4 + j, 0);
        EXPECT_NEAR(sum, 1.0, 1e-5);
    }
}

TEST(Autograd, GroupedWeightedSumGradient)
{
    Rng rng(16);
    Variable w = leaf(6, 1, rng), f = leaf(6, 4, rng);
    EXPECT_LT(gradCheck({w, f},
                        [&] {
                            return sumAll(
                                square(groupedWeightedSum(w, f, 3)));
                        }),
              1e-2);
}

TEST(Autograd, BceWithLogitsGradientAndValue)
{
    Rng rng(17);
    Variable logits = leaf(6, 1, rng, 1.5f);
    Tensor targets(6, 1);
    for (size_t i = 0; i < 6; ++i)
        targets.at(i, 0) = i % 2 ? 1.0f : 0.0f;
    EXPECT_LT(gradCheck({logits},
                        [&] { return bceWithLogits(logits, targets); }),
              2e-2);

    // Perfect confident predictions give near-zero loss.
    Tensor perfect(2, 1, {20.0f, -20.0f});
    Tensor t2(2, 1, {1.0f, 0.0f});
    Variable v(perfect, false);
    EXPECT_NEAR(bceWithLogits(v, t2).value().at(0, 0), 0.0, 1e-6);
}

TEST(Autograd, ReusedSubexpressionAccumulatesGrad)
{
    // y = sum(a*a + a): dy/da = 2a + 1 requires accumulation through
    // two uses of the same node.
    Tensor init(1, 1, {3.0f});
    Variable a(init, true);
    Variable y = sumAll(add(mul(a, a), a));
    y.backward();
    EXPECT_NEAR(a.grad().at(0, 0), 7.0f, 1e-5);
}

TEST(Autograd, DetachBlocksGradient)
{
    Tensor init(1, 1, {2.0f});
    Variable a(init, true);
    Variable d = mul(a, a).detach();
    EXPECT_FALSE(d.requiresGrad());
    Variable y = sumAll(mul(d, d));
    y.backward();
    // Gradient never reaches a.
    EXPECT_FLOAT_EQ(a.grad().at(0, 0), 0.0f);
}

TEST(Autograd, NoGradLeavesUntouched)
{
    Rng rng(18);
    Variable a = leaf(2, 2, rng);
    Variable frozen(Tensor::randn(2, 2, rng), false);
    Variable y = sumAll(mul(a, frozen));
    y.backward();
    EXPECT_GT(a.grad().maxAbs(), 0.0f);
}

TEST(Autograd, BackwardTwiceAccumulates)
{
    Tensor init(1, 1, {1.0f});
    Variable a(init, true);
    Variable y = sumAll(scale(a, 3.0f));
    y.backward();
    y.backward();
    EXPECT_FLOAT_EQ(a.grad().at(0, 0), 6.0f);
    a.zeroGrad();
    EXPECT_FLOAT_EQ(a.grad().at(0, 0), 0.0f);
}

TEST(Autograd, DeepChainGradient)
{
    Rng rng(19);
    Variable a = leaf(2, 2, rng, 0.3f);
    EXPECT_LT(gradCheck({a},
                        [&] {
                            Variable h = a;
                            for (int i = 0; i < 6; ++i)
                                h = tanhOp(add(h, a));
                            return meanAll(square(h));
                        }),
              2e-2);
}

TEST(Autograd, CompositeAttentionLikeExpression)
{
    // A miniature GAT-shaped computation exercised end to end.
    Rng rng(20);
    Variable target = leaf(2, 3, rng);
    Variable nbrs = leaf(6, 3, rng);
    Variable w = leaf(3, 1, rng);
    EXPECT_LT(gradCheck({target, nbrs, w},
                        [&] {
                            Variable score =
                                leakyRelu(matmul(nbrs, w));
                            Variable attn = groupedSoftmax(score, 3);
                            Variable pooled =
                                groupedWeightedSum(attn, nbrs, 3);
                            return sumAll(square(add(pooled, target)));
                        }),
              2e-2);
}

// ---------------------------------------------------------------------
// OpBits: each op's forward value and backward gradients equal, bit for
// bit, an element-at-a-time reference loop that spells out the order
// of float operations the op must keep. The shapes are odd on purpose:
// a scalar, one that ends mid-vector at every SIMD width and one wider
// than any vector tile.

namespace {

const std::pair<size_t, size_t> kBitShapes[] = {{1, 1}, {3, 17}, {65, 129}};

/** Gaussians with exact zeros, a negative zero and saturating
 *  magnitudes mixed in. */
Tensor
bitInput(size_t r, size_t c, Rng &rng)
{
    Tensor t = Tensor::randn(r, c, rng);
    const float special[] = {0.0f, -0.0f, 31.0f, -31.0f, -1.5f};
    for (size_t i = 0; i < t.size(); i += 4)
        t.data()[i] = special[(i / 4) % 5];
    return t;
}

/** Give v a random starting gradient, as if another consumer of v had
 *  run its backward first; returns the copy the reference starts from.
 *  (Starting from zero would hide a change in accumulation order.) */
Tensor
seedGrad(const Variable &v, Rng &rng)
{
    Tensor g = bitInput(v.rows(), v.cols(), rng);
    v.node()->ensureGrad() = g;
    return g;
}

/** Run y's backward closure once with upstream gradient dy. */
void
backwardWith(const Variable &y, const Tensor &dy)
{
    detail::Node &n = *y.node();
    n.grad = dy;
    n.gradReady = true;
    n.backward(n);
}

uint32_t
bitsOf(float f)
{
    uint32_t u;
    std::memcpy(&u, &f, sizeof u);
    return u;
}

/** Bit-for-bit equality; reports the first differing element. */
void
expectBits(const Tensor &got, const Tensor &want, const std::string &what)
{
    ASSERT_EQ(got.rows(), want.rows()) << what;
    ASSERT_EQ(got.cols(), want.cols()) << what;
    size_t i = 0;
    while (i < got.size() && bitsOf(got.data()[i]) == bitsOf(want.data()[i]))
        ++i;
    if (i < got.size()) {
        EXPECT_EQ(bitsOf(got.data()[i]), bitsOf(want.data()[i]))
            << what << " differs at " << i << ": " << got.data()[i]
            << " vs " << want.data()[i];
    }
}

std::string
shapeName(size_t r, size_t c)
{
    return std::to_string(r) + "x" + std::to_string(c);
}

float
refSigmoid(float x)
{
    return x >= 0.0f ? 1.0f / (1.0f + std::exp(-x))
                     : std::exp(x) / (1.0f + std::exp(x));
}

/** Forward/backward reference for one unary elementwise op. */
struct UnaryRef
{
    const char *name;
    Variable (*op)(const Variable &);
    float (*fwd)(float);
    float (*bwd)(float x, float y);
};

Variable
leaky02(const Variable &a)
{
    return leakyRelu(a, 0.2f);
}

const UnaryRef kUnaryRefs[] = {
    {"sigmoid", sigmoid, refSigmoid,
     [](float, float y) { return y * (1.0f - y); }},
    {"tanh", tanhOp, [](float x) { return std::tanh(x); },
     [](float, float y) { return 1.0f - y * y; }},
    {"relu", relu, [](float x) { return x > 0.0f ? x : 0.0f; },
     [](float x, float) { return x > 0.0f ? 1.0f : 0.0f; }},
    {"leakyRelu", leaky02,
     [](float x) { return x > 0.0f ? x : 0.2f * x; },
     [](float x, float) { return x > 0.0f ? 1.0f : 0.2f; }},
    {"cos", cosOp, [](float x) { return std::cos(x); },
     [](float x, float) { return -std::sin(x); }},
    {"square", square, [](float x) { return x * x; },
     [](float x, float) { return 2.0f * x; }},
};

} // namespace

TEST(OpBits, UnaryElementwise)
{
    Rng rng(101);
    for (const UnaryRef &u : kUnaryRefs) {
        for (const auto &[r, c] : kBitShapes) {
            const std::string what = std::string(u.name) + " " +
                                     shapeName(r, c);
            Variable a(bitInput(r, c, rng), true);
            const Tensor dy = bitInput(r, c, rng);
            Tensor y(r, c), ga = seedGrad(a, rng);
            for (size_t i = 0; i < y.size(); ++i) {
                const float x = a.value().data()[i];
                y.data()[i] = u.fwd(x);
                ga.data()[i] += dy.data()[i] * u.bwd(x, y.data()[i]);
            }
            Variable out = u.op(a);
            expectBits(out.value(), y, what + " value");
            backwardWith(out, dy);
            expectBits(a.grad(), ga, what + " grad");
        }
    }
}

TEST(OpBits, SigmoidRaw)
{
    Rng rng(102);
    for (const auto &[r, c] : kBitShapes) {
        const Tensor x = bitInput(r, c, rng);
        Tensor y(r, c);
        for (size_t i = 0; i < y.size(); ++i)
            y.data()[i] = refSigmoid(x.data()[i]);
        expectBits(sigmoidRaw(x), y, "sigmoidRaw " + shapeName(r, c));
    }
}

TEST(OpBits, AddBroadcasts)
{
    Rng rng(103);
    for (const auto &[r, c] : kBitShapes) {
        const std::string shape = shapeName(r, c);
        Variable a(bitInput(r, c, rng), true);
        const Tensor dy = bitInput(r, c, rng);
        Tensor ga = seedGrad(a, rng);
        for (size_t i = 0; i < ga.size(); ++i)
            ga.data()[i] += dy.data()[i];

        // Row-broadcast bias: the bias gradient is a column sum taken
        // row by row, then added once.
        Variable bias(bitInput(1, c, rng), true);
        Tensor y(r, c), sum(1, c), gbias = seedGrad(bias, rng);
        for (size_t i = 0; i < r; ++i)
            for (size_t j = 0; j < c; ++j) {
                y.at(i, j) = a.value().at(i, j) + bias.value().at(0, j);
                sum.at(0, j) += dy.at(i, j);
            }
        for (size_t j = 0; j < c; ++j)
            gbias.at(0, j) += sum.at(0, j);
        Variable out = add(a, bias);
        expectBits(out.value(), y, "add row-broadcast value " + shape);
        backwardWith(out, dy);
        expectBits(a.grad(), ga, "add row-broadcast grad a " + shape);
        expectBits(bias.grad(), gbias, "add row-broadcast grad b " + shape);

        // Column broadcast: the per-row gradient sums along the row.
        ga = seedGrad(a, rng);
        for (size_t i = 0; i < ga.size(); ++i)
            ga.data()[i] += dy.data()[i];
        Variable col(bitInput(r, 1, rng), true);
        Tensor gcol = seedGrad(col, rng);
        for (size_t i = 0; i < r; ++i)
            for (size_t j = 0; j < c; ++j) {
                y.at(i, j) = a.value().at(i, j) + col.value().at(i, 0);
                gcol.at(i, 0) += dy.at(i, j);
            }
        out = add(a, col);
        expectBits(out.value(), y, "add col-broadcast value " + shape);
        backwardWith(out, dy);
        expectBits(a.grad(), ga, "add col-broadcast grad a " + shape);
        expectBits(col.grad(), gcol, "add col-broadcast grad b " + shape);
    }
}

TEST(OpBits, MulSameShapeAndColumnBroadcast)
{
    Rng rng(104);
    for (const auto &[r, c] : kBitShapes) {
        const std::string shape = shapeName(r, c);
        Variable a(bitInput(r, c, rng), true);
        Variable b(bitInput(r, c, rng), true);
        const Tensor dy = bitInput(r, c, rng);
        Tensor y(r, c), ga = seedGrad(a, rng), gb = seedGrad(b, rng);
        for (size_t i = 0; i < y.size(); ++i) {
            y.data()[i] = a.value().data()[i] * b.value().data()[i];
            ga.data()[i] += dy.data()[i] * b.value().data()[i];
            gb.data()[i] += dy.data()[i] * a.value().data()[i];
        }
        Variable out = mul(a, b);
        expectBits(out.value(), y, "mul value " + shape);
        backwardWith(out, dy);
        expectBits(a.grad(), ga, "mul grad a " + shape);
        expectBits(b.grad(), gb, "mul grad b " + shape);

        Variable s(bitInput(r, 1, rng), true);
        Tensor ga2 = seedGrad(a, rng), gs = seedGrad(s, rng);
        for (size_t i = 0; i < r; ++i) {
            double acc = 0.0;
            for (size_t j = 0; j < c; ++j) {
                y.at(i, j) = a.value().at(i, j) * s.value().at(i, 0);
                ga2.at(i, j) += dy.at(i, j) * s.value().at(i, 0);
                acc += static_cast<double>(dy.at(i, j)) *
                       a.value().at(i, j);
            }
            gs.at(i, 0) += static_cast<float>(acc);
        }
        out = mul(a, s);
        expectBits(out.value(), y, "mul col-broadcast value " + shape);
        backwardWith(out, dy);
        expectBits(a.grad(), ga2, "mul col-broadcast grad a " + shape);
        expectBits(s.grad(), gs, "mul col-broadcast grad s " + shape);
    }
}

TEST(OpBits, ConcatSliceGather)
{
    Rng rng(105);
    for (const auto &[r, c] : kBitShapes) {
        const std::string shape = shapeName(r, c);
        const size_t bc = c / 2 + 1;
        Variable a(bitInput(r, c, rng), true);
        Variable b(bitInput(r, bc, rng), true);
        const Tensor dy = bitInput(r, c + bc, rng);
        Tensor y(r, c + bc), ga = seedGrad(a, rng), gb = seedGrad(b, rng);
        for (size_t i = 0; i < r; ++i) {
            for (size_t j = 0; j < c; ++j) {
                y.at(i, j) = a.value().at(i, j);
                ga.at(i, j) += dy.at(i, j);
            }
            for (size_t j = 0; j < bc; ++j) {
                y.at(i, c + j) = b.value().at(i, j);
                gb.at(i, j) += dy.at(i, c + j);
            }
        }
        Variable out = concatCols(a, b);
        expectBits(out.value(), y, "concatCols value " + shape);
        backwardWith(out, dy);
        expectBits(a.grad(), ga, "concatCols grad a " + shape);
        expectBits(b.grad(), gb, "concatCols grad b " + shape);

        // Slice the upper two thirds of the columns.
        const size_t c0 = c / 3;
        const Tensor dslice = bitInput(r, c - c0, rng);
        Tensor ys(r, c - c0), gs = seedGrad(a, rng);
        for (size_t i = 0; i < r; ++i)
            for (size_t j = c0; j < c; ++j) {
                ys.at(i, j - c0) = a.value().at(i, j);
                gs.at(i, j) += dslice.at(i, j - c0);
            }
        out = sliceCols(a, c0, c);
        expectBits(out.value(), ys, "sliceCols value " + shape);
        backwardWith(out, dslice);
        expectBits(a.grad(), gs, "sliceCols grad " + shape);

        // Gather with repeated rows: their gradients add in index order.
        const std::vector<int64_t> idx = {
            static_cast<int64_t>(r - 1), 0, static_cast<int64_t>(r / 2), 0,
            static_cast<int64_t>(r - 1)};
        const Tensor dg = bitInput(idx.size(), c, rng);
        Tensor yg(idx.size(), c), gg = seedGrad(a, rng);
        for (size_t i = 0; i < idx.size(); ++i)
            for (size_t j = 0; j < c; ++j) {
                yg.at(i, j) = a.value().at(idx[i], j);
                gg.at(idx[i], j) += dg.at(i, j);
            }
        out = gatherRows(a, idx);
        expectBits(out.value(), yg, "gatherRows value " + shape);
        backwardWith(out, dg);
        expectBits(a.grad(), gg, "gatherRows grad " + shape);
    }
}

TEST(OpBits, SumAll)
{
    Rng rng(106);
    for (const auto &[r, c] : kBitShapes) {
        Variable a(bitInput(r, c, rng), true);
        double sum = 0.0;
        for (size_t i = 0; i < a.value().size(); ++i)
            sum += a.value().data()[i];
        const Tensor dy(1, 1, {-0.75f});
        Tensor ga = seedGrad(a, rng);
        for (size_t i = 0; i < ga.size(); ++i)
            ga.data()[i] += dy.at(0, 0);
        Variable out = sumAll(a);
        expectBits(out.value(), Tensor(1, 1, {static_cast<float>(sum)}),
                   "sumAll value " + shapeName(r, c));
        backwardWith(out, dy);
        expectBits(a.grad(), ga, "sumAll grad " + shapeName(r, c));
    }
}

TEST(OpBits, GroupedMeanSoftmaxWeightedSum)
{
    Rng rng(107);
    // Group sizes dividing each shape's rows: 1, 3 and 5.
    const size_t groupSize[] = {1, 3, 5};
    for (size_t s = 0; s < 3; ++s) {
        const auto [r, c] = kBitShapes[s];
        const size_t k = groupSize[s], groups = r / k;
        const std::string shape = shapeName(r, c);

        // groupedMeanRows: out starts at zero and takes x * (1/k) for
        // each member row in order.
        Variable a(bitInput(r, c, rng), true);
        const float inv = 1.0f / static_cast<float>(k);
        const Tensor dmean = bitInput(groups, c, rng);
        Tensor ym(groups, c), gm = seedGrad(a, rng);
        for (size_t g = 0; g < groups; ++g)
            for (size_t j = 0; j < k; ++j)
                for (size_t col = 0; col < c; ++col)
                    ym.at(g, col) += a.value().at(g * k + j, col) * inv;
        for (size_t i = 0; i < r; ++i)
            for (size_t col = 0; col < c; ++col)
                gm.at(i, col) += dmean.at(i / k, col) * inv;
        Variable out = groupedMeanRows(a, k);
        expectBits(out.value(), ym, "groupedMeanRows value " + shape);
        backwardWith(out, dmean);
        expectBits(a.grad(), gm, "groupedMeanRows grad " + shape);

        // groupedSoftmax over a score column.
        Variable sc(bitInput(r, 1, rng), true);
        const Tensor dsm = bitInput(r, 1, rng);
        Tensor ysm(r, 1), gsm = seedGrad(sc, rng);
        for (size_t g = 0; g < groups; ++g) {
            float mx = sc.value().at(g * k, 0);
            for (size_t j = 1; j < k; ++j)
                mx = std::max(mx, sc.value().at(g * k + j, 0));
            double denom = 0.0;
            for (size_t j = 0; j < k; ++j) {
                const float e = std::exp(sc.value().at(g * k + j, 0) - mx);
                ysm.at(g * k + j, 0) = e;
                denom += e;
            }
            for (size_t j = 0; j < k; ++j)
                ysm.at(g * k + j, 0) /= static_cast<float>(denom);
            double dot = 0.0;
            for (size_t j = 0; j < k; ++j)
                dot += static_cast<double>(dsm.at(g * k + j, 0)) *
                       ysm.at(g * k + j, 0);
            for (size_t j = 0; j < k; ++j)
                gsm.at(g * k + j, 0) +=
                    ysm.at(g * k + j, 0) *
                    (dsm.at(g * k + j, 0) - static_cast<float>(dot));
        }
        out = groupedSoftmax(sc, k);
        expectBits(out.value(), ysm, "groupedSoftmax value " + shape);
        backwardWith(out, dsm);
        expectBits(sc.grad(), gsm, "groupedSoftmax grad " + shape);

        // groupedWeightedSum: weights column times feature rows.
        Variable w(bitInput(r, 1, rng), true);
        Variable f(bitInput(r, c, rng), true);
        const Tensor dws = bitInput(groups, c, rng);
        Tensor yws(groups, c), gw = seedGrad(w, rng), gf = seedGrad(f, rng);
        for (size_t g = 0; g < groups; ++g)
            for (size_t j = 0; j < k; ++j) {
                const float wv = w.value().at(g * k + j, 0);
                double acc = 0.0;
                for (size_t col = 0; col < c; ++col) {
                    yws.at(g, col) += wv * f.value().at(g * k + j, col);
                    acc += static_cast<double>(dws.at(g, col)) *
                           f.value().at(g * k + j, col);
                    gf.at(g * k + j, col) += wv * dws.at(g, col);
                }
                gw.at(g * k + j, 0) += static_cast<float>(acc);
            }
        out = groupedWeightedSum(w, f, k);
        expectBits(out.value(), yws, "groupedWeightedSum value " + shape);
        backwardWith(out, dws);
        expectBits(w.grad(), gw, "groupedWeightedSum grad w " + shape);
        expectBits(f.grad(), gf, "groupedWeightedSum grad f " + shape);
    }
}

TEST(OpBits, BceWithLogits)
{
    Rng rng(108);
    for (const auto &[r, c] : kBitShapes) {
        (void)c;
        Variable logits(bitInput(r, 1, rng), true);
        Tensor targets(r, 1);
        for (size_t i = 0; i < r; ++i)
            targets.at(i, 0) = (i % 3 == 0) ? 1.0f : 0.0f;
        double loss = 0.0;
        for (size_t i = 0; i < r; ++i) {
            const float x = logits.value().at(i, 0);
            const float t = targets.at(i, 0);
            loss += std::log1p(std::exp(-std::abs(x))) +
                    std::max(x, 0.0f) - x * t;
        }
        const Tensor dy(1, 1, {1.25f});
        const float go = dy.at(0, 0) / static_cast<float>(r);
        Tensor g = seedGrad(logits, rng);
        for (size_t i = 0; i < r; ++i)
            g.at(i, 0) += go * (refSigmoid(logits.value().at(i, 0)) -
                                targets.at(i, 0));
        Variable out = bceWithLogits(logits, targets);
        expectBits(out.value(),
                   Tensor(1, 1, {static_cast<float>(loss / r)}),
                   "bceWithLogits value " + shapeName(r, 1));
        backwardWith(out, dy);
        expectBits(logits.grad(), g, "bceWithLogits grad " + shapeName(r, 1));
    }
}

TEST(OpBits, TensorInPlaceArithmetic)
{
    Rng rng(109);
    for (const auto &[r, c] : kBitShapes) {
        const Tensor x = bitInput(r, c, rng), y = bitInput(r, c, rng);
        Tensor sum = x, diff = x, scaled = x;
        sum += y;
        diff -= y;
        scaled *= -0.3f;
        Tensor wantSum(r, c), wantDiff(r, c), wantScaled(r, c);
        for (size_t i = 0; i < x.size(); ++i) {
            wantSum.data()[i] = x.data()[i] + y.data()[i];
            wantDiff.data()[i] = x.data()[i] - y.data()[i];
            wantScaled.data()[i] = x.data()[i] * -0.3f;
        }
        expectBits(sum, wantSum, "+= " + shapeName(r, c));
        expectBits(diff, wantDiff, "-= " + shapeName(r, c));
        expectBits(scaled, wantScaled, "*= " + shapeName(r, c));
    }
}
