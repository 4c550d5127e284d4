/**
 * @file
 * Optimizer tests: SGD/Adam reduce simple objectives, bias correction
 * behaves, gradient clipping clips, zeroGrad clears, and the fused
 * update pass is bit-identical to the element-at-a-time oracle.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <utility>
#include <vector>

#include "tensor/ops.hh"
#include "tensor/optim.hh"
#include "tensor/tensor_io.hh"
#include "util/binio.hh"
#include "util/rng.hh"

using namespace cascade;
using namespace cascade::ops;

namespace {

/** Loss ||x - target||^2 for a 1x3 parameter. */
Variable
quadratic(const Variable &x, const Tensor &target)
{
    return sumAll(square(sub(x, Variable(target))));
}

} // namespace

TEST(Sgd, ConvergesOnQuadratic)
{
    Tensor target(1, 3, {1.0f, -2.0f, 0.5f});
    Variable x(Tensor::zeros(1, 3), true);
    Sgd opt({x}, 0.1f);
    for (int i = 0; i < 200; ++i) {
        opt.zeroGrad();
        quadratic(x, target).backward();
        opt.step();
    }
    for (size_t c = 0; c < 3; ++c)
        EXPECT_NEAR(x.value().at(0, c), target.at(0, c), 1e-3);
}

TEST(Sgd, ClippingBoundsTheStep)
{
    Tensor target(1, 1, {1000.0f});
    Variable x(Tensor::zeros(1, 1), true);
    Sgd opt({x}, 1.0f, /*clip=*/0.5f);
    opt.zeroGrad();
    quadratic(x, target).backward();
    opt.step();
    // Unclipped gradient is -2000; clipped to -0.5 => step +0.5.
    EXPECT_NEAR(x.value().at(0, 0), 0.5f, 1e-5);
}

TEST(Adam, ConvergesOnQuadratic)
{
    Tensor target(1, 3, {0.3f, -0.7f, 2.0f});
    Variable x(Tensor::zeros(1, 3), true);
    Adam opt({x}, 0.05f);
    for (int i = 0; i < 500; ++i) {
        opt.zeroGrad();
        quadratic(x, target).backward();
        opt.step();
    }
    for (size_t c = 0; c < 3; ++c)
        EXPECT_NEAR(x.value().at(0, c), target.at(0, c), 1e-2);
}

TEST(Adam, FirstStepSizeIsLearningRate)
{
    // With bias correction, |first update| == lr regardless of the
    // gradient scale.
    Variable x(Tensor::zeros(1, 1), true);
    Adam opt({x}, 0.01f);
    opt.zeroGrad();
    sumAll(scale(x, 1234.0f)).backward();
    opt.step();
    EXPECT_NEAR(x.value().at(0, 0), -0.01f, 1e-5);
}

TEST(Adam, HandlesMultipleParameterTensors)
{
    Rng rng(5);
    Variable a(Tensor::randn(2, 2, rng), true);
    Variable b(Tensor::randn(1, 2, rng), true);
    Adam opt({a, b}, 0.05f);
    double first = 0.0, last = 0.0;
    for (int i = 0; i < 300; ++i) {
        opt.zeroGrad();
        Variable loss = sumAll(square(add(a, b)));
        if (i == 0)
            first = loss.value().at(0, 0);
        last = loss.value().at(0, 0);
        loss.backward();
        opt.step();
    }
    EXPECT_LT(last, first * 0.01);
}

TEST(Optimizer, ZeroGradClearsAllParameters)
{
    Variable x(Tensor::ones(2, 2), true);
    Sgd opt({x}, 0.1f);
    sumAll(square(x)).backward();
    EXPECT_GT(x.grad().maxAbs(), 0.0f);
    opt.zeroGrad();
    EXPECT_FLOAT_EQ(x.grad().maxAbs(), 0.0f);
}

TEST(Optimizer, CountsScalars)
{
    Variable a(Tensor::zeros(3, 4), true);
    Variable b(Tensor::zeros(1, 5), true);
    Sgd opt({a, b}, 0.1f);
    EXPECT_EQ(opt.numScalars(), 17u);
}

namespace {

/**
 * Oracle for the fused optimizer pass: the element-at-a-time Adam and
 * SGD loops and TgnnModel::stepBackward's serial squared-gradient sum
 * as they stood before the pass was fused, over plain tensors.
 */
struct OracleOptim
{
    explicit OracleOptim(float lr, float clip = 0.0f) : lr(lr), clip(clip)
    {}

    float lr, clip;
    float beta1 = 0.9f, beta2 = 0.999f, eps = 1e-8f;
    long t_ = 0;
    std::vector<Tensor> m_, v_;

    static double
    gradSq(const std::vector<Tensor> &grads)
    {
        double grad_sq = 0.0;
        for (const Tensor &g : grads) {
            for (size_t i = 0; i < g.size(); ++i)
                grad_sq += static_cast<double>(g.data()[i]) * g.data()[i];
        }
        return grad_sq;
    }

    double
    adam(std::vector<Tensor> &vals, const std::vector<Tensor> &grads)
    {
        const double grad_sq = gradSq(grads);
        if (m_.empty()) {
            for (const Tensor &p : vals) {
                m_.emplace_back(p.rows(), p.cols());
                v_.emplace_back(p.rows(), p.cols());
            }
        }
        const float beta1_ = beta1, beta2_ = beta2, lr_ = lr, eps_ = eps;
        ++t_;
        const double bc1 = 1.0 - std::pow(beta1_, t_);
        const double bc2 = 1.0 - std::pow(beta2_, t_);
        for (size_t pi = 0; pi < vals.size(); ++pi) {
            Tensor &val = vals[pi];
            const Tensor &g = grads[pi];
            Tensor &m = m_[pi];
            Tensor &v = v_[pi];
            for (size_t i = 0; i < val.size(); ++i) {
                const float gv = g.data()[i];
                m.data()[i] = beta1_ * m.data()[i] + (1.0f - beta1_) * gv;
                v.data()[i] =
                    beta2_ * v.data()[i] + (1.0f - beta2_) * gv * gv;
                const double mhat = m.data()[i] / bc1;
                const double vhat = v.data()[i] / bc2;
                val.data()[i] -= static_cast<float>(
                    lr_ * mhat / (std::sqrt(vhat) + eps_));
            }
        }
        return grad_sq;
    }

    double
    sgd(std::vector<Tensor> &vals, const std::vector<Tensor> &grads)
    {
        const double grad_sq = gradSq(grads);
        const float lr_ = lr, clip_ = clip;
        for (size_t pi = 0; pi < vals.size(); ++pi) {
            Tensor &val = vals[pi];
            const Tensor &g = grads[pi];
            for (size_t i = 0; i < val.size(); ++i) {
                float gv = g.data()[i];
                if (clip_ > 0.0f) {
                    if (gv > clip_)
                        gv = clip_;
                    if (gv < -clip_)
                        gv = -clip_;
                }
                val.data()[i] -= lr_ * gv;
            }
        }
        return grad_sq;
    }
};

/** Odd parameter shapes: scalar, a row, and ones that end mid-vector
 *  at every SIMD width. */
const std::pair<size_t, size_t> kOptimShapes[] = {
    {1, 1}, {1, 7}, {17, 3}, {33, 65}};

/** A gradient with exact zeros, negatives, +-1e-30 (whose square
 *  underflows in float) and large entries beside gaussians. */
Tensor
edgeGradient(size_t rows, size_t cols, Rng &rng)
{
    Tensor g = Tensor::randn(rows, cols, rng);
    const float special[] = {0.0f, -0.0f, 1e-30f, -1e-30f, -3.5f, 250.0f};
    for (size_t i = 0; i < g.size(); i += 3)
        g.data()[i] = special[(i / 3) % 6];
    return g;
}

void
expectSameBits(const Tensor &a, const Tensor &b, const char *what)
{
    ASSERT_TRUE(a.sameShape(b)) << what;
    EXPECT_EQ(0, std::memcmp(a.data(), b.data(), a.size() * sizeof(float)))
        << what;
}

/** Parameters, their oracle copies, and fresh gradients per step. */
struct OptimCase
{
    std::vector<Variable> params;
    std::vector<Tensor> oracleVals;

    explicit OptimCase(Rng &rng)
    {
        for (const auto &[r, c] : kOptimShapes) {
            Tensor init = Tensor::randn(r, c, rng);
            params.emplace_back(init, true);
            oracleVals.push_back(init);
        }
    }

    /** Write new gradients into the parameters; return copies. */
    std::vector<Tensor>
    setGradients(Rng &rng)
    {
        std::vector<Tensor> grads;
        for (Variable &p : params) {
            Tensor g = edgeGradient(p.rows(), p.cols(), rng);
            p.node()->ensureGrad() = g;
            grads.push_back(std::move(g));
        }
        return grads;
    }
};

} // namespace

TEST(Adam, FusedPassMatchesScalarOracleBitForBit)
{
    Rng rng(41);
    OptimCase c(rng);
    Adam opt(c.params, 0.01f);
    OracleOptim oracle(0.01f);
    for (int step = 0; step < 5; ++step) {
        const std::vector<Tensor> grads = c.setGradients(rng);
        const double got = opt.step();
        const double want = oracle.adam(c.oracleVals, grads);
        EXPECT_EQ(0, std::memcmp(&got, &want, sizeof got))
            << "sum of squared gradients, step " << step;
        for (size_t i = 0; i < c.params.size(); ++i)
            expectSameBits(c.params[i].value(), c.oracleVals[i], "param");
    }

    // The moments, read back through the checkpoint encoding.
    ByteWriter w;
    opt.saveState(w);
    ByteReader r(w.buffer());
    uint64_t t = 0, count = 0;
    ASSERT_TRUE(r.u64(t) && r.u64(count));
    EXPECT_EQ(t, 5u);
    ASSERT_EQ(count, c.params.size());
    for (size_t i = 0; i < count; ++i) {
        Tensor m, v;
        ASSERT_TRUE(readTensor(r, m) && readTensor(r, v));
        expectSameBits(m, oracle.m_[i], "first moment");
        expectSameBits(v, oracle.v_[i], "second moment");
    }
}

TEST(Sgd, ClippedPassMatchesScalarOracleBitForBit)
{
    Rng rng(43);
    OptimCase c(rng);
    Sgd opt(c.params, 0.05f, /*clip=*/0.5f);
    OracleOptim oracle(0.05f, 0.5f);
    for (int step = 0; step < 5; ++step) {
        const std::vector<Tensor> grads = c.setGradients(rng);
        const double got = opt.step();
        const double want = oracle.sgd(c.oracleVals, grads);
        EXPECT_EQ(0, std::memcmp(&got, &want, sizeof got))
            << "sum of squared gradients, step " << step;
        for (size_t i = 0; i < c.params.size(); ++i)
            expectSameBits(c.params[i].value(), c.oracleVals[i], "param");
    }
}
