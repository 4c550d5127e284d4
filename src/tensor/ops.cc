#include "tensor/ops.hh"

#include <cmath>
#include <utility>

#include "tensor/kernels.hh"
#include "util/logging.hh"

namespace cascade {
namespace ops {

namespace {

using detail::Node;
using NodePtr = std::shared_ptr<Node>;
using kernels::Trans;

// The loops below run over hoisted, restrict-qualified row pointers so
// the compiler vectorizes them (ops.cc builds with the vector ISA and
// -ffp-contract=off, see src/tensor/CMakeLists.txt). Restrict holds
// because a node's grad, its value and a parent's grad or value are
// always distinct tensors. Every output element still takes the same
// float operations in the same order as an element-at-a-time loop;
// only reductions across a row that the old loops ran in order stay
// serial.

/** Build a result node with the given parents and backward closure. */
Variable
makeNode(Tensor value, std::vector<NodePtr> parents,
         std::function<void(Node &)> backward)
{
    auto node = std::make_shared<Node>();
    node->value = std::move(value);
    for (const auto &p : parents)
        node->requiresGrad = node->requiresGrad || p->requiresGrad;
    node->parents = std::move(parents);
    if (node->requiresGrad)
        node->backward = std::move(backward);
    return Variable::fromNode(std::move(node));
}

/** g[0, n) += src[0, n): one row of a gradient scatter. */
inline void
addRow(float *__restrict g, const float *__restrict src, size_t n)
{
    for (size_t c = 0; c < n; ++c)
        g[c] += src[c];
}

} // namespace

Variable
matmul(const Variable &a, const Variable &b)
{
    Tensor out =
        kernels::gemm(Trans::None, Trans::None, a.value(), b.value());
    NodePtr pa = a.node(), pb = b.node();
    return makeNode(std::move(out), {pa, pb}, [pa, pb](Node &n) {
        // gemmAcc scatters the product straight into the gradient
        // tensors — no temporary, no allocation.
        if (pa->requiresGrad)
            kernels::gemmAcc(Trans::None, Trans::Transpose, n.grad,
                             pb->value, pa->ensureGrad());
        if (pb->requiresGrad)
            kernels::gemmAcc(Trans::Transpose, Trans::None, pa->value,
                             n.grad, pb->ensureGrad());
    });
}

Variable
add(const Variable &a, const Variable &b)
{
    const Tensor &av = a.value();
    const Tensor &bv = b.value();
    NodePtr pa = a.node(), pb = b.node();

    if (av.sameShape(bv)) {
        Tensor out = kernels::uninit(av.rows(), av.cols());
        kernels::add(av, bv, out);
        return makeNode(std::move(out), {pa, pb}, [pa, pb](Node &n) {
            if (pa->requiresGrad)
                pa->ensureGrad() += n.grad;
            if (pb->requiresGrad)
                pb->ensureGrad() += n.grad;
        });
    }
    if (bv.rows() == 1 && bv.cols() == av.cols()) {
        // Row-broadcast bias.
        Tensor out = kernels::uninit(av.rows(), av.cols());
        const float *__restrict bias = bv.data();
        for (size_t r = 0, cols = av.cols(); r < av.rows(); ++r) {
            const float *__restrict x = av.row(r);
            float *__restrict o = out.row(r);
            for (size_t c = 0; c < cols; ++c)
                o[c] = x[c] + bias[c];
        }
        return makeNode(std::move(out), {pa, pb}, [pa, pb](Node &n) {
            if (pa->requiresGrad)
                pa->ensureGrad() += n.grad;
            if (pb->requiresGrad) {
                // 1xC bias gradient: column-sum of the upstream grad,
                // accumulated via a pooled scratch row.
                Tensor scratch = kernels::uninit(1, n.grad.cols());
                kernels::colSum(n.grad, scratch);
                pb->ensureGrad() += scratch;
                kernels::recycle(std::move(scratch));
            }
        });
    }
    if (bv.cols() == 1 && bv.rows() == av.rows()) {
        // Column-broadcast (per-row scalar).
        Tensor out = kernels::uninit(av.rows(), av.cols());
        for (size_t r = 0, cols = av.cols(); r < av.rows(); ++r) {
            const float s = bv.data()[r];
            const float *__restrict x = av.row(r);
            float *__restrict o = out.row(r);
            for (size_t c = 0; c < cols; ++c)
                o[c] = x[c] + s;
        }
        return makeNode(std::move(out), {pa, pb}, [pa, pb](Node &n) {
            if (pa->requiresGrad)
                pa->ensureGrad() += n.grad;
            if (pb->requiresGrad) {
                float *__restrict g = pb->ensureGrad().data();
                for (size_t r = 0; r < n.grad.rows(); ++r) {
                    const float *__restrict gr = n.grad.row(r);
                    float acc = g[r];
                    for (size_t c = 0; c < n.grad.cols(); ++c)
                        acc += gr[c];
                    g[r] = acc;
                }
            }
        });
    }
    CASCADE_PANIC("add: incompatible shapes");
}

Variable
sub(const Variable &a, const Variable &b)
{
    CASCADE_CHECK(a.value().sameShape(b.value()), "sub shape mismatch");
    Tensor out = kernels::uninit(a.value().rows(), a.value().cols());
    kernels::sub(a.value(), b.value(), out);
    NodePtr pa = a.node(), pb = b.node();
    return makeNode(std::move(out), {pa, pb}, [pa, pb](Node &n) {
        if (pa->requiresGrad)
            pa->ensureGrad() += n.grad;
        if (pb->requiresGrad)
            pb->ensureGrad() -= n.grad;
    });
}

Variable
mul(const Variable &a, const Variable &b)
{
    const Tensor &av = a.value();
    const Tensor &bv = b.value();
    NodePtr pa = a.node(), pb = b.node();

    if (av.sameShape(bv)) {
        Tensor out = kernels::uninit(av.rows(), av.cols());
        kernels::hadamard(av, bv, out);
        return makeNode(std::move(out), {pa, pb}, [pa, pb](Node &n) {
            // g += dY * other, for each parent that needs it.
            const auto acc = [&n](Tensor &grad, const Tensor &other) {
                float *__restrict g = grad.data();
                const float *__restrict dy = n.grad.data();
                const float *__restrict o = other.data();
                for (size_t i = 0, sz = grad.size(); i < sz; ++i)
                    g[i] += dy[i] * o[i];
            };
            if (pa->requiresGrad)
                acc(pa->ensureGrad(), pb->value);
            if (pb->requiresGrad)
                acc(pb->ensureGrad(), pa->value);
        });
    }
    CASCADE_CHECK(bv.cols() == 1 && bv.rows() == av.rows(),
                  "mul: b must match a or be a Bx1 column");
    Tensor out = kernels::uninit(av.rows(), av.cols());
    for (size_t r = 0, cols = av.cols(); r < av.rows(); ++r) {
        const float s = bv.data()[r];
        const float *__restrict x = av.row(r);
        float *__restrict o = out.row(r);
        for (size_t c = 0; c < cols; ++c)
            o[c] = x[c] * s;
    }
    return makeNode(std::move(out), {pa, pb}, [pa, pb](Node &n) {
        const size_t cols = n.grad.cols();
        if (pa->requiresGrad) {
            Tensor &grad = pa->ensureGrad();
            for (size_t r = 0; r < n.grad.rows(); ++r) {
                const float s = pb->value.data()[r];
                const float *__restrict dy = n.grad.row(r);
                float *__restrict g = grad.row(r);
                for (size_t c = 0; c < cols; ++c)
                    g[c] += dy[c] * s;
            }
        }
        if (pb->requiresGrad) {
            float *__restrict g = pb->ensureGrad().data();
            for (size_t r = 0; r < n.grad.rows(); ++r) {
                const float *__restrict dy = n.grad.row(r);
                const float *__restrict x = pa->value.row(r);
                double acc = 0.0;
                for (size_t c = 0; c < cols; ++c)
                    acc += static_cast<double>(dy[c]) * x[c];
                g[r] += static_cast<float>(acc);
            }
        }
    });
}

Variable
scale(const Variable &a, float s)
{
    Tensor out = kernels::uninit(a.value().rows(), a.value().cols());
    kernels::scale(a.value(), s, out);
    NodePtr pa = a.node();
    return makeNode(std::move(out), {pa}, [pa, s](Node &n) {
        if (pa->requiresGrad)
            kernels::axpy(s, n.grad, pa->ensureGrad());
    });
}

namespace {

/** Shared scaffolding for unary elementwise ops with local derivative
 *  computable from input and output values. */
template <typename Fwd, typename Bwd>
Variable
elementwise(const Variable &a, Fwd fwd, Bwd bwd)
{
    const Tensor &av = a.value();
    Tensor out = kernels::uninit(av.rows(), av.cols());
    {
        const float *__restrict x = av.data();
        float *__restrict y = out.data();
        for (size_t i = 0, sz = av.size(); i < sz; ++i)
            y[i] = fwd(x[i]);
    }
    NodePtr pa = a.node();
    return makeNode(std::move(out), {pa}, [pa, bwd](Node &n) {
        if (!pa->requiresGrad)
            return;
        float *__restrict g = pa->ensureGrad().data();
        const float *__restrict dy = n.grad.data();
        const float *__restrict x = pa->value.data();
        const float *__restrict y = n.value.data();
        for (size_t i = 0, sz = n.grad.size(); i < sz; ++i)
            g[i] += dy[i] * bwd(x[i], y[i]);
    });
}

/** Logistic function in the overflow-safe two-branch form. */
inline float
logistic(float x)
{
    if (x >= 0.0f)
        return 1.0f / (1.0f + std::exp(-x));
    const float e = std::exp(x);
    return e / (1.0f + e);
}

} // namespace

Variable
sigmoid(const Variable &a)
{
    return elementwise(a, [](float x) { return logistic(x); },
                       [](float, float y) { return y * (1.0f - y); });
}

Variable
tanhOp(const Variable &a)
{
    return elementwise(a, [](float x) { return std::tanh(x); },
                       [](float, float y) { return 1.0f - y * y; });
}

Variable
relu(const Variable &a)
{
    return elementwise(a, [](float x) { return x > 0.0f ? x : 0.0f; },
                       [](float x, float) { return x > 0.0f ? 1.0f : 0.0f; });
}

Variable
leakyRelu(const Variable &a, float slope)
{
    return elementwise(
        a, [slope](float x) { return x > 0.0f ? x : slope * x; },
        [slope](float x, float) { return x > 0.0f ? 1.0f : slope; });
}

Variable
cosOp(const Variable &a)
{
    return elementwise(a, [](float x) { return std::cos(x); },
                       [](float x, float) { return -std::sin(x); });
}

Variable
square(const Variable &a)
{
    return elementwise(a, [](float x) { return x * x; },
                       [](float x, float) { return 2.0f * x; });
}

Variable
concatCols(const Variable &a, const Variable &b)
{
    const Tensor &av = a.value();
    const Tensor &bv = b.value();
    CASCADE_CHECK(av.rows() == bv.rows(), "concatCols row mismatch");
    Tensor out = kernels::uninit(av.rows(), av.cols() + bv.cols());
    for (size_t r = 0; r < av.rows(); ++r) {
        std::copy(av.row(r), av.row(r) + av.cols(), out.row(r));
        std::copy(bv.row(r), bv.row(r) + bv.cols(),
                  out.row(r) + av.cols());
    }
    NodePtr pa = a.node(), pb = b.node();
    const size_t ac = av.cols();
    return makeNode(std::move(out), {pa, pb}, [pa, pb, ac](Node &n) {
        if (pa->requiresGrad) {
            Tensor &g = pa->ensureGrad();
            for (size_t r = 0; r < g.rows(); ++r)
                addRow(g.row(r), n.grad.row(r), g.cols());
        }
        if (pb->requiresGrad) {
            Tensor &g = pb->ensureGrad();
            for (size_t r = 0; r < g.rows(); ++r)
                addRow(g.row(r), n.grad.row(r) + ac, g.cols());
        }
    });
}

Variable
sliceCols(const Variable &a, size_t c0, size_t c1)
{
    const Tensor &av = a.value();
    CASCADE_CHECK(c0 < c1 && c1 <= av.cols(), "sliceCols bad range");
    Tensor out = kernels::uninit(av.rows(), c1 - c0);
    for (size_t r = 0; r < av.rows(); ++r)
        std::copy(av.row(r) + c0, av.row(r) + c1, out.row(r));
    NodePtr pa = a.node();
    return makeNode(std::move(out), {pa}, [pa, c0](Node &n) {
        if (!pa->requiresGrad)
            return;
        Tensor &grad = pa->ensureGrad();
        for (size_t r = 0; r < n.grad.rows(); ++r)
            addRow(grad.row(r) + c0, n.grad.row(r), n.grad.cols());
    });
}

Variable
gatherRows(const Variable &a, std::vector<int64_t> rows)
{
    const Tensor &av = a.value();
    Tensor out = kernels::uninit(rows.size(), av.cols());
    for (size_t i = 0; i < rows.size(); ++i) {
        CASCADE_CHECK(rows[i] >= 0 &&
                          static_cast<size_t>(rows[i]) < av.rows(),
                      "gatherRows index out of range");
        out.copyRowFrom(i, av, static_cast<size_t>(rows[i]));
    }
    NodePtr pa = a.node();
    auto idx = std::make_shared<std::vector<int64_t>>(std::move(rows));
    return makeNode(std::move(out), {pa}, [pa, idx](Node &n) {
        if (!pa->requiresGrad)
            return;
        Tensor &grad = pa->ensureGrad();
        for (size_t i = 0; i < idx->size(); ++i) {
            addRow(grad.row(static_cast<size_t>((*idx)[i])), n.grad.row(i),
                   n.grad.cols());
        }
    });
}

Variable
sumAll(const Variable &a)
{
    Tensor out(1, 1);
    out.at(0, 0) = static_cast<float>(a.value().sum());
    NodePtr pa = a.node();
    return makeNode(std::move(out), {pa}, [pa](Node &n) {
        if (!pa->requiresGrad)
            return;
        Tensor &grad = pa->ensureGrad();
        const float s = n.grad.at(0, 0);
        float *g = grad.data();
        for (size_t i = 0, sz = grad.size(); i < sz; ++i)
            g[i] += s;
    });
}

Variable
rowSum(const Variable &a)
{
    const Tensor &av = a.value();
    Tensor out = kernels::uninit(av.rows(), 1);
    kernels::rowSum(av, out);
    NodePtr pa = a.node();
    return makeNode(std::move(out), {pa}, [pa](Node &n) {
        if (!pa->requiresGrad)
            return;
        // d/dA sum_c A[r,c] = 1: broadcast the Rx1 grad across cols.
        Tensor &g = pa->ensureGrad();
        for (size_t r = 0; r < g.rows(); ++r) {
            const float s = n.grad.at(r, 0);
            float *grow = g.row(r);
            for (size_t c = 0; c < g.cols(); ++c)
                grow[c] += s;
        }
    });
}

Variable
meanAll(const Variable &a)
{
    const float inv = 1.0f / static_cast<float>(a.value().size());
    return scale(sumAll(a), inv);
}

Variable
groupedMeanRows(const Variable &a, size_t k)
{
    const Tensor &av = a.value();
    CASCADE_CHECK(k > 0 && av.rows() % k == 0,
                  "groupedMeanRows: rows not divisible by k");
    const size_t groups = av.rows() / k;
    const size_t cols = av.cols();
    Tensor out = kernels::zeros(groups, cols);
    const float inv = 1.0f / static_cast<float>(k);
    for (size_t g = 0; g < groups; ++g) {
        float *__restrict o = out.row(g);
        for (size_t j = 0; j < k; ++j) {
            const float *__restrict x = av.row(g * k + j);
            for (size_t c = 0; c < cols; ++c)
                o[c] += x[c] * inv;
        }
    }
    NodePtr pa = a.node();
    return makeNode(std::move(out), {pa}, [pa, k, inv](Node &n) {
        if (!pa->requiresGrad)
            return;
        Tensor &grad = pa->ensureGrad();
        const size_t cols = grad.cols();
        for (size_t i = 0; i < grad.rows(); ++i) {
            const float *__restrict dy = n.grad.row(i / k);
            float *__restrict g = grad.row(i);
            for (size_t c = 0; c < cols; ++c)
                g[c] += dy[c] * inv;
        }
    });
}

Variable
groupedSoftmax(const Variable &scores, size_t k)
{
    const Tensor &sv = scores.value();
    CASCADE_CHECK(sv.cols() == 1, "groupedSoftmax expects a column");
    CASCADE_CHECK(k > 0 && sv.rows() % k == 0,
                  "groupedSoftmax: rows not divisible by k");
    const size_t groups = sv.rows() / k;
    Tensor out = kernels::uninit(sv.rows(), 1);
    for (size_t g = 0; g < groups; ++g) {
        // Column tensors: group g is the k contiguous floats at g*k.
        const float *__restrict x = sv.data() + g * k;
        float *__restrict y = out.data() + g * k;
        float mx = x[0];
        for (size_t j = 1; j < k; ++j)
            mx = std::max(mx, x[j]);
        double denom = 0.0;
        for (size_t j = 0; j < k; ++j) {
            y[j] = std::exp(x[j] - mx);
            denom += y[j];
        }
        const float d = static_cast<float>(denom);
        for (size_t j = 0; j < k; ++j)
            y[j] /= d;
    }
    NodePtr pa = scores.node();
    return makeNode(std::move(out), {pa}, [pa, k](Node &n) {
        if (!pa->requiresGrad)
            return;
        Tensor &grad = pa->ensureGrad();
        const size_t groups = n.value.rows() / k;
        for (size_t gi = 0; gi < groups; ++gi) {
            const float *__restrict dy = n.grad.data() + gi * k;
            const float *__restrict y = n.value.data() + gi * k;
            float *__restrict g = grad.data() + gi * k;
            double dot = 0.0;
            for (size_t j = 0; j < k; ++j)
                dot += static_cast<double>(dy[j]) * y[j];
            const float d = static_cast<float>(dot);
            for (size_t j = 0; j < k; ++j)
                g[j] += y[j] * (dy[j] - d);
        }
    });
}

Variable
groupedWeightedSum(const Variable &weights, const Variable &feats, size_t k)
{
    const Tensor &wv = weights.value();
    const Tensor &fv = feats.value();
    CASCADE_CHECK(wv.cols() == 1 && wv.rows() == fv.rows(),
                  "groupedWeightedSum shape mismatch");
    CASCADE_CHECK(k > 0 && fv.rows() % k == 0,
                  "groupedWeightedSum: rows not divisible by k");
    const size_t groups = fv.rows() / k;
    const size_t cols = fv.cols();
    Tensor out = kernels::zeros(groups, cols);
    for (size_t g = 0; g < groups; ++g) {
        float *__restrict o = out.row(g);
        for (size_t j = 0; j < k; ++j) {
            const float w = wv.data()[g * k + j];
            const float *__restrict x = fv.row(g * k + j);
            for (size_t c = 0; c < cols; ++c)
                o[c] += w * x[c];
        }
    }
    NodePtr pw = weights.node(), pf = feats.node();
    return makeNode(std::move(out), {pw, pf}, [pw, pf, k](Node &n) {
        const size_t groups = n.value.rows();
        const size_t cols = n.grad.cols();
        if (pw->requiresGrad) {
            float *__restrict g = pw->ensureGrad().data();
            for (size_t gi = 0; gi < groups; ++gi) {
                const float *__restrict dy = n.grad.row(gi);
                for (size_t j = 0; j < k; ++j) {
                    const float *__restrict x = pf->value.row(gi * k + j);
                    double acc = 0.0;
                    for (size_t c = 0; c < cols; ++c)
                        acc += static_cast<double>(dy[c]) * x[c];
                    g[gi * k + j] += static_cast<float>(acc);
                }
            }
        }
        if (pf->requiresGrad) {
            Tensor &grad = pf->ensureGrad();
            for (size_t gi = 0; gi < groups; ++gi) {
                const float *__restrict dy = n.grad.row(gi);
                for (size_t j = 0; j < k; ++j) {
                    const float w = pw->value.data()[gi * k + j];
                    float *__restrict g = grad.row(gi * k + j);
                    for (size_t c = 0; c < cols; ++c)
                        g[c] += w * dy[c];
                }
            }
        }
    });
}

Variable
bceWithLogits(const Variable &logits, const Tensor &targets)
{
    const Tensor &lv = logits.value();
    CASCADE_CHECK(lv.cols() == 1 && lv.sameShape(targets),
                  "bceWithLogits expects matching Bx1 shapes");
    const size_t b = lv.rows();
    Tensor out(1, 1);
    double loss = 0.0;
    for (size_t i = 0; i < b; ++i) {
        const float x = lv.at(i, 0);
        const float t = targets.at(i, 0);
        // log(1 + exp(-|x|)) + max(x, 0) - x*t, the stable form.
        loss += std::log1p(std::exp(-std::abs(x))) +
                std::max(x, 0.0f) - x * t;
    }
    out.at(0, 0) = static_cast<float>(loss / b);
    NodePtr pl = logits.node();
    auto tgt = std::make_shared<Tensor>(targets);
    return makeNode(std::move(out), {pl}, [pl, tgt, b](Node &n) {
        if (!pl->requiresGrad)
            return;
        float *__restrict g = pl->ensureGrad().data();
        const float *__restrict x = pl->value.data();
        const float *__restrict t = tgt->data();
        const float go = n.grad.at(0, 0) / static_cast<float>(b);
        for (size_t i = 0; i < b; ++i)
            g[i] += go * (logistic(x[i]) - t[i]);
    });
}

Tensor
sigmoidRaw(const Tensor &a)
{
    Tensor out = kernels::uninit(a.rows(), a.cols());
    const float *__restrict x = a.data();
    float *__restrict y = out.data();
    for (size_t i = 0, sz = out.size(); i < sz; ++i)
        y[i] = logistic(x[i]);
    return out;
}

} // namespace ops
} // namespace cascade
