#include "tensor/optim.hh"

#include <algorithm>
#include <cmath>

#include "tensor/tensor_io.hh"
#include "util/logging.hh"

namespace cascade {

namespace {

/** Adam's update chunk: 4 KiB of gradient, well inside L1. */
constexpr size_t kAdamChunk = 1024;

} // namespace

Optimizer::Optimizer(std::vector<Variable> params)
    : params_(std::move(params))
{
    for (const auto &p : params_)
        CASCADE_CHECK(p.requiresGrad(),
                      "optimizer parameter must require grad");
}

void
Optimizer::zeroGrad()
{
    for (auto &p : params_)
        p.zeroGrad();
}

size_t
Optimizer::numScalars() const
{
    size_t n = 0;
    for (const auto &p : params_)
        n += p.value().size();
    return n;
}

Sgd::Sgd(std::vector<Variable> params, float lr, float clip)
    : Optimizer(std::move(params)), lr_(lr), clip_(clip)
{}

// Both steps make one pass per parameter over restrict-qualified
// pointers (value, gradient and moments are distinct tensors) and fold
// the squared-gradient sum into it. The update arithmetic is the same
// per element, in the same order, as an element-at-a-time loop; the
// sum is one double accumulator in parameter order.

double
Sgd::step()
{
    double grad_sq = 0.0;
    for (auto &p : params_) {
        float *__restrict val = p.valueMutable().data();
        const float *__restrict g = p.grad().data();
        const float lr = lr_, clip = clip_;
        for (size_t i = 0, n = p.value().size(); i < n; ++i) {
            float gv = g[i];
            grad_sq += static_cast<double>(gv) * gv;
            if (clip > 0.0f) {
                if (gv > clip)
                    gv = clip;
                if (gv < -clip)
                    gv = -clip;
            }
            val[i] -= lr * gv;
        }
    }
    return grad_sq;
}

Adam::Adam(std::vector<Variable> params, float lr, float beta1,
           float beta2, float eps)
    : Optimizer(std::move(params)), lr_(lr), beta1_(beta1),
      beta2_(beta2), eps_(eps)
{
    m_.reserve(params_.size());
    v_.reserve(params_.size());
    for (const auto &p : params_) {
        m_.emplace_back(p.value().rows(), p.value().cols());
        v_.emplace_back(p.value().rows(), p.value().cols());
    }
}

double
Adam::step()
{
    ++t_;
    const double bc1 = 1.0 - std::pow(beta1_, t_);
    const double bc2 = 1.0 - std::pow(beta2_, t_);
    const float b1 = beta1_, b2 = beta2_;
    const float c1 = 1.0f - beta1_, c2 = 1.0f - beta2_;
    const float lr = lr_, eps = eps_;
    double grad_sq = 0.0;
    for (size_t pi = 0; pi < params_.size(); ++pi) {
        float *__restrict val = params_[pi].valueMutable().data();
        const float *__restrict g = params_[pi].grad().data();
        float *__restrict m = m_[pi].data();
        float *__restrict v = v_[pi].data();
        const size_t n = m_[pi].size();
        // An in-order double sum does not vectorize, and in the update
        // loop it would keep that loop scalar too. So the update runs
        // vectorized over a chunk and the serial sum follows over the
        // same chunk while its gradients are still in L1.
        for (size_t i0 = 0; i0 < n; i0 += kAdamChunk) {
            const size_t i1 = std::min(n, i0 + kAdamChunk);
            for (size_t i = i0; i < i1; ++i) {
                const float gv = g[i];
                m[i] = b1 * m[i] + c1 * gv;
                v[i] = b2 * v[i] + c2 * gv * gv;
                const double mhat = m[i] / bc1;
                const double vhat = v[i] / bc2;
                val[i] -= static_cast<float>(lr * mhat /
                                             (std::sqrt(vhat) + eps));
            }
            for (size_t i = i0; i < i1; ++i)
                grad_sq += static_cast<double>(g[i]) * g[i];
        }
    }
    return grad_sq;
}

void
Adam::saveState(ByteWriter &w) const
{
    w.u64(static_cast<uint64_t>(t_));
    w.u64(m_.size());
    for (size_t i = 0; i < m_.size(); ++i) {
        writeTensor(w, m_[i]);
        writeTensor(w, v_[i]);
    }
}

bool
Adam::loadState(ByteReader &r)
{
    uint64_t t = 0, count = 0;
    if (!r.u64(t) || !r.u64(count) || count != m_.size())
        return false;
    std::vector<Tensor> m, v;
    m.reserve(count);
    v.reserve(count);
    for (size_t i = 0; i < count; ++i) {
        Tensor mi, vi;
        if (!readTensorExpect(r, m_[i].rows(), m_[i].cols(), mi) ||
            !readTensorExpect(r, v_[i].rows(), v_[i].cols(), vi)) {
            return false;
        }
        m.push_back(std::move(mi));
        v.push_back(std::move(vi));
    }
    t_ = static_cast<long>(t);
    m_ = std::move(m);
    v_ = std::move(v);
    return true;
}

} // namespace cascade
