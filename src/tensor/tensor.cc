#include "tensor/tensor.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"

namespace cascade {

Tensor::Tensor(size_t rows, size_t cols, const std::vector<float> &data)
    : rows_(rows), cols_(cols), data_(data.begin(), data.end())
{
    CASCADE_CHECK(data_.size() == rows_ * cols_,
                  "Tensor data size does not match shape");
}

Tensor
Tensor::fromStorage(size_t rows, size_t cols, Storage data)
{
    CASCADE_CHECK(data.size() == rows * cols,
                  "Tensor data size does not match shape");
    Tensor t;
    t.rows_ = rows;
    t.cols_ = cols;
    t.data_ = std::move(data);
    return t;
}

Tensor
Tensor::zeros(size_t rows, size_t cols)
{
    return Tensor(rows, cols);
}

Tensor
Tensor::ones(size_t rows, size_t cols)
{
    return full(rows, cols, 1.0f);
}

Tensor
Tensor::full(size_t rows, size_t cols, float value)
{
    Tensor t(rows, cols);
    t.fill(value);
    return t;
}

Tensor
Tensor::randn(size_t rows, size_t cols, Rng &rng, float stddev)
{
    Tensor t(rows, cols);
    for (size_t i = 0; i < t.size(); ++i)
        t.data()[i] = static_cast<float>(rng.gaussian(0.0, stddev));
    return t;
}

Tensor
Tensor::xavier(size_t rows, size_t cols, Rng &rng)
{
    Tensor t(rows, cols);
    const double bound = std::sqrt(6.0 / (rows + cols));
    for (size_t i = 0; i < t.size(); ++i)
        t.data()[i] = static_cast<float>(rng.uniform(-bound, bound));
    return t;
}

void
Tensor::fill(float value)
{
    std::fill(data_.begin(), data_.end(), value);
}

bool
Tensor::sameShape(const Tensor &other) const
{
    return rows_ == other.rows_ && cols_ == other.cols_;
}

Tensor &
Tensor::operator+=(const Tensor &other)
{
    CASCADE_CHECK(sameShape(other), "+= shape mismatch");
    float *y = data_.data();
    const float *x = other.data_.data();
    for (size_t i = 0, n = data_.size(); i < n; ++i)
        y[i] += x[i];
    return *this;
}

Tensor &
Tensor::operator-=(const Tensor &other)
{
    CASCADE_CHECK(sameShape(other), "-= shape mismatch");
    float *y = data_.data();
    const float *x = other.data_.data();
    for (size_t i = 0, n = data_.size(); i < n; ++i)
        y[i] -= x[i];
    return *this;
}

Tensor &
Tensor::operator*=(float s)
{
    float *y = data_.data();
    for (size_t i = 0, n = data_.size(); i < n; ++i)
        y[i] *= s;
    return *this;
}

double
Tensor::sum() const
{
    double acc = 0.0;
    for (float v : data_)
        acc += v;
    return acc;
}

float
Tensor::maxAbs() const
{
    float m = 0.0f;
    for (float v : data_)
        m = std::max(m, std::abs(v));
    return m;
}

void
Tensor::copyRowFrom(size_t dst_row, const Tensor &src, size_t src_row)
{
    CASCADE_CHECK(cols_ == src.cols(), "copyRowFrom column mismatch");
    std::copy(src.row(src_row), src.row(src_row) + cols_, row(dst_row));
}

double
cosineSimilarityRows(const Tensor &a, size_t ra,
                     const Tensor &b, size_t rb)
{
    CASCADE_CHECK(a.cols() == b.cols(), "cosine column mismatch");
    const float *x = a.row(ra);
    const float *y = b.row(rb);
    double dot = 0.0, nx = 0.0, ny = 0.0;
    for (size_t i = 0; i < a.cols(); ++i) {
        dot += static_cast<double>(x[i]) * y[i];
        nx += static_cast<double>(x[i]) * x[i];
        ny += static_cast<double>(y[i]) * y[i];
    }
    if (nx < 1e-24 && ny < 1e-24)
        return 1.0;
    if (nx < 1e-24 || ny < 1e-24)
        return 0.0;
    return dot / (std::sqrt(nx) * std::sqrt(ny));
}

} // namespace cascade
