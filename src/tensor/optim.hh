/**
 * @file
 * First-order optimizers over Variable parameter lists.
 *
 * The paper trains with Adam (Kingma & Ba); SGD is provided for tests
 * and ablations.
 */

#ifndef CASCADE_TENSOR_OPTIM_HH
#define CASCADE_TENSOR_OPTIM_HH

#include <vector>

#include "tensor/variable.hh"

namespace cascade {

class ByteWriter;
class ByteReader;

/** Common optimizer interface. */
class Optimizer
{
  public:
    /** @param params leaf Variables with requiresGrad set */
    explicit Optimizer(std::vector<Variable> params);
    virtual ~Optimizer() = default;

    /**
     * Apply one update from the parameters' current gradients.
     * @return the sum of squared gradients it read (before any
     *         clipping), accumulated in double in parameter order —
     *         the caller's gradient norm is its square root.
     */
    virtual double step() = 0;

    /** Zero every parameter gradient. */
    void zeroGrad();

    /** Parameter count (scalars) across all tensors. */
    size_t numScalars() const;

  protected:
    std::vector<Variable> params_;
};

/** Plain SGD with optional gradient clipping. */
class Sgd : public Optimizer
{
  public:
    Sgd(std::vector<Variable> params, float lr, float clip = 0.0f);
    double step() override;

  private:
    float lr_;
    float clip_;
};

/** Adam (Kingma & Ba 2014) with bias correction. */
class Adam : public Optimizer
{
  public:
    Adam(std::vector<Variable> params, float lr = 1e-3f,
         float beta1 = 0.9f, float beta2 = 0.999f, float eps = 1e-8f);
    double step() override;

    /** Updates applied so far (the bias-correction clock). */
    long stepCount() const { return t_; }

    /**
     * Serialize the moment estimates and step count — resuming Adam
     * without them restarts bias correction and changes the training
     * trajectory.
     */
    void saveState(ByteWriter &w) const;

    /**
     * Restore moments/step count written by saveState. All tensors
     * are staged and shape-checked against the current parameters
     * before anything is applied.
     * @return false on mismatch or short payload (state untouched)
     */
    bool loadState(ByteReader &r);

  private:
    float lr_, beta1_, beta2_, eps_;
    long t_ = 0;
    std::vector<Tensor> m_;
    std::vector<Tensor> v_;
};

} // namespace cascade

#endif // CASCADE_TENSOR_OPTIM_HH
