#include "nn/rnn.h"

#include <algorithm>
#include <vector>

#include "nn/init.h"
#include "tensor/ops.h"

namespace fewner::nn {

using tensor::Shape;
using tensor::Tensor;

LaneCarry::LaneCarry(const std::vector<int64_t>& lengths, int64_t max_len)
    : masks_(static_cast<size_t>(max_len)), full_(static_cast<size_t>(max_len)) {
  const int64_t lanes = static_cast<int64_t>(lengths.size());
  for (int64_t t = 0; t < max_len; ++t) {
    const bool all = std::all_of(lengths.begin(), lengths.end(),
                                 [t](int64_t length) { return t < length; });
    full_[static_cast<size_t>(t)] = all;
    if (all) continue;
    std::vector<float> m(static_cast<size_t>(lanes));
    for (size_t b = 0; b < lengths.size(); ++b) m[b] = t < lengths[b] ? 1.0f : 0.0f;
    masks_[static_cast<size_t>(t)] = Tensor::FromData(Shape{lanes, 1}, std::move(m));
  }
}

Tensor LaneCarry::Select(int64_t t, const Tensor& next, const Tensor& old) const {
  return full_[static_cast<size_t>(t)]
             ? next
             : tensor::Where(masks_[static_cast<size_t>(t)], next, old);
}

RnnCell::RnnCell(int64_t input_dim, int64_t hidden_dim, int64_t gates,
                 bool has_memory, util::Rng* rng)
    : input_dim_(input_dim), hidden_dim_(hidden_dim), has_memory_(has_memory) {
  w_ih_ = XavierNormal(input_dim, gates * hidden_dim, rng);
  w_hh_ = XavierNormal(hidden_dim, gates * hidden_dim, rng);
  RegisterParameter("w_ih", &w_ih_);
  RegisterParameter("w_hh", &w_hh_);
}

Tensor RnnCell::ProjectInput(const Tensor& x) const {
  FEWNER_CHECK(x.rank() == 2 && x.shape().dim(1) == input_dim_,
               "RnnCell expects [N, " << input_dim_ << "], got "
                                      << x.shape().ToString());
  return tensor::Add(tensor::MatMul(x, w_ih_), input_bias_);  // [N, G·H]
}

GruCell::GruCell(int64_t input_dim, int64_t hidden_dim, util::Rng* rng)
    : RnnCell(input_dim, hidden_dim, /*gates=*/3, /*has_memory=*/false, rng) {
  input_bias_ = ZeroInit(Shape{3 * hidden_dim});
  b_hh_ = ZeroInit(Shape{3 * hidden_dim});
  RegisterParameter("b_ih", &input_bias_);
  RegisterParameter("b_hh", &b_hh_);
}

RnnState GruCell::Step(const Tensor& projected_rows, const RnnState& state) const {
  const int64_t hd = hidden_dim_;
  const Tensor& h = state.h;
  // This GEMM runs once per timestep, so its backward dominates BPTT cost:
  // MatMul's NT/TN backward reads w_hh_ and h in place — no per-step
  // w_hh_ᵀ / hᵀ transpose copies on the tape (tensor/ops.cc).
  Tensor hidden_proj = tensor::Add(tensor::MatMul(h, w_hh_), b_hh_);  // [B, 3H]

  Tensor xr = tensor::Slice(projected_rows, 1, 0, hd);
  Tensor xz = tensor::Slice(projected_rows, 1, hd, hd);
  Tensor xn = tensor::Slice(projected_rows, 1, 2 * hd, hd);
  Tensor hr = tensor::Slice(hidden_proj, 1, 0, hd);
  Tensor hz = tensor::Slice(hidden_proj, 1, hd, hd);
  Tensor hn = tensor::Slice(hidden_proj, 1, 2 * hd, hd);

  Tensor r = tensor::Sigmoid(tensor::Add(xr, hr));
  Tensor z = tensor::Sigmoid(tensor::Add(xz, hz));
  Tensor n = tensor::Tanh(tensor::Add(xn, tensor::Mul(r, hn)));
  // h' = (1 - z) ⊙ n + z ⊙ h
  Tensor one_minus_z = tensor::AddScalar(tensor::Neg(z), 1.0f);
  return {tensor::Add(tensor::Mul(one_minus_z, n), tensor::Mul(z, h))};
}

LstmCell::LstmCell(int64_t input_dim, int64_t hidden_dim, util::Rng* rng)
    : RnnCell(input_dim, hidden_dim, /*gates=*/4, /*has_memory=*/true, rng) {
  // Forget-gate bias of 1 so early training does not wash out the cell state.
  std::vector<float> bias(static_cast<size_t>(4 * hidden_dim), 0.0f);
  for (int64_t i = hidden_dim; i < 2 * hidden_dim; ++i) {
    bias[static_cast<size_t>(i)] = 1.0f;
  }
  input_bias_ = Tensor::FromData(Shape{4 * hidden_dim}, std::move(bias),
                                 /*requires_grad=*/true);
  RegisterParameter("bias", &input_bias_);
}

RnnState LstmCell::Step(const Tensor& projected_rows, const RnnState& state) const {
  const int64_t hd = hidden_dim_;
  // Per-timestep GEMM: its NT/TN backward reads w_hh_ and h in place, so BPTT
  // carries no per-step w_hh_ᵀ / hᵀ transpose copies (tensor/ops.cc).
  Tensor gates =
      tensor::Add(projected_rows, tensor::MatMul(state.h, w_hh_));  // [B, 4H]
  Tensor i = tensor::Sigmoid(tensor::Slice(gates, 1, 0, hd));
  Tensor f = tensor::Sigmoid(tensor::Slice(gates, 1, hd, hd));
  Tensor g = tensor::Tanh(tensor::Slice(gates, 1, 2 * hd, hd));
  Tensor o = tensor::Sigmoid(tensor::Slice(gates, 1, 3 * hd, hd));
  Tensor c = tensor::Add(tensor::Mul(f, state.c), tensor::Mul(i, g));
  Tensor h = tensor::Mul(o, tensor::Tanh(c));
  return {std::move(h), std::move(c)};
}

Tensor BiRnn::RunDirection(const RnnCell& cell, const Tensor& x,
                           const LaneCarry& carry, bool reverse) const {
  const int64_t lanes = x.shape().dim(0);
  const int64_t length = x.shape().dim(1);
  const int64_t input = x.shape().dim(2);
  // One hoisted GEMM for the whole batch; rows are bitwise-independent under
  // the ascending-k kernel contract, so row (b, t) matches a B=1 projection
  // of sentence b's row t exactly.
  Tensor projected = cell.ProjectInput(
      tensor::Reshape(x, Shape{lanes * length, input}));  // [B*L, G·H]
  const int64_t width = projected.shape().dim(1);
  Tensor projected3 = tensor::Reshape(projected, Shape{lanes, length, width});
  RnnState state{Tensor::Zeros(Shape{lanes, hidden_dim_}),
                 cell.has_memory() ? Tensor::Zeros(Shape{lanes, hidden_dim_})
                                   : Tensor()};
  std::vector<Tensor> states(static_cast<size_t>(length));
  for (int64_t step = 0; step < length; ++step) {
    const int64_t t = reverse ? length - 1 - step : step;
    Tensor rows =
        tensor::Reshape(tensor::Slice(projected3, 1, t, 1), Shape{lanes, width});
    RnnState next = cell.Step(rows, state);
    // Inactive lanes (padding tail; in reverse, lanes whose sentence has not
    // started yet) carry h, then c, through unchanged.
    state.h = carry.Select(t, next.h, state.h);
    if (cell.has_memory()) state.c = carry.Select(t, next.c, state.c);
    states[static_cast<size_t>(t)] =
        tensor::Reshape(state.h, Shape{lanes, 1, hidden_dim_});
  }
  return tensor::Concat(states, 1);  // [B, L, H]
}

Tensor BiRnn::ForwardBatch(const Tensor& x,
                           const std::vector<int64_t>& lengths) const {
  FEWNER_CHECK(x.rank() == 3, "BiRnn::ForwardBatch expects [B, L, input], got "
                                  << x.shape().ToString());
  FEWNER_CHECK(static_cast<int64_t>(lengths.size()) == x.shape().dim(0),
               "BiRnn::ForwardBatch lengths/batch mismatch");
  const LaneCarry carry(lengths, x.shape().dim(1));
  Tensor fwd = RunDirection(*forward_cell_, x, carry, /*reverse=*/false);
  Tensor bwd = RunDirection(*backward_cell_, x, carry, /*reverse=*/true);
  return tensor::Concat({fwd, bwd}, 2);  // [B, L, 2H]
}

}  // namespace fewner::nn
