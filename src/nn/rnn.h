// Recurrent context encoders: the GRU cell of the paper's CNN-BiGRU-CRF
// backbone (Fig. 3), the LSTM cell of the classic BiLSTM-CRF (Ma & Hovy 2016,
// cited in the paper's survey §2.1; ablated in bench/ablation_encoder), and
// the one bidirectional layer that runs either cell over padded batches.

#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "nn/module.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace fewner::nn {

/// Lane activity of a padded batch over time: lane b is active at step t iff
/// t < lengths[b].  The one lane carry of every masked time loop (BiRnn's
/// recurrence and the CRF's α recursion): finished (or, in reverse, not yet
/// started) lanes carry their state through unchanged.  Where copies the
/// selected operand, so the carry is exact — active lanes see precisely a
/// B=1 recurrence.
class LaneCarry {
 public:
  LaneCarry(const std::vector<int64_t>& lengths, int64_t max_len);

  /// `next` on the lanes active at step t, `old` on the rest.  Steps with
  /// every lane active return `next` without a select.
  tensor::Tensor Select(int64_t t, const tensor::Tensor& next,
                        const tensor::Tensor& old) const;

 private:
  std::vector<tensor::Tensor> masks_;  ///< [B, 1] per step; undefined if full
  std::vector<bool> full_;
};

/// One direction's recurrent state, h first: (h) for the GRU, (h, c) for the
/// LSTM.  `c` stays undefined for cells without a memory cell.
struct RnnState {
  tensor::Tensor h;
  tensor::Tensor c{};
};

/// The cell interface BiRnn's time loop runs.  The base draws and registers
/// w_ih [input, G·H] and w_hh [H, G·H] in that order; the derived cell then
/// registers its biases, the first of which is the input-side bias.
class RnnCell : public Module {
 public:
  /// Projects inputs at once: [N, input] -> [N, G·H].  Hoisting this matmul
  /// out of the recurrence is the standard optimization.
  tensor::Tensor ProjectInput(const tensor::Tensor& x) const;

  /// One step from pre-projected rows [B, G·H] and the state ([B, H] each).
  /// Every op inside is per-row, so lane b of a batched step is bitwise-equal
  /// to a B=1 step on that lane alone.
  virtual RnnState Step(const tensor::Tensor& projected_rows,
                        const RnnState& state) const = 0;

  bool has_memory() const { return has_memory_; }

 protected:
  RnnCell(int64_t input_dim, int64_t hidden_dim, int64_t gates, bool has_memory,
          util::Rng* rng);

  int64_t input_dim_;
  int64_t hidden_dim_;
  bool has_memory_;
  tensor::Tensor w_ih_;        ///< [input, G·H]
  tensor::Tensor w_hh_;        ///< [H, G·H]
  tensor::Tensor input_bias_;  ///< [G·H], added by ProjectInput
};

/// GRU cell with PyTorch gate conventions (r, z, n):
///   r = σ(x W_ir + h W_hr + b_r)
///   z = σ(x W_iz + h W_hz + b_z)
///   n = tanh(x W_in + r ⊙ (h W_hn) + b_n)
///   h' = (1 - z) ⊙ n + z ⊙ h
/// Parameters: w_ih, w_hh (gate order r|z|n), b_ih, b_hh.
class GruCell : public RnnCell {
 public:
  GruCell(int64_t input_dim, int64_t hidden_dim, util::Rng* rng);
  RnnState Step(const tensor::Tensor& projected_rows,
                const RnnState& state) const override;

 private:
  tensor::Tensor b_hh_;  ///< [3H]
};

/// LSTM cell with standard gate conventions (i, f, g, o):
///   i = σ(x W_i + h U_i + b_i)       f = σ(x W_f + h U_f + b_f)
///   g = tanh(x W_g + h U_g + b_g)    o = σ(x W_o + h U_o + b_o)
///   c' = f ⊙ c + i ⊙ g               h' = o ⊙ tanh(c')
/// Parameters: w_ih, w_hh (gate order i|f|g|o), bias, whose forget slice
/// initializes to 1 (standard trick).
class LstmCell : public RnnCell {
 public:
  LstmCell(int64_t input_dim, int64_t hidden_dim, util::Rng* rng);
  RnnState Step(const tensor::Tensor& projected_rows,
                const RnnState& state) const override;
};

/// Bidirectional recurrent layer over padded sentences: a forward and a
/// backward cell of one kind, run by one masked time loop, their hidden
/// states concatenated per token.
class BiRnn : public Module {
 public:
  /// Builds the forward cell, then the backward cell, each as
  /// Cell(input_dim, hidden_dim, rng); e.g. std::in_place_type<GruCell>.
  template <typename Cell>
  BiRnn(std::in_place_type_t<Cell>, int64_t input_dim, int64_t hidden_dim,
        util::Rng* rng)
      : hidden_dim_(hidden_dim) {
    forward_cell_ = std::make_unique<Cell>(input_dim, hidden_dim, rng);
    backward_cell_ = std::make_unique<Cell>(input_dim, hidden_dim, rng);
    RegisterModule("forward", forward_cell_.get());
    RegisterModule("backward", backward_cell_.get());
  }

  /// Batched time loop over padded lanes: [B, L, input] -> [B, L, 2H], one
  /// GEMM per timestep per direction over all B lanes, state carried by a
  /// LaneCarry, so lane b's real positions are bitwise-equal to a B=1 pass
  /// on that sentence.
  tensor::Tensor ForwardBatch(const tensor::Tensor& x,
                              const std::vector<int64_t>& lengths) const;

  int64_t output_dim() const { return 2 * hidden_dim_; }

 private:
  /// Runs one direction; `reverse` processes the sequence back to front.
  tensor::Tensor RunDirection(const RnnCell& cell, const tensor::Tensor& x,
                              const LaneCarry& carry, bool reverse) const;

  int64_t hidden_dim_;
  std::unique_ptr<RnnCell> forward_cell_;
  std::unique_ptr<RnnCell> backward_cell_;
};

}  // namespace fewner::nn
