// Linear-chain conditional random field (paper Eq. 4): models the label
// sequence jointly with learned transition scores on top of per-token emission
// scores.  The negative log-likelihood is fully differentiable (forward
// algorithm in log space), so the meta-gradient flows through it; decoding
// uses Viterbi.
//
// Episodes may use a subset of the tag inventory (an N-way task with N smaller
// than the trained maximum), so both the loss and the decoder accept a
// validity mask that excludes unused tags from the partition function and from
// the decoded paths.

#pragma once

#include <cstdint>
#include <vector>

#include "nn/module.h"
#include "tensor/tensor.h"

namespace fewner::crf {

/// Linear-chain CRF over a fixed tag inventory.
class LinearChainCrf : public nn::Module {
 public:
  explicit LinearChainCrf(int64_t num_tags);

  /// Negative log-likelihood per lane of padded emissions [B, Lmax, num_tags]
  /// and lane-major gold tags (`tags.size() == B * Lmax`, padding ignored): a
  /// [B] tensor whose lane b is bitwise-equal to the NLL of that lane's
  /// [lengths[b], num_tags] slice alone (one sentence is B=1).  Tags marked
  /// invalid in `valid_tags` (num_tags entries, when non-null) are excluded
  /// from the partition function.  The masked log-space forward runs one
  /// batched step per timestep, finished lanes carrying alpha through
  /// nn::LaneCarry (an exact Where select); the gold score sums per lane in
  /// SumAll's order.
  tensor::Tensor NegLogLikelihoodBatch(const tensor::Tensor& emissions,
                                       const std::vector<int64_t>& tags,
                                       const std::vector<int64_t>& lengths,
                                       const std::vector<bool>* valid_tags =
                                           nullptr) const;

  /// Highest-scoring tag sequence of every lane of padded emissions [B, Lmax,
  /// num_tags]: lane b is decoded from its first lengths[b] rows alone, so
  /// its path does not depend on the other lanes or on the padding.
  std::vector<std::vector<int64_t>> ViterbiBatch(
      const tensor::Tensor& emissions, const std::vector<int64_t>& lengths,
      const std::vector<bool>* valid_tags = nullptr) const;

  int64_t num_tags() const { return num_tags_; }

 private:
  /// Additive [num_tags] mask: 0 for valid tags, a large negative otherwise.
  tensor::Tensor ValidityMask(const std::vector<bool>* valid_tags) const;

  /// The max-product float recurrence: decodes one sentence from a raw
  /// [length, num_tags] emission block.
  std::vector<int64_t> ViterbiCore(const float* emit, int64_t length,
                                   const std::vector<bool>* valid_tags) const;

  int64_t num_tags_;
  tensor::Tensor transitions_;  ///< [from, to]
  tensor::Tensor start_;        ///< [num_tags] score of starting in a tag
  tensor::Tensor end_;          ///< [num_tags] score of ending in a tag
};

}  // namespace fewner::crf
