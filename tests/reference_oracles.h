// Test-side reference oracles: one-sentence-at-a-time formulations that the
// library's batched paths are pinned against bitwise.  The library keeps only
// the batched forms.

#pragma once

#include <cstdint>
#include <vector>

#include "crf/linear_chain_crf.h"
#include "models/backbone.h"
#include "models/encoding.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "util/rng.h"
#include "util/status.h"

namespace fewner::crf {

/// One sentence's NLL as a scalar: a B=1 NegLogLikelihoodBatch over
/// emissions [L, Y].
inline tensor::Tensor SentenceNll(const LinearChainCrf& crf,
                                  const tensor::Tensor& emissions,
                                  const std::vector<int64_t>& gold,
                                  const std::vector<bool>* valid = nullptr) {
  const int64_t length = emissions.shape().dim(0);
  return tensor::Reshape(
      crf.NegLogLikelihoodBatch(
          tensor::Reshape(emissions, tensor::Shape{1, length, crf.num_tags()}), gold,
          {length}, valid),
      tensor::Shape{});
}

/// One sentence's Viterbi path: a B=1 ViterbiBatch over emissions [L, Y].
inline std::vector<int64_t> SentenceViterbi(const LinearChainCrf& crf,
                                            const tensor::Tensor& emissions,
                                            const std::vector<bool>* valid = nullptr) {
  const int64_t length = emissions.shape().dim(0);
  return crf
      .ViterbiBatch(tensor::Reshape(emissions, tensor::Shape{1, length, crf.num_tags()}),
                    {length}, valid)
      .front();
}

/// The single-sentence NLL over emissions [L, Y], built op for op from
/// tensor primitives: invalid tags crushed by a -1e7 additive mask (a zero
/// mask without `valid`), the log-space forward algorithm over [to, from]
/// scores (alpha plus a transitionsᵀ hoisted out of the time loop), and the
/// gold path scored through constant selection masks.  The library keeps only
/// the batched recursion; this is the independent reference it is pinned
/// against.  The transpose is hoisted because a per-timestep
/// Transpose(alpha column + transitions) — the textbook layout — gives the
/// same NLL but sums the transitions gradient in a different order, which
/// differs in the last bits from L = 4 on.
inline tensor::Tensor SingleSentenceNll(const tensor::Tensor& emissions,
                                        const std::vector<int64_t>& gold,
                                        const std::vector<bool>* valid,
                                        const tensor::Tensor& trans,
                                        const tensor::Tensor& start,
                                        const tensor::Tensor& end) {
  using tensor::Shape;
  using tensor::Tensor;
  const int64_t length = emissions.shape().dim(0);
  const int64_t y = emissions.shape().dim(1);
  std::vector<float> crush(static_cast<size_t>(y), 0.0f);
  for (int64_t j = 0; valid != nullptr && j < y; ++j) {
    if (!(*valid)[static_cast<size_t>(j)]) crush[static_cast<size_t>(j)] = -1e7f;
  }
  Tensor masked = tensor::Add(emissions, Tensor::FromData(Shape{y}, std::move(crush)));
  Tensor alpha = tensor::Add(tensor::Reshape(start, Shape{1, y}),
                             tensor::Slice(masked, 0, 0, 1));
  Tensor trans_by_to = tensor::Transpose(trans);  // [to, from]
  for (int64_t t = 1; t < length; ++t) {
    Tensor by_to = tensor::Add(tensor::Reshape(alpha, Shape{y}), trans_by_to);
    Tensor lse = tensor::Reshape(tensor::LogSumExpLastDim(by_to), Shape{1, y});
    alpha = tensor::Add(lse, tensor::Slice(masked, 0, t, 1));
  }
  Tensor log_z = tensor::Reshape(
      tensor::LogSumExpLastDim(tensor::Add(alpha, end)), Shape{});

  std::vector<float> emit_mask(static_cast<size_t>(length * y), 0.0f);
  for (int64_t t = 0; t < length; ++t) {
    emit_mask[static_cast<size_t>(t * y + gold[static_cast<size_t>(t)])] = 1.0f;
  }
  std::vector<float> trans_count(static_cast<size_t>(y * y), 0.0f);
  for (int64_t t = 1; t < length; ++t) {
    trans_count[static_cast<size_t>(gold[static_cast<size_t>(t - 1)] * y +
                                    gold[static_cast<size_t>(t)])] += 1.0f;
  }
  std::vector<float> start_mask(static_cast<size_t>(y), 0.0f);
  start_mask[static_cast<size_t>(gold.front())] = 1.0f;
  std::vector<float> end_mask(static_cast<size_t>(y), 0.0f);
  end_mask[static_cast<size_t>(gold.back())] = 1.0f;
  Tensor gold_score = tensor::Add(
      tensor::Add(
          tensor::SumAll(tensor::Mul(
              masked, Tensor::FromData(Shape{length, y}, std::move(emit_mask)))),
          tensor::SumAll(tensor::Mul(
              trans, Tensor::FromData(Shape{y, y}, std::move(trans_count))))),
      tensor::Add(tensor::SumAll(tensor::Mul(
                      start, Tensor::FromData(Shape{y}, std::move(start_mask)))),
                  tensor::SumAll(tensor::Mul(
                      end, Tensor::FromData(Shape{y}, std::move(end_mask))))));
  return tensor::Sub(log_z, gold_score);
}

}  // namespace fewner::crf

namespace fewner::models {

/// Opens Backbone's private stages to the oracles below.
struct BackboneTestPeer {
  static tensor::Tensor PerSentenceLoss(const Backbone& net,
                                        const std::vector<EncodedSentence>& sentences,
                                        const tensor::Tensor& phi,
                                        const std::vector<bool>& valid_tags) {
    FEWNER_CHECK(!sentences.empty(), "PerSentenceLoss on zero sentences");
    std::vector<util::Rng> lane_rngs = net.ForkLaneRngs(sentences.size());
    tensor::Tensor total;
    for (size_t i = 0; i < sentences.size(); ++i) {
      const EncodedSentence& sentence = sentences[i];
      FEWNER_CHECK(sentence.length() > 0, "PerSentenceLoss on empty sentence");
      const EncodedBatch single = PackBatch({sentence});
      const CachedPrefix prefix = net.EncodeRuns(single, &lane_rngs[i]);
      const tensor::Tensor hidden = net.SuffixRuns(prefix, phi, &lane_rngs[i]).front();
      tensor::Tensor loss = tensor::Reshape(
          net.crf_->NegLogLikelihoodBatch(net.Emissions(single, hidden), sentence.tags,
                                          {sentence.length()}, &valid_tags),
          tensor::Shape{});
      total = total.defined() ? tensor::Add(total, loss) : loss;
    }
    return total;
  }
};

/// The task loss of Backbone::BatchLoss, one B=1 batch per sentence: sentence
/// i draws dropout from the (episode, call, lane i) stream the batched call
/// hands lane i, runs the one-lane forward and a B=1 CRF NLL,
/// and the losses are summed with scalar adds in sentence order.  Bitwise
/// equal to BatchLoss(PackBatch(sentences), ...) in value; its gradients fold
/// in another order.
inline tensor::Tensor PerSentenceLoss(const Backbone& net,
                                      const std::vector<EncodedSentence>& sentences,
                                      const tensor::Tensor& phi,
                                      const std::vector<bool>& valid_tags) {
  return BackboneTestPeer::PerSentenceLoss(net, sentences, phi, valid_tags);
}

}  // namespace fewner::models
