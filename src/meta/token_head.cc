#include "meta/token_head.h"

#include "tensor/ops.h"
#include "util/status.h"

namespace fewner::meta {

using tensor::Shape;
using tensor::Tensor;

Tensor SupportLabels(const std::vector<models::EncodedSentence>& support,
                     int64_t num_classes) {
  int64_t total = 0;
  for (const auto& sentence : support) total += static_cast<int64_t>(sentence.tags.size());
  std::vector<float> onehot(static_cast<size_t>(total * num_classes), 0.0f);
  int64_t row = 0;
  for (const auto& sentence : support) {
    for (int64_t tag : sentence.tags) {
      onehot[static_cast<size_t>(row++ * num_classes + tag)] = 1.0f;
    }
  }
  return Tensor::FromData(Shape{total, num_classes}, std::move(onehot));
}

Tensor MeanGoldNll(const std::vector<models::EncodedSentence>& query,
                   int64_t num_classes, const TokenScoreFn& log_probs,
                   const std::vector<bool>* class_present) {
  Tensor total;
  int64_t tokens = 0;
  for (const auto& sentence : query) {
    Tensor logp = log_probs(sentence);
    const int64_t length = sentence.length();
    std::vector<float> select(static_cast<size_t>(length * num_classes), 0.0f);
    int64_t used = 0;
    for (int64_t t = 0; t < length; ++t) {
      const int64_t gold = sentence.tags[static_cast<size_t>(t)];
      if (class_present != nullptr && !(*class_present)[static_cast<size_t>(gold)]) {
        continue;
      }
      select[static_cast<size_t>(t * num_classes + gold)] = 1.0f;
      ++used;
    }
    if (used == 0) continue;
    Tensor loss = tensor::Neg(tensor::SumAll(tensor::Mul(
        logp, Tensor::FromData(Shape{length, num_classes}, std::move(select)))));
    total = total.defined() ? tensor::Add(total, loss) : loss;
    tokens += used;
  }
  FEWNER_CHECK(total.defined(), "episode with no usable query tokens");
  return tensor::MulScalar(total, 1.0f / static_cast<float>(tokens));
}

std::vector<std::vector<int64_t>> ArgmaxTags(
    const std::vector<models::EncodedSentence>& query, const TokenScoreFn& scores) {
  std::vector<std::vector<int64_t>> predictions;
  predictions.reserve(query.size());
  for (const auto& sentence : query) {
    const Tensor s = scores(sentence);
    const int64_t length = s.shape().dim(0);
    const int64_t num_classes = s.shape().dim(1);
    const auto& values = s.data();
    std::vector<int64_t> tags(static_cast<size_t>(length));
    for (int64_t t = 0; t < length; ++t) {
      const float* row = values.data() + t * num_classes;
      int64_t best = 0;
      for (int64_t c = 1; c < num_classes; ++c) {
        if (row[c] > row[best]) best = c;
      }
      tags[static_cast<size_t>(t)] = best;
    }
    predictions.push_back(std::move(tags));
  }
  return predictions;
}

}  // namespace fewner::meta
