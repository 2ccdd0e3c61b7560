#include "meta/token_head.h"

#include <numeric>

#include "tensor/ops.h"
#include "util/status.h"

namespace fewner::meta {

using tensor::Shape;
using tensor::Tensor;

std::vector<int64_t> TokenTags(const models::EncodedBatch& batch) {
  std::vector<int64_t> tags;
  for (int64_t b = 0; b < batch.batch; ++b) {
    const auto lane = batch.tags.begin() + b * batch.max_len;
    tags.insert(tags.end(), lane, lane + batch.lengths[static_cast<size_t>(b)]);
  }
  return tags;
}

Tensor SupportLabels(const models::EncodedBatch& batch, int64_t num_classes) {
  const std::vector<int64_t> tags = TokenTags(batch);
  const auto total = static_cast<int64_t>(tags.size());
  std::vector<float> onehot(static_cast<size_t>(total * num_classes), 0.0f);
  for (int64_t row = 0; row < total; ++row) {
    onehot[static_cast<size_t>(row * num_classes + tags[static_cast<size_t>(row)])] =
        1.0f;
  }
  return Tensor::FromData(Shape{total, num_classes}, std::move(onehot));
}

Tensor MeanGoldNll(const Tensor& log_probs, const models::EncodedBatch& batch,
                   const std::vector<bool>* class_present) {
  const std::vector<int64_t> tags = TokenTags(batch);
  const auto total = static_cast<int64_t>(tags.size());
  const int64_t num_classes = log_probs.shape().dim(1);
  FEWNER_CHECK(log_probs.shape().dim(0) == total,
               "log_probs has " << log_probs.shape().dim(0) << " rows for "
                                << total << " tokens");
  std::vector<float> select(static_cast<size_t>(total * num_classes), 0.0f);
  int64_t used = 0;
  for (int64_t row = 0; row < total; ++row) {
    const int64_t gold = tags[static_cast<size_t>(row)];
    if (class_present != nullptr && !(*class_present)[static_cast<size_t>(gold)]) {
      continue;
    }
    select[static_cast<size_t>(row * num_classes + gold)] = 1.0f;
    ++used;
  }
  FEWNER_CHECK(used > 0, "episode with no usable query tokens");
  Tensor total_nll = tensor::Neg(tensor::SumAll(tensor::Mul(
      log_probs, Tensor::FromData(Shape{total, num_classes}, std::move(select)))));
  return tensor::MulScalar(total_nll, 1.0f / static_cast<float>(used));
}

std::vector<std::vector<int64_t>> ArgmaxTags(const Tensor& scores,
                                             const models::EncodedBatch& batch) {
  const int64_t num_classes = scores.shape().dim(1);
  FEWNER_CHECK(scores.shape().dim(0) ==
                   std::accumulate(batch.lengths.begin(), batch.lengths.end(),
                                   int64_t{0}),
               "scores rows do not match the batch's tokens");
  const float* row = scores.data().data();
  std::vector<std::vector<int64_t>> predictions;
  predictions.reserve(static_cast<size_t>(batch.batch));
  for (int64_t length : batch.lengths) {
    std::vector<int64_t> tags(static_cast<size_t>(length));
    for (int64_t t = 0; t < length; ++t, row += num_classes) {
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
