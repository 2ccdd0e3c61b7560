#include "nn/char_cnn.h"

#include <algorithm>
#include <numeric>
#include <string>
#include <tuple>

#include "tensor/ops.h"

namespace fewner::nn {

using tensor::Shape;
using tensor::Tensor;

CharCnn::CharCnn(const CharCnnConfig& config, util::Rng* rng) : config_(config) {
  FEWNER_CHECK(config.char_vocab_size > 0, "CharCnn requires a character vocabulary");
  FEWNER_CHECK(!config.filter_widths.empty(), "CharCnn requires filter widths");
  for (int64_t w : config.filter_widths) max_width_ = std::max(max_width_, w);
  char_embedding_ =
      std::make_unique<Embedding>(config.char_vocab_size, config.char_dim, rng);
  RegisterModule("char_embedding", char_embedding_.get());
  for (size_t i = 0; i < config.filter_widths.size(); ++i) {
    const int64_t width = config.filter_widths[i];
    filters_.push_back(std::make_unique<Linear>(width * config.char_dim,
                                                config.filters_per_width, rng));
    RegisterModule("filter_w" + std::to_string(width), filters_[i].get());
  }
}

int64_t CharCnn::output_dim() const {
  return static_cast<int64_t>(config_.filter_widths.size()) *
         config_.filters_per_width;
}

Tensor CharCnn::ForwardBatch(const std::vector<std::vector<int64_t>>& chars) const {
  FEWNER_CHECK(!chars.empty(), "CharCnn::ForwardBatch on empty batch");
  // A one-word call convolves over the word zero-padded to max(|word|,
  // widest filter).  Sorting the tokens by (that length, ids) puts equal words
  // side by side and equal padded lengths in contiguous buckets.
  auto padded = [&](size_t tok) {
    return std::max(static_cast<int64_t>(chars[tok].size()), max_width_);
  };
  std::vector<size_t> order(chars.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    const int64_t ta = padded(a), tb = padded(b);
    return std::tie(ta, chars[a]) < std::tie(tb, chars[b]);
  });

  // Per bucket: one gather of its distinct words, then one
  // Unfold→Linear→ReLU→max per filter width.  No window crosses a word's
  // padded end, so each row is bitwise-equal to a one-word call.
  std::vector<int64_t> row_of(chars.size());  // token → distinct-word row
  std::vector<Tensor> buckets;
  int64_t rows = 0;
  for (size_t i = 0; i < order.size();) {
    const int64_t t = padded(order[i]);
    std::vector<int64_t> ids;  // the bucket's distinct words, each padded to t
    for (; i < order.size() && padded(order[i]) == t; ++i) {
      const auto& word = chars[order[i]];
      if (ids.empty() || word != chars[order[i - 1]]) {
        ids.insert(ids.end(), word.begin(), word.end());
        ids.resize(ids.size() + static_cast<size_t>(t) - word.size(), 0);
        ++rows;
      }
      row_of[order[i]] = rows - 1;
    }
    const auto n = static_cast<int64_t>(ids.size()) / t;
    Tensor embedded = tensor::Reshape(char_embedding_->Forward(ids),
                                      Shape{n, t, config_.char_dim});
    std::vector<Tensor> pooled;
    for (size_t f = 0; f < filters_.size(); ++f) {
      const int64_t width = config_.filter_widths[f];
      const int64_t m = t - width + 1;
      Tensor windows = tensor::UnfoldTimeBatch(embedded, width);  // [n, m, w*D]
      Tensor conv = tensor::Relu(filters_[f]->Forward(
          tensor::Reshape(windows, Shape{n * m, width * config_.char_dim})));
      pooled.push_back(tensor::MaxAxis(
          tensor::Reshape(conv, Shape{n, m, config_.filters_per_width}), 1,
          /*keepdim=*/false));  // [n, F]
    }
    buckets.push_back(tensor::Concat(pooled, 1));  // [n, output_dim]
  }
  Tensor words = buckets.size() == 1 ? buckets.front() : tensor::Concat(buckets, 0);
  return tensor::IndexSelectRows(words, row_of);  // [chars.size(), output_dim]
}

}  // namespace fewner::nn
