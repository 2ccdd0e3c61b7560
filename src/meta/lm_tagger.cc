#include "meta/lm_tagger.h"

#include "meta/finetune.h"
#include "meta/parallel.h"
#include "nn/optim.h"
#include "tensor/autodiff.h"
#include "tensor/ops.h"

namespace fewner::meta {

using tensor::Tensor;

LmCrfTagger::Head::Head(int64_t feature_dim, int64_t max_tags, util::Rng* rng) {
  emission = std::make_unique<nn::Linear>(feature_dim, max_tags, rng);
  crf = std::make_unique<crf::LinearChainCrf>(max_tags);
  RegisterModule("emission", emission.get());
  RegisterModule("crf", crf.get());
}

LmCrfTagger::LmCrfTagger(std::shared_ptr<models::PretrainedLmEncoder> encoder,
                         int64_t max_tags, util::Rng* rng)
    : encoder_(std::move(encoder)),
      head_(encoder_->feature_dim(), max_tags, rng) {}

Tensor LmCrfTagger::Features(const models::EncodedSentence& sentence) {
  FEWNER_CHECK(sentence.source != nullptr, "LM features need the source sentence");
  auto it = feature_cache_.find(sentence.source);
  if (it != feature_cache_.end()) return it->second;
  // Detach(): the LM stays frozen; only the head sees gradients.
  Tensor features = encoder_->Encode(sentence).Detach();
  feature_cache_.emplace(sentence.source, features);
  return features;
}

Tensor LmCrfTagger::Emissions(const std::vector<models::EncodedSentence>& sentences,
                              models::EncodedBatch* batch) {
  *batch = models::PackBatch(sentences);
  // One emission GEMM over every real token, lane after lane, scattered to
  // the padded [B, Lmax] slots; padding rows stay zero.
  std::vector<Tensor> features;
  std::vector<int64_t> slots;
  for (int64_t b = 0; b < batch->batch; ++b) {
    features.push_back(Features(sentences[static_cast<size_t>(b)]));
    for (int64_t t = 0; t < batch->lengths[static_cast<size_t>(b)]; ++t) {
      slots.push_back(b * batch->max_len + t);
    }
  }
  Tensor rows = head_.emission->Forward(tensor::Concat(features, 0));
  return tensor::Reshape(
      tensor::ScatterAddRows(rows, slots, batch->flat_size()),
      tensor::Shape{batch->batch, batch->max_len, head_.crf->num_tags()});
}

Tensor LmCrfTagger::BatchLoss(const std::vector<models::EncodedSentence>& sentences,
                              const std::vector<bool>& valid_tags) {
  models::EncodedBatch batch;
  Tensor emissions = Emissions(sentences, &batch);
  Tensor nll = head_.crf->NegLogLikelihoodBatch(emissions, batch.tags, batch.lengths,
                                                &valid_tags);
  // SumAllFloat folds the lanes with scalar float adds in sentence order.
  return tensor::MulScalar(tensor::SumAllFloat(nll),
                           1.0f / static_cast<float>(sentences.size()));
}

void LmCrfTagger::Fit(const data::EpisodeSampler& sampler,
                      const models::EpisodeEncoder& encoder, const TrainConfig& config) {
  nn::Adam optimizer(head_.Parameters(), config.meta_lr, 0.9f, 0.999f, 1e-8f,
                     config.weight_decay);
  // The same iterations × meta_batch episodes as MetaTrain, but one Adam step
  // per episode; the decay rule, callback and log follow MetaTrain's.
  for (int64_t it = 0; it < config.iterations; ++it) {
    double loss_sum = 0.0;
    for (int64_t t = 0; t < config.meta_batch; ++t) {
      const int64_t seen = it * config.meta_batch + t + 1;
      const models::EncodedEpisode enc = PrepareTrainingTask(
          sampler, encoder, config, static_cast<uint64_t>(seen - 1), nullptr);
      Tensor loss = BatchLoss(enc.support, enc.valid_tags);
      std::vector<Tensor> grads =
          tensor::autodiff::Grad(loss, nn::ParameterTensors(&head_));
      nn::ClipGradNorm(&grads, config.grad_clip);
      optimizer.Step(grads);
      if (CrossesLrDecayBoundary(config, seen, 1)) optimizer.DecayLr(config.lr_decay);
      loss_sum += loss.item();
    }
    FinishIteration(name(), config, it,
                    loss_sum / static_cast<double>(config.meta_batch));
  }
}

std::vector<std::vector<int64_t>> LmCrfTagger::AdaptAndPredict(
    const models::EncodedEpisode& episode) {
  // Fine-tune only the CRF stack on the support set; restore afterwards.
  std::vector<std::vector<float>> snapshot = nn::SnapshotParameterValues(&head_);
  SgdOnSupport(&head_, test_inner_steps(), inner_lr(),
               [&] { return BatchLoss(episode.support, episode.valid_tags); });
  models::EncodedBatch query;
  Tensor emissions = Emissions(episode.query, &query);
  std::vector<std::vector<int64_t>> predictions =
      head_.crf->ViterbiBatch(emissions, query.lengths, &episode.valid_tags);
  nn::RestoreParameterValues(&head_, snapshot);
  return predictions;
}

}  // namespace fewner::meta
