#include "meta/matching_net.h"

#include "meta/parallel.h"
#include "meta/token_head.h"
#include "tensor/autodiff.h"
#include "tensor/ops.h"

namespace fewner::meta {

using tensor::Tensor;

MatchingNet::MatchingNet(const models::BackboneConfig& config, util::Rng* rng) {
  models::BackboneConfig plain = config;
  plain.conditioning = models::Conditioning::kNone;
  plain.context_dim = 0;
  util::Rng init_rng = rng->Fork(0x3A7Cull);
  backbone_ = std::make_unique<models::Backbone>(plain, &init_rng);
}

Tensor MatchingNet::NormalizedFeatures(const models::Backbone& net,
                                       const models::EncodedSentence& sentence) {
  Tensor features = net.Encode(sentence, Tensor());  // [L, D]
  Tensor norm = tensor::Sqrt(tensor::AddScalar(
      tensor::SumAxis(tensor::Square(features), 1, /*keepdim=*/true), 1e-8f));
  return tensor::Div(features, norm);
}

Tensor MatchingNet::QueryLogProbs(const models::Backbone& net,
                                  const models::EncodedSentence& sentence,
                                  const Tensor& support_features,
                                  const Tensor& support_labels) const {
  Tensor queries = NormalizedFeatures(net, sentence);  // [L, D]
  Tensor cosine = tensor::MatMulNT(queries, support_features);  // [L, S·L]
  Tensor attention = tensor::SoftmaxLastDim(tensor::MulScalar(cosine, temperature_));
  Tensor votes = tensor::MatMul(attention, support_labels);  // rows sum to 1
  return tensor::Log(tensor::AddScalar(votes, 1e-6f));
}

void MatchingNet::BuildSupport(const models::Backbone& net,
                               const std::vector<models::EncodedSentence>& support,
                               Tensor* features, Tensor* labels) {
  std::vector<Tensor> feature_blocks;
  for (const auto& sentence : support) {
    feature_blocks.push_back(NormalizedFeatures(net, sentence));
  }
  *features = tensor::Concat(feature_blocks, 0);
  *labels = SupportLabels(support, net.config().max_tags);
}

Tensor MatchingNet::EpisodeLoss(const models::Backbone& net,
                                const models::EncodedEpisode& episode) const {
  Tensor features, labels;
  BuildSupport(net, episode.support, &features, &labels);
  return MeanGoldNll(episode.query, net.config().max_tags,
                     [&](const models::EncodedSentence& sentence) {
                       return QueryLogProbs(net, sentence, features, labels);
                     });
}

void MatchingNet::Train(const data::EpisodeSampler& sampler,
                        const models::EpisodeEncoder& encoder,
                        const TrainConfig& config) {
  MetaTrain(
      name(), backbone_.get(), BackboneMetaBatch(config.num_threads, backbone_.get()),
      config,
      [&](uint64_t episode_id, nn::Module* model,
          const std::vector<Tensor>& replica_params,
          std::vector<Tensor>* grads) -> double {
        auto* net = static_cast<models::Backbone*>(model);
        Tensor loss = EpisodeLoss(
            *net, PrepareTrainingTask(sampler, encoder, config, episode_id, net));
        *grads = tensor::autodiff::Grad(loss, replica_params);
        return loss.item();
      });
}

std::vector<std::vector<int64_t>> MatchingNet::AdaptAndPredict(
    const models::EncodedEpisode& episode) {
  backbone_->SetTraining(false);
  Tensor features, labels;
  BuildSupport(*backbone_, episode.support, &features, &labels);
  return ArgmaxTags(episode.query, [&](const models::EncodedSentence& sentence) {
    return QueryLogProbs(*backbone_, sentence, features, labels);
  });
}

}  // namespace fewner::meta
