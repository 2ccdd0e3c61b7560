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
                                       const models::EncodedBatch& batch) {
  Tensor features = net.TokenFeatures(batch, Tensor());  // [T, D]
  Tensor norm = tensor::Sqrt(tensor::AddScalar(
      tensor::SumAxis(tensor::Square(features), 1, /*keepdim=*/true), 1e-8f));
  return tensor::Div(features, norm);
}

Tensor MatchingNet::QueryLogProbs(const models::Backbone& net,
                                  const models::EncodedEpisode& episode,
                                  models::EncodedBatch* query) const {
  const models::EncodedBatch support = models::PackBatch(episode.support);
  Tensor support_features = NormalizedFeatures(net, support);     // [S, D]
  Tensor support_labels = SupportLabels(support, net.config().max_tags);
  *query = models::PackBatch(episode.query);
  Tensor queries = NormalizedFeatures(net, *query);                // [T, D]
  Tensor cosine = tensor::MatMulNT(queries, support_features);     // [T, S]
  Tensor attention = tensor::SoftmaxLastDim(tensor::MulScalar(cosine, temperature_));
  Tensor votes = tensor::MatMul(attention, support_labels);  // rows sum to 1
  return tensor::Log(tensor::AddScalar(votes, 1e-6f));
}

Tensor MatchingNet::EpisodeLoss(const models::Backbone& net,
                                const models::EncodedEpisode& episode) const {
  models::EncodedBatch query;
  Tensor log_probs = QueryLogProbs(net, episode, &query);
  return MeanGoldNll(log_probs, query);
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
  models::EncodedBatch query;
  Tensor log_probs = QueryLogProbs(*backbone_, episode, &query);
  return ArgmaxTags(log_probs, query);
}

}  // namespace fewner::meta
