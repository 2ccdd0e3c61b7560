#include "meta/matching_net.h"

#include "meta/token_head.h"
#include "tensor/ops.h"

namespace fewner::meta {

using tensor::Tensor;

MatchingNet::MatchingNet(const models::BackboneConfig& config, util::Rng* rng)
    : BackboneMethod(models::WithoutContext(config), rng, 0x3A7Cull) {}

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

void MatchingNet::Fit(const data::EpisodeSampler& sampler,
                      const models::EpisodeEncoder& encoder, const TrainConfig& config) {
  TrainOnLoss(sampler, encoder, config,
              [this](const models::Backbone& net, const models::EncodedEpisode& task) {
                return EpisodeLoss(net, task);
              });
}

std::vector<std::vector<int64_t>> MatchingNet::AdaptAndPredict(
    const models::EncodedEpisode& episode) {
  backbone()->SetTraining(false);
  models::EncodedBatch query;
  Tensor log_probs = QueryLogProbs(*backbone(), episode, &query);
  return ArgmaxTags(log_probs, query);
}

}  // namespace fewner::meta
