#include "meta/protonet.h"

#include "meta/token_head.h"
#include "tensor/ops.h"

namespace fewner::meta {

using tensor::Shape;
using tensor::Tensor;

ProtoNet::ProtoNet(const models::BackboneConfig& config, util::Rng* rng)
    : BackboneMethod(models::WithoutContext(config), rng, 0x9207ull) {}

Tensor ProtoNet::BuildPrototypes(const models::Backbone& net,
                                 const models::EncodedBatch& support,
                                 std::vector<bool>* class_present) {
  const int64_t num_classes = net.config().max_tags;
  Tensor all = net.TokenFeatures(support, Tensor());  // [T, D]
  const std::vector<int64_t> tags = TokenTags(support);
  const auto total = static_cast<int64_t>(tags.size());

  std::vector<int64_t> counts(static_cast<size_t>(num_classes), 0);
  for (int64_t tag : tags) ++counts[static_cast<size_t>(tag)];
  class_present->assign(static_cast<size_t>(num_classes), false);

  // Averaging matrix M [C, T]: row c has 1/count_c at the positions of class c
  // — a constant, so prototypes stay differentiable w.r.t. the encoder.
  std::vector<float> m(static_cast<size_t>(num_classes * total), 0.0f);
  for (int64_t t = 0; t < total; ++t) {
    const int64_t c = tags[static_cast<size_t>(t)];
    (*class_present)[static_cast<size_t>(c)] = true;
    m[static_cast<size_t>(c * total + t)] =
        1.0f / static_cast<float>(counts[static_cast<size_t>(c)]);
  }
  return tensor::MatMul(Tensor::FromData(Shape{num_classes, total}, std::move(m)),
                        all);  // [C, D]
}

Tensor ProtoNet::TokenLogits(const models::Backbone& net,
                             const models::EncodedBatch& query,
                             const Tensor& prototypes,
                             const std::vector<bool>& class_present) {
  const int64_t num_classes = net.config().max_tags;
  Tensor q = net.TokenFeatures(query, Tensor());  // [T, D]
  // -||q - p||^2 = -(||q||^2 - 2 q·p + ||p||^2)
  Tensor q_sq = tensor::SumAxis(tensor::Square(q), 1, /*keepdim=*/true);  // [T, 1]
  Tensor p_sq = tensor::Reshape(
      tensor::SumAxis(tensor::Square(prototypes), 1, /*keepdim=*/false),
      Shape{1, num_classes});                                             // [1, C]
  Tensor cross = tensor::MatMulNT(q, prototypes);                         // [T, C]
  Tensor logits = tensor::Neg(
      tensor::Add(tensor::Sub(q_sq, tensor::MulScalar(cross, 2.0f)), p_sq));
  // Classes absent from the support set cannot be predicted.
  std::vector<float> mask(static_cast<size_t>(num_classes), 0.0f);
  for (int64_t c = 0; c < num_classes; ++c) {
    if (!class_present[static_cast<size_t>(c)]) mask[static_cast<size_t>(c)] = -1e7f;
  }
  return tensor::Add(logits, Tensor::FromData(Shape{num_classes}, std::move(mask)));
}

Tensor ProtoNet::EpisodeLoss(const models::Backbone& net,
                             const models::EncodedEpisode& episode) {
  std::vector<bool> class_present;
  Tensor prototypes =
      BuildPrototypes(net, models::PackBatch(episode.support), &class_present);
  const models::EncodedBatch query = models::PackBatch(episode.query);
  // Tokens whose gold class has no prototype are skipped.
  return MeanGoldNll(tensor::LogSoftmaxLastDim(
                         TokenLogits(net, query, prototypes, class_present)),
                     query, &class_present);
}

void ProtoNet::Fit(const data::EpisodeSampler& sampler,
                   const models::EpisodeEncoder& encoder, const TrainConfig& config) {
  TrainOnLoss(sampler, encoder, config, EpisodeLoss);
}

std::vector<std::vector<int64_t>> ProtoNet::AdaptAndPredict(
    const models::EncodedEpisode& episode) {
  backbone()->SetTraining(false);
  std::vector<bool> class_present;
  Tensor prototypes =
      BuildPrototypes(*backbone(), models::PackBatch(episode.support), &class_present);
  const models::EncodedBatch query = models::PackBatch(episode.query);
  return ArgmaxTags(TokenLogits(*backbone(), query, prototypes, class_present), query);
}

}  // namespace fewner::meta
