// ProtoNet baseline (Snell et al. 2017 adapted to tokens, paper §4.1.2):
// sequence labeling as per-token classification in a learned metric space.
// Class prototypes are the mean encoder features of support tokens carrying
// each BIO tag; query tokens are classified by (negative squared) distance to
// the prototypes.  There is no CRF and no gradient-based adaptation — the
// adaptation is entirely the recomputation of prototypes.

#pragma once

#include "meta/backbone_method.h"
#include "models/backbone.h"
#include "util/rng.h"

namespace fewner::meta {

/// Token-level prototypical network.
class ProtoNet : public BackboneMethod {
 public:
  ProtoNet(const models::BackboneConfig& config, util::Rng* rng);

  std::string name() const override { return "ProtoNet"; }

  std::vector<std::vector<int64_t>> AdaptAndPredict(
      const models::EncodedEpisode& episode) override;

 private:
  void Fit(const data::EpisodeSampler& sampler, const models::EpisodeEncoder& encoder,
           const TrainConfig& config) override;

  // The forward helpers take the backbone explicitly so the episode-parallel
  // trainer can run them against per-worker replicas.

  /// Episode loss: cross-entropy of query tokens against prototype distances.
  static tensor::Tensor EpisodeLoss(const models::Backbone& net,
                                    const models::EncodedEpisode& episode);

  /// Per-token logits [T, max_tags] for every query token given prototypes
  /// [max_tags, D] and a present-class mask.
  static tensor::Tensor TokenLogits(const models::Backbone& net,
                                    const models::EncodedBatch& query,
                                    const tensor::Tensor& prototypes,
                                    const std::vector<bool>& class_present);

  /// Builds prototypes from the features of every support token;
  /// `class_present` marks classes with at least one support token.
  static tensor::Tensor BuildPrototypes(const models::Backbone& net,
                                        const models::EncodedBatch& support,
                                        std::vector<bool>* class_present);
};

}  // namespace fewner::meta
