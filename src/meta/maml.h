// MAML baseline (Finn et al. 2017, paper §2.2): model-agnostic meta-learning
// over the full CNN-BiGRU-CRF backbone.  Unlike FEWNER there is no
// task-specific/ task-independent split — the inner loop updates the ENTIRE
// network, and the outer loop therefore needs second-order gradients with
// respect to every parameter (which is what makes MAML slower and more prone
// to few-shot overfitting; see the paper's Fig. 1 discussion).

#pragma once

#include <vector>

#include "meta/backbone_method.h"
#include "models/backbone.h"
#include "util/rng.h"

namespace fewner::meta {

/// Full-network optimization-based meta-learner.
class Maml : public BackboneMethod {
 public:
  /// `config.conditioning` is forced to kNone (MAML has no context params).
  Maml(const models::BackboneConfig& config, util::Rng* rng);

  std::string name() const override { return "MAML"; }

  std::vector<std::vector<int64_t>> AdaptAndPredict(
      const models::EncodedEpisode& episode) override;

  /// Inner loop over all parameters of `net` (θ, or a per-worker replica of
  /// it in the episode-parallel trainer, whose ParameterPatch slot swaps stay
  /// confined to that replica); returns θ' (Eq. 1).  With `create_graph` the
  /// adapted parameters remain differentiable w.r.t. the originals.
  static std::vector<tensor::Tensor> InnerAdaptOn(
      models::Backbone* net, const std::vector<models::EncodedSentence>& support,
      const std::vector<bool>& valid_tags, int64_t steps, float inner_lr,
      bool create_graph);

 private:
  void Fit(const data::EpisodeSampler& sampler, const models::EpisodeEncoder& encoder,
           const TrainConfig& config) override;
};

}  // namespace fewner::meta
