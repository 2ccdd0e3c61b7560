// FineTune baseline (paper §4.1.2): the CNN-BiGRU-CRF backbone trained
// conventionally on the support sets of training tasks, with no adaptation
// strategy beyond plain fine-tuning on a test task's support set.  This is the
// floor every meta-learning method is compared against.

#pragma once

#include <functional>
#include <vector>

#include "meta/backbone_method.h"
#include "models/backbone.h"
#include "nn/module.h"
#include "util/rng.h"

namespace fewner::meta {

/// Runs `steps` SGD steps of size `lr` on `module`'s parameters in place,
/// each on the gradient of `loss()` clipped to global norm 5 (callers
/// snapshot/restore as needed); returns the last step's loss.  The
/// support-set fine-tuning of FineTune, Reptile and the LM-CRF baselines.
double SgdOnSupport(nn::Module* module, int64_t steps, float lr,
                    const std::function<tensor::Tensor()>& loss);

/// Test-time fine-tuning, shared by FineTune and Reptile: SgdOnSupport on the
/// episode's support set, decode its query set, restore `net`'s parameters.
std::vector<std::vector<int64_t>> FineTuneAndDecode(
    models::Backbone* net, const models::EncodedEpisode& episode, int64_t steps,
    float lr);

/// Conventional train-then-fine-tune baseline.
class FineTune : public BackboneMethod {
 public:
  FineTune(const models::BackboneConfig& config, util::Rng* rng);

  std::string name() const override { return "FineTune"; }

  std::vector<std::vector<int64_t>> AdaptAndPredict(
      const models::EncodedEpisode& episode) override;

 private:
  void Fit(const data::EpisodeSampler& sampler, const models::EpisodeEncoder& encoder,
           const TrainConfig& config) override;
};

}  // namespace fewner::meta
