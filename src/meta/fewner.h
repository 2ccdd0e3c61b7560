// FEWNER (paper §3.2, Algorithm 1): meta-learning with task-specific context
// parameters.
//
// The CNN-BiGRU-CRF backbone θ is task-independent and meta-learned across
// tasks; a low-dimensional context vector φ is (re)learned from zero inside
// every task by a few steps of gradient descent on the support loss, and
// conditions the backbone through FiLM (method B) or input concatenation
// (method A).  The outer update differentiates the query loss through the
// inner updates — a genuine second-order gradient w.r.t. θ — while test-time
// adaptation touches only φ and needs no second-order computation at all.

#pragma once

#include <functional>
#include <vector>

#include "meta/backbone_method.h"
#include "models/backbone.h"
#include "util/rng.h"

namespace fewner::meta {

/// The inner-loop descent FEWNER runs on {φ} (Eq. 5) and MAML on every
/// backbone parameter (Eq. 1): `steps` times, p ← p − lr·s·∂loss/∂p for each
/// tensor of `params`, where the detached factor s = min(1, 5/‖g‖) caps the
/// global gradient norm at the paper's clip of 5.0.  With `create_graph` the
/// results stay differentiable w.r.t. whatever `loss` depends on; without
/// it, every step re-leafs its results so graphs do not accumulate.
std::vector<tensor::Tensor> ClippedDescent(
    std::vector<tensor::Tensor> params, int64_t steps, float lr, bool create_graph,
    const std::function<tensor::Tensor(const std::vector<tensor::Tensor>&)>& loss);

/// The paper's approach.
class Fewner : public BackboneMethod {
 public:
  /// `config.conditioning` must be kFilm or kConcat, with context_dim > 0.
  Fewner(const models::BackboneConfig& config, util::Rng* rng);

  std::string name() const override { return "FewNER"; }

  std::vector<std::vector<int64_t>> AdaptAndPredict(
      const models::EncodedEpisode& episode) override;

  /// Inner loop (Eq. 5): runs `steps` gradient steps on φ starting from zero,
  /// against `net` (θ, or a per-worker replica of it in the episode-parallel
  /// trainer).  With `create_graph` the returned φ_k stays differentiable
  /// w.r.t. θ.  When the backbone is in the dropout-free regime (test time,
  /// or training with dropout == 0) the θ-prefix over the support set is
  /// computed once and every step runs the φ-suffix only; otherwise it falls
  /// back to per-step forwards, since per-(episode, call, lane) dropout masks
  /// legitimately differ per step.
  static tensor::Tensor AdaptContextOn(
      const models::Backbone& net,
      const std::vector<models::EncodedSentence>& support,
      const std::vector<bool>& valid_tags, int64_t steps, float inner_lr,
      bool create_graph);

  /// Inner loop over an already-encoded support prefix.  Starts from `phi`
  /// (ZeroContext() when undefined), so a caller holding a prefix can also
  /// *continue* a previous descent — AdaptedTagger::ReAdapt does exactly
  /// that.  The prefix must be current (see Backbone::CheckPrefix).
  static tensor::Tensor AdaptOnPrefix(const models::Backbone& net,
                                      const models::CachedPrefix& prefix,
                                      const std::vector<bool>& valid_tags,
                                      int64_t steps, float inner_lr,
                                      bool create_graph,
                                      tensor::Tensor phi = tensor::Tensor());

 private:
  void Fit(const data::EpisodeSampler& sampler, const models::EpisodeEncoder& encoder,
           const TrainConfig& config) override;
};

}  // namespace fewner::meta
