// The shell shared by every method that meta-learns one CNN-BiGRU-CRF
// backbone θ: FEWNER, MAML, FineTune, Reptile, ProtoNet and MatchingNet.  It
// owns θ and wires a method's per-task body into the shared outer loop
// (MetaTrain over BackboneMetaBatch replicas), so each method class holds
// only its own math.

#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "meta/method.h"
#include "meta/parallel.h"
#include "models/backbone.h"
#include "util/rng.h"

namespace fewner::meta {

/// A few-shot method whose trainable state is one backbone θ.
class BackboneMethod : public FewShotMethod {
 public:
  models::Backbone* backbone() { return backbone_.get(); }

 protected:
  /// Builds θ from `config`, drawing its initial values from
  /// `rng->Fork(salt)`; each method has its own salt.
  BackboneMethod(const models::BackboneConfig& config, util::Rng* rng,
                 uint64_t salt);

  /// Meta-trains θ: MetaTrain over BackboneMetaBatch replicas of θ, running
  /// `task` for every episode and `update` (default: clipped Adam) after
  /// every meta-batch.
  void TrainTasks(const TrainConfig& config, const MetaTaskFn& task,
                  const MetaUpdateFn& update = nullptr);

  /// A task's training loss on `net` (a synced replica of θ).
  using TaskLossFn = std::function<tensor::Tensor(const models::Backbone& net,
                                                  const models::EncodedEpisode& task)>;

  /// TrainTasks with the common task body: PrepareTrainingTask, then
  /// `loss`, then its gradient w.r.t. the replica's parameters.
  void TrainOnLoss(const data::EpisodeSampler& sampler,
                   const models::EpisodeEncoder& encoder, const TrainConfig& config,
                   const TaskLossFn& loss);

 private:
  std::unique_ptr<models::Backbone> backbone_;
};

}  // namespace fewner::meta
