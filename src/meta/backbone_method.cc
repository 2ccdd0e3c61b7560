#include "meta/backbone_method.h"

#include "tensor/autodiff.h"

namespace fewner::meta {

using tensor::Tensor;

BackboneMethod::BackboneMethod(const models::BackboneConfig& config, util::Rng* rng,
                               uint64_t salt) {
  util::Rng init_rng = rng->Fork(salt);
  backbone_ = std::make_unique<models::Backbone>(config, &init_rng);
}

void BackboneMethod::TrainTasks(const TrainConfig& config, const MetaTaskFn& task,
                                const MetaUpdateFn& update) {
  MetaTrain(name(), backbone_.get(),
            BackboneMetaBatch(config.num_threads, backbone_.get()), config, task,
            update);
}

void BackboneMethod::TrainOnLoss(const data::EpisodeSampler& sampler,
                                 const models::EpisodeEncoder& encoder,
                                 const TrainConfig& config, const TaskLossFn& loss) {
  TrainTasks(config, [&](uint64_t episode_id, nn::Module* model,
                         const std::vector<Tensor>& replica_params,
                         std::vector<Tensor>* grads) -> double {
    auto* net = static_cast<models::Backbone*>(model);
    // Each task backpropagates separately; summed gradients equal the
    // gradient of the summed loss, at a fraction of the peak memory.
    const models::EncodedEpisode task =
        PrepareTrainingTask(sampler, encoder, config, episode_id, net);
    Tensor value = loss(*net, task);
    *grads = tensor::autodiff::Grad(value, replica_params);
    return value.item();
  });
}

}  // namespace fewner::meta
