#include "meta/reptile.h"

#include "meta/finetune.h"

namespace fewner::meta {

using tensor::Tensor;

Reptile::Reptile(const models::BackboneConfig& config, util::Rng* rng)
    : BackboneMethod(models::WithoutContext(config), rng, 0x4E97ull) {}

void Reptile::Fit(const data::EpisodeSampler& sampler,
                  const models::EpisodeEncoder& encoder, const TrainConfig& config) {
  // ε: the meta step toward adapted weights.  Reuses meta_lr scaled up since
  // Reptile's update is a convex interpolation, not an Adam-preconditioned one.
  const float epsilon = config.meta_lr * 25.0f;
  const std::vector<Tensor> theta = nn::ParameterTensors(backbone());
  TrainTasks(
      config,
      [&](uint64_t episode_id, nn::Module* model,
          const std::vector<Tensor>& replica_params,
          std::vector<Tensor>* grads) -> double {
        auto* net = static_cast<models::Backbone*>(model);
        models::EncodedEpisode enc =
            PrepareTrainingTask(sampler, encoder, config, episode_id, net);
        const models::EncodedBatch support = models::PackBatch(enc.support);
        const double loss =
            SgdOnSupport(net, config.inner_steps_train, config.inner_lr, [&] {
              return net->BatchLoss(support, Tensor(), enc.valid_tags);
            });
        // The task's contribution is its parameter delta θ'_task − θ, reduced
        // like a (pseudo-)gradient.  The inner SGD mutated the replica's
        // leaves in place, so `replica_params` now reads the adapted values
        // while `theta` still holds the master's.
        grads->reserve(replica_params.size());
        for (size_t i = 0; i < replica_params.size(); ++i) {
          const auto& a = replica_params[i].data();
          const auto& b = theta[i].data();
          std::vector<float> delta(a.size());
          for (size_t j = 0; j < a.size(); ++j) delta[j] = a[j] - b[j];
          grads->push_back(Tensor::FromData(replica_params[i].shape(), std::move(delta)));
        }
        return loss;
      },
      // Batched Reptile step: θ ← θ + ε · mean_task(θ'_task − θ).
      [&](const std::vector<Tensor>& deltas) {
        std::vector<Tensor*> slots = backbone()->Parameters();
        for (size_t i = 0; i < slots.size(); ++i) {
          std::vector<float>* values = slots[i]->mutable_data();
          const auto& d = deltas[i].data();
          for (size_t j = 0; j < values->size(); ++j) (*values)[j] += epsilon * d[j];
        }
      });
}

std::vector<std::vector<int64_t>> Reptile::AdaptAndPredict(
    const models::EncodedEpisode& episode) {
  return FineTuneAndDecode(backbone(), episode, test_inner_steps(), inner_lr());
}

}  // namespace fewner::meta
