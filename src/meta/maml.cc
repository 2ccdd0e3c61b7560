#include "meta/maml.h"

#include "meta/fewner.h"
#include "tensor/autodiff.h"

namespace fewner::meta {

using tensor::Tensor;

Maml::Maml(const models::BackboneConfig& config, util::Rng* rng)
    : BackboneMethod(models::WithoutContext(config), rng, 0x3A31ull) {}

std::vector<Tensor> Maml::InnerAdaptOn(
    models::Backbone* net, const std::vector<models::EncodedSentence>& support,
    const std::vector<bool>& valid_tags, int64_t steps, float inner_lr,
    bool create_graph) {
  std::vector<Tensor*> slots = net->Parameters();
  // Packed once; every inner step runs the batch-first forward.  Full-network
  // inner steps on the paper's summed task loss are large; the descent's
  // global-norm cap keeps a single step from blowing up the whole backbone.
  const models::EncodedBatch packed = models::PackBatch(support);
  return ClippedDescent(nn::ParameterTensors(net), steps, inner_lr, create_graph,
                        [&](const std::vector<Tensor>& current) {
                          nn::ParameterPatch patch(slots, current);
                          return net->BatchLoss(packed, Tensor(), valid_tags);
                        });
}

void Maml::Fit(const data::EpisodeSampler& sampler,
               const models::EpisodeEncoder& encoder, const TrainConfig& config) {
  TrainTasks(
      config,
      [&](uint64_t episode_id, nn::Module* model,
          const std::vector<Tensor>& replica_params,
          std::vector<Tensor>* grads) -> double {
        auto* net = static_cast<models::Backbone*>(model);
        models::EncodedEpisode enc =
            PrepareTrainingTask(sampler, encoder, config, episode_id, net);
        std::vector<Tensor> adapted =
            InnerAdaptOn(net, enc.support, enc.valid_tags, config.inner_steps_train,
                         config.inner_lr, /*create_graph=*/!config.first_order);
        Tensor query_loss;
        {
          nn::ParameterPatch patch(net->Parameters(), adapted);
          query_loss = net->BatchLoss(models::PackBatch(enc.query), Tensor(),
                                      enc.valid_tags);
        }
        // Eq. 3: meta-gradient w.r.t. the original parameters (the replica's
        // own leaves), flowing through the full-network inner updates;
        // per-task backward bounds peak memory.  In first-order mode the
        // inner updates are detached, so the FOMAML gradient is taken at the
        // adapted parameters and applied to the originals (identical layouts).
        *grads = tensor::autodiff::Grad(
            query_loss, config.first_order ? adapted : replica_params);
        return query_loss.item();
      });
}

std::vector<std::vector<int64_t>> Maml::AdaptAndPredict(
    const models::EncodedEpisode& episode) {
  models::Backbone* net = backbone();
  net->SetTraining(false);
  std::vector<Tensor> adapted =
      InnerAdaptOn(net, episode.support, episode.valid_tags, test_inner_steps(),
                   inner_lr(), /*create_graph=*/false);
  nn::ParameterPatch patch(net->Parameters(), adapted);
  if (episode.query.empty()) return {};
  return net->DecodeBatch(models::PackBatch(episode.query), Tensor(),
                          episode.valid_tags);
}

}  // namespace fewner::meta
