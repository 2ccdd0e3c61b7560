#include "meta/finetune.h"

#include "nn/optim.h"
#include "tensor/autodiff.h"

namespace fewner::meta {

using tensor::Tensor;

FineTune::FineTune(const models::BackboneConfig& config, util::Rng* rng)
    : BackboneMethod(models::WithoutContext(config), rng, 0xF17Eull) {}

double SgdOnSupport(nn::Module* module, int64_t steps, float lr,
                    const std::function<Tensor()>& loss) {
  nn::Sgd sgd(module->Parameters(), lr);
  double last_loss = 0.0;
  // The parameter snapshot is loop-invariant: Sgd::Step writes values in
  // place, so the handles keep aliasing the live leaves across steps.
  const std::vector<Tensor> params = nn::ParameterTensors(module);
  for (int64_t k = 0; k < steps; ++k) {
    Tensor value = loss();
    std::vector<Tensor> grads = tensor::autodiff::Grad(value, params);
    nn::ClipGradNorm(&grads, 5.0f);
    sgd.Step(grads);
    last_loss = value.item();
  }
  return last_loss;
}

std::vector<std::vector<int64_t>> FineTuneAndDecode(
    models::Backbone* net, const models::EncodedEpisode& episode, int64_t steps,
    float lr) {
  net->SetTraining(false);
  std::vector<std::vector<float>> snapshot = nn::SnapshotParameterValues(net);
  // Packed once; every SGD step runs the batch-first forward.
  const models::EncodedBatch support = models::PackBatch(episode.support);
  SgdOnSupport(net, steps, lr,
               [&] { return net->BatchLoss(support, Tensor(), episode.valid_tags); });
  std::vector<std::vector<int64_t>> predictions;
  if (!episode.query.empty()) {
    predictions =
        net->DecodeBatch(models::PackBatch(episode.query), Tensor(), episode.valid_tags);
  }
  nn::RestoreParameterValues(net, snapshot);
  return predictions;
}

void FineTune::Fit(const data::EpisodeSampler& sampler,
                   const models::EpisodeEncoder& encoder, const TrainConfig& config) {
  // Conventional supervised training: each training task's support set is one
  // mini-batch element; a meta-batch of support losses is averaged into one
  // update (no inner/outer split, no query usage).
  TrainOnLoss(sampler, encoder, config,
              [](const models::Backbone& net, const models::EncodedEpisode& task) {
                return net.BatchLoss(models::PackBatch(task.support), Tensor(),
                                     task.valid_tags);
              });
}

std::vector<std::vector<int64_t>> FineTune::AdaptAndPredict(
    const models::EncodedEpisode& episode) {
  // Fine-tune the whole network on the support set, then restore, so
  // evaluation episodes stay independent.
  return FineTuneAndDecode(backbone(), episode, test_inner_steps(), inner_lr());
}

}  // namespace fewner::meta
