#include "meta/fewner.h"

#include <cmath>
#include <functional>
#include <utility>

#include "meta/adapted_tagger.h"
#include "tensor/autodiff.h"
#include "tensor/eval_mode.h"
#include "tensor/ops.h"

namespace fewner::meta {

using tensor::Tensor;

std::vector<Tensor> ClippedDescent(
    std::vector<Tensor> params, int64_t steps, float lr, bool create_graph,
    const std::function<Tensor(const std::vector<Tensor>&)>& loss) {
  for (int64_t k = 0; k < steps; ++k) {
    // FEWNER's Eq. 5 takes the gradient w.r.t. the previous φ only — θ stays
    // fixed, but with create_graph the inner gradient keeps its dependence on
    // θ, which is what the outer update differentiates through.
    std::vector<Tensor> grads =
        tensor::autodiff::Grad(loss(params), params, create_graph);
    // Detached global-norm cap: the summed task loss can otherwise produce
    // destabilizing inner steps.
    double norm_sq = 0.0;
    for (const Tensor& g : grads) {
      for (float v : g.data()) norm_sq += static_cast<double>(v) * v;
    }
    const float norm = static_cast<float>(std::sqrt(norm_sq));
    const float clip_scale = norm > 5.0f ? 5.0f / norm : 1.0f;
    for (size_t i = 0; i < params.size(); ++i) {
      params[i] = tensor::Sub(params[i], tensor::MulScalar(grads[i], lr * clip_scale));
      if (!create_graph) {
        // Cheap test-time path: re-leaf so graphs do not accumulate.
        Tensor leaf = params[i].Detach();
        leaf.set_requires_grad(true);
        params[i] = leaf;
      }
    }
  }
  return params;
}

namespace {

/// `config`, once its context conditioning is checked (before θ is built).
const models::BackboneConfig& CheckedContext(const models::BackboneConfig& config) {
  FEWNER_CHECK(config.conditioning != models::Conditioning::kNone,
               "FEWNER requires context-parameter conditioning");
  FEWNER_CHECK(config.context_dim > 0, "FEWNER requires context_dim > 0");
  return config;
}

}  // namespace

Fewner::Fewner(const models::BackboneConfig& config, util::Rng* rng)
    : BackboneMethod(CheckedContext(config), rng, 0x1417ull) {}

Tensor Fewner::AdaptOnPrefix(const models::Backbone& net,
                             const models::CachedPrefix& prefix,
                             const std::vector<bool>& valid_tags, int64_t steps,
                             float inner_lr, bool create_graph, Tensor phi) {
  if (!phi.defined()) phi = net.ZeroContext();
  return ClippedDescent({std::move(phi)}, steps, inner_lr, create_graph,
                        [&](const std::vector<Tensor>& p) {
                          return net.BatchLossFromPrefix(prefix, p[0], valid_tags);
                        })[0];
}

Tensor Fewner::AdaptContextOn(const models::Backbone& net,
                              const std::vector<models::EncodedSentence>& support,
                              const std::vector<bool>& valid_tags, int64_t steps,
                              float inner_lr, bool create_graph) {
  // φ starts at zero for every task (paper §3.2.4), and the support set is
  // packed once for all steps.
  const models::EncodedBatch packed = models::PackBatch(support);
  Tensor phi = net.ZeroContext();
  if (steps <= 0) return phi;
  if (net.CanCachePrefix()) {
    // θ is constant within a task, so the dropout-free θ-head runs once and
    // every inner step pays only the φ-suffix.
    models::CachedPrefix prefix;
    if (create_graph) {
      // Meta-training: the prefix is one shared autodiff subgraph every
      // inner-step loss (and, through the φ chain, the query loss) hangs off;
      // Grad's deterministic fan-in sums their contributions at the shared
      // nodes, and the φ-gradients themselves never traverse it (needed-set
      // pruning stops where φ stops being reachable).
      prefix = net.EncodePrefix(packed);
    } else {
      // Test time: build the prefix graph-free on the workspace arena; the
      // escaped feature tensors pin their nodes for as long as the prefix
      // lives, so the graph-mode suffix may consume them as constants.
      tensor::EvalMode eval;
      prefix = net.EncodePrefix(packed);
    }
    return AdaptOnPrefix(net, prefix, valid_tags, steps, inner_lr, create_graph,
                         std::move(phi));
  }
  // Training-mode dropout: masks are keyed per (episode, call, lane) and
  // legitimately differ between steps, so each step re-runs the full forward.
  return ClippedDescent({std::move(phi)}, steps, inner_lr, create_graph,
                        [&](const std::vector<Tensor>& p) {
                          return net.BatchLoss(packed, p[0], valid_tags);
                        })[0];
}

void Fewner::Fit(const data::EpisodeSampler& sampler,
                 const models::EpisodeEncoder& encoder, const TrainConfig& config) {
  TrainOnLoss(sampler, encoder, config,
              [&](const models::Backbone& net, const models::EncodedEpisode& task) {
                Tensor phi = AdaptContextOn(net, task.support, task.valid_tags,
                                            config.inner_steps_train, config.inner_lr,
                                            /*create_graph=*/!config.first_order);
                // Eq. 6: the query loss, whose θ-gradient runs through the
                // inner updates (second order).
                return net.BatchLoss(models::PackBatch(task.query), phi,
                                     task.valid_tags);
              });
}

std::vector<std::vector<int64_t>> Fewner::AdaptAndPredict(
    const models::EncodedEpisode& episode) {
  // θ_Meta stays fixed; only φ adapts (Algorithm 1, adapting procedure).
  // The snapshot adapts in graph mode once, then decodes every query sentence
  // on the graph-free eval path.
  AdaptedTagger tagger(this, episode);
  return tagger.TagAll(episode.query);
}

}  // namespace fewner::meta
