// CNN-BiGRU-CRF sequence-labeling backbone (paper Fig. 3) with optional
// context-parameter conditioning (paper §3.2.4).
//
// The backbone owns all task-independent parameters θ.  The task context φ is
// *not* a parameter of this module: forward methods take it as an explicit
// tensor so the FEWNER inner loop can thread freshly adapted φ_k values
// through the network functionally (keeping the meta-graph differentiable).

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "crf/linear_chain_crf.h"
#include "models/encoding.h"
#include "nn/char_cnn.h"
#include "nn/layers.h"
#include "nn/module.h"
#include "nn/rnn.h"
#include "util/rng.h"

namespace fewner::models {

/// Where/how φ conditions the backbone (paper Fig. 4).
enum class Conditioning {
  kNone,    ///< baselines without context parameters
  kConcat,  ///< method A: concatenate φ to each token's BiGRU input
  kFilm,    ///< method B (default): FiLM on the BiGRU output
};

/// Context-encoder choice.  The paper picks BiGRU for its cost/quality
/// trade-off (§3.2.2); BiLSTM is the classic alternative and is ablated in
/// bench/ablation_encoder.
enum class EncoderKind {
  kBiGru,
  kBiLstm,
};

/// Hyper-parameters of the backbone.  Defaults are the CPU-scale profile; the
/// paper-scale values are noted inline.
struct BackboneConfig {
  int64_t word_vocab_size = 0;
  int64_t char_vocab_size = 0;
  int64_t word_dim = 32;             ///< paper: 300 (GloVe)
  int64_t char_dim = 12;             ///< paper: 100
  std::vector<int64_t> filter_widths = {2, 3, 4};
  int64_t filters_per_width = 8;     ///< paper: 50 (150 total)
  int64_t hidden_dim = 48;           ///< paper: 128
  EncoderKind encoder = EncoderKind::kBiGru;
  int64_t max_tags = 11;             ///< 2 * max_way + 1
  int64_t context_dim = 96;          ///< |φ|; paper: 256 (= 2x hidden there)
  Conditioning conditioning = Conditioning::kFilm;
  float dropout = 0.3f;              ///< paper: 0.3
  bool use_char_cnn = true;          ///< ablation: remove character CNN
  /// Optional pre-computed word vectors (the GloVe stand-in; see
  /// text::HashEmbeddings).  Must outlive construction; the table remains
  /// trainable afterwards, as the paper fine-tunes GloVe.
  const std::vector<std::vector<float>>* pretrained_word_vectors = nullptr;
};

/// `config` without context parameters (kNone, context_dim 0): the backbone
/// of every baseline.
inline BackboneConfig WithoutContext(BackboneConfig config) {
  config.conditioning = Conditioning::kNone;
  config.context_dim = 0;
  return config;
}

/// θ-only encoder features for one batch, computed once and reused across
/// every φ a task tries (paper §3.2.4: adaptation touches only φ, so the
/// pre-conditioning pipeline is constant within a task).  The split point
/// depends on where φ enters: after the BiGRU for kFilm (features are the
/// [.., 2H] hidden states), after the token concat for kConcat (features are
/// the [.., word+char] inputs the BiGRU has not yet seen), and after the
/// BiGRU for kNone (the suffix is emission+CRF only).
///
/// Each run holds the prefix stage's output for one run of the LaneRuns
/// partition.  It is also the first half of every forward: the uncached entry
/// points build one for their batch and run the suffix over it, exactly as
/// the cached entry points do, so both give bitwise-identical results.
///
/// A prefix is pinned to the θ that produced it via `param_version`; every
/// consumer re-derives the backbone's current version and aborts on mismatch,
/// making stale-cache use impossible rather than merely discouraged.
struct CachedPrefix {
  struct Run {
    EncodedBatch batch;       ///< this run's lanes, padded to the run max
    tensor::Tensor features;  ///< [count, run_max_len, D] θ-only features
  };
  std::vector<Run> runs;      ///< contiguous, ascending lane order
  int64_t batch = 0;          ///< total lanes across all runs
  int64_t max_len = 0;        ///< longest lane (EmissionsFromPrefix pads to it)
  Conditioning conditioning = Conditioning::kNone;
  uint64_t param_version = 0; ///< Backbone::ParameterVersion() at build time
  /// Inside an uncached forward over a one-run batch, the caller's batch,
  /// read in place of a copy in runs[0]; null in every EncodePrefix result.
  const EncodedBatch* source = nullptr;

  bool defined() const { return !runs.empty(); }
  /// Run r's lanes.
  const EncodedBatch& lanes(size_t r) const {
    return source != nullptr ? *source : runs[r].batch;
  }
};

/// The θ network: input representation + context encoder + tag decoder.
class Backbone : public nn::Module {
 public:
  Backbone(const BackboneConfig& config, util::Rng* rng);

  /// Context-encoded features of every real token, [T, 2H] with T =
  /// Σ lengths: lane 0's rows, then lane 1's, and so on, padding dropped.
  /// The same staged forward and per-lane (episode, call, lane) dropout
  /// streams as BatchLoss, stopping before the emission linear; φ must be
  /// defined iff the conditioning mode uses it.  The encoder entry of the
  /// token classifiers (ProtoNet, MatchingNet, SNAIL).
  tensor::Tensor TokenFeatures(const EncodedBatch& batch,
                               const tensor::Tensor& phi) const;

  /// Summed NLL over the batch's sentences (the task loss L_T of Eq. 5/6;
  /// the paper defines L = -Σ p(y|h), and the inner learning rate is
  /// calibrated against a sum, not a mean): one batched forward + one
  /// batched CRF NLL over all lanes, folded in lane order with
  /// left-associated scalar adds.  Second-order meta-gradients flow through
  /// it like any other op chain.
  tensor::Tensor BatchLoss(const EncodedBatch& batch, const tensor::Tensor& phi,
                           const std::vector<bool>& valid_tags) const;

  /// Batched Viterbi decode: one batched forward, then per-lane decoding of
  /// each lane's real prefix.
  std::vector<std::vector<int64_t>> DecodeBatch(
      const EncodedBatch& batch, const tensor::Tensor& phi,
      const std::vector<bool>& valid_tags) const;

  /// Whether the θ-prefix may be computed once and reused: true when the
  /// prefix draws no dropout (inference mode or dropout == 0).  In training
  /// mode with dropout on, masks are keyed per (episode, call, lane) and
  /// legitimately differ between inner steps, so a shared prefix would change
  /// the model being trained — callers must fall back to per-step forwards.
  bool CanCachePrefix() const;

  /// Order-sensitive fingerprint of every parameter slot's (node id, mutation
  /// version).  Changes whenever θ may have changed: in-place optimizer steps
  /// bump the node version, slot replacement (ParameterPatch, fresh leaves)
  /// swaps in a new node id.  Cheap enough to recompute on every cached call.
  uint64_t ParameterVersion() const;

  /// Runs the prefix stage once over `batch`, bucketed exactly like BatchLoss.
  /// Aborts unless CanCachePrefix() — a cached prefix must be dropout-free.
  /// Graph-mode callers get a differentiable shared subgraph (the
  /// create_graph meta-training regime); EvalMode callers get arena-backed
  /// constants that stay valid as long as the CachedPrefix holds them.
  CachedPrefix EncodePrefix(const EncodedBatch& batch) const;

  /// Task loss from a cached prefix — bitwise-equal to BatchLoss(batch, ...)
  /// in the cacheable regime (identical suffix ops on identical values; the
  /// dropout layers are identities there).
  tensor::Tensor BatchLossFromPrefix(const CachedPrefix& prefix,
                                     const tensor::Tensor& phi,
                                     const std::vector<bool>& valid_tags) const;

  /// Batched emission scores [B, Lmax, max_tags] from a cached prefix.  Lane
  /// b's first lengths[b] rows are bitwise-equal to the emissions of that
  /// sentence alone; padding rows are zero.
  tensor::Tensor EmissionsFromPrefix(const CachedPrefix& prefix,
                                     const tensor::Tensor& phi) const;

  /// Batched Viterbi decode from a cached prefix — identical tags to
  /// DecodeBatch.  The serving fast path for AdaptedTagger under EvalMode.
  std::vector<std::vector<int64_t>> DecodeBatchFromPrefix(
      const CachedPrefix& prefix, const tensor::Tensor& phi,
      const std::vector<bool>& valid_tags) const;

  /// Fresh zero context vector (requires_grad, ready for inner-loop descent).
  /// Undefined tensor when conditioning is kNone.
  tensor::Tensor ZeroContext() const;

  const BackboneConfig& config() const { return config_; }
  nn::Embedding* word_embedding() { return word_embedding_.get(); }
  crf::LinearChainCrf* crf() { return crf_.get(); }

  /// Token input dimension fed to the BiGRU (word + char [+ φ for kConcat]).
  int64_t token_input_dim() const;

  /// Re-forks the dropout stream as a pure function of (dropout base, stream),
  /// independent of draws already made.  The episode-parallel trainer calls
  /// this with the episode id before each task so dropout masks do not depend
  /// on task execution order or thread count.
  void ReseedDropout(uint64_t stream);

  /// Dropout base generator — the seed material ReseedDropout forks from.
  /// Copying it onto a replica (set_dropout_base) makes the replica's dropout
  /// streams identical to the master's for equal stream ids.
  const util::Rng& dropout_base() const { return dropout_base_; }
  void set_dropout_base(const util::Rng& base) { dropout_base_ = base; }

 private:
  /// Prefix stage over one run: embeddings + CharCNN + input lane dropout,
  /// then the encoder RNN for kFilm/kNone.  θ-only; for kConcat it stops at
  /// the token features, since φ joins the RNN input.  Lane b of the run
  /// draws from lane_rngs[b].
  tensor::Tensor PrefixStage(const EncodedBatch& run, util::Rng* lane_rngs) const;

  /// Suffix stage over one run's prefix features: kConcat's φ-concat + RNN,
  /// then FiLM, then hidden lane dropout.  Returns [count, run_max_len, 2H].
  tensor::Tensor SuffixStage(const EncodedBatch& run, const tensor::Tensor& features,
                             const tensor::Tensor& phi, util::Rng* lane_rngs) const;

  /// The first half of every forward: the prefix stage over each run of
  /// `batch`'s LaneRuns partition, in ascending lane order; lane b draws from
  /// lane_rngs[b].  No cacheability check and no version stamp: the result
  /// may only outlive the call through EncodePrefix.
  CachedPrefix EncodeRuns(const EncodedBatch& batch, util::Rng* lane_rngs) const;

  /// The second half: the suffix stage over each run of `prefix`, one
  /// [count, run_max_len, 2H] tensor per run; lane b draws from lane_rngs[b].
  std::vector<tensor::Tensor> SuffixRuns(const CachedPrefix& prefix,
                                         const tensor::Tensor& phi,
                                         util::Rng* lane_rngs) const;

  /// Emission scores [count, run_max_len, max_tags] of one run's suffix
  /// output.
  tensor::Tensor Emissions(const EncodedBatch& run, const tensor::Tensor& hidden) const;

  /// Task-loss and Viterbi heads over SuffixRuns' output, shared by the
  /// uncached and cached entry points.
  tensor::Tensor RunsLoss(const CachedPrefix& prefix,
                          const std::vector<tensor::Tensor>& hidden,
                          const std::vector<bool>& valid_tags) const;
  std::vector<std::vector<int64_t>> RunsDecode(
      const CachedPrefix& prefix, const std::vector<tensor::Tensor>& hidden,
      const std::vector<bool>& valid_tags) const;

  /// Aborts when `prefix` is stale (θ changed since EncodePrefix), was built
  /// for a different conditioning mode, or the backbone left the cacheable
  /// regime.
  void CheckPrefix(const CachedPrefix& prefix) const;

  /// Length-masked inverted dropout over [B, Lmax, D]: lane b's real
  /// elements (rows t < lengths[b]) each take one Bernoulli(p) draw from
  /// lane_rngs[b], in flat row-major order, and are kept scaled by 1/(1-p)
  /// or zeroed; padding rows get a 0 mask (dropped) without consuming draws,
  /// so a lane's draws do not depend on the padded width.
  tensor::Tensor LaneDropout(const tensor::Tensor& x, const EncodedBatch& batch,
                             util::Rng* lane_rngs) const;

  /// Forks the per-lane dropout streams for the next BatchLoss-style call:
  /// stream id (call_index << 32) | lane, under the episode fork.  Advancing
  /// the call counter decorrelates successive inner steps (and the query
  /// pass) while staying a pure function of (episode id, call index, lane).
  std::vector<util::Rng> ForkLaneRngs(size_t lanes) const;

  /// Test-side oracles run the private stages one sentence at a time.
  friend struct BackboneTestPeer;

  BackboneConfig config_;
  std::unique_ptr<nn::Embedding> word_embedding_;
  std::unique_ptr<nn::CharCnn> char_cnn_;
  std::unique_ptr<nn::BiRnn> encoder_;  ///< registered as "bigru" or "bilstm"
  std::unique_ptr<nn::FilmGenerator> film_;
  std::unique_ptr<nn::Linear> emission_;
  std::unique_ptr<crf::LinearChainCrf> crf_;
  util::Rng dropout_base_;
  mutable util::Rng dropout_episode_;  ///< episode fork; lane streams hang off it
  mutable uint64_t dropout_call_ = 0;  ///< ForkLaneRngs calls since ReseedDropout
};

}  // namespace fewner::models
