// Per-token classification pieces shared by the baselines that tag by
// classifying each token independently (ProtoNet, MatchingNet, SNAIL): the
// support label one-hots, the gold-tag NLL over a query set, and first-max
// decoding.  None of them has a CRF.  Every [T, ·] tensor here has one row per
// real token of a packed batch, lane after lane — the row order of
// models::Backbone::TokenFeatures.

#pragma once

#include <cstdint>
#include <vector>

#include "models/encoding.h"
#include "tensor/tensor.h"

namespace fewner::meta {

/// Gold tag of every real token of `batch`, lane after lane.
std::vector<int64_t> TokenTags(const models::EncodedBatch& batch);

/// One-hot tag rows [T, num_classes] for every token of `batch`.
tensor::Tensor SupportLabels(const models::EncodedBatch& batch, int64_t num_classes);

/// Mean over the tokens of `batch` of −log p(gold tag), given their
/// log-probabilities [T, num_classes].  With `class_present`, tokens whose
/// gold class is absent are skipped.
tensor::Tensor MeanGoldNll(const tensor::Tensor& log_probs,
                           const models::EncodedBatch& batch,
                           const std::vector<bool>* class_present = nullptr);

/// Tags of every sentence of `batch`: the first maximum of each row of
/// `scores` [T, num_classes], split at the lane lengths.
std::vector<std::vector<int64_t>> ArgmaxTags(const tensor::Tensor& scores,
                                             const models::EncodedBatch& batch);

}  // namespace fewner::meta
