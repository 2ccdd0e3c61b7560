// Per-token classification pieces shared by the baselines that tag by
// classifying each token independently (ProtoNet, MatchingNet, SNAIL): the
// support label one-hots, the gold-tag NLL over a query set, and first-max
// decoding.  None of them has a CRF.

#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "models/encoding.h"
#include "tensor/tensor.h"

namespace fewner::meta {

/// Per-sentence [L, num_classes] scores or log-probabilities.
using TokenScoreFn = std::function<tensor::Tensor(const models::EncodedSentence&)>;

/// One-hot tag rows [T, num_classes] for every support token, sentence by
/// sentence (the row order of the concatenated support features).
tensor::Tensor SupportLabels(const std::vector<models::EncodedSentence>& support,
                             int64_t num_classes);

/// Mean over query tokens of −log p(gold tag), with `log_probs` giving each
/// sentence's [L, num_classes] log-probabilities.  With `class_present`,
/// tokens whose gold class is absent are skipped (a sentence left with none
/// adds nothing).
tensor::Tensor MeanGoldNll(const std::vector<models::EncodedSentence>& query,
                           int64_t num_classes, const TokenScoreFn& log_probs,
                           const std::vector<bool>* class_present = nullptr);

/// Tags of every query sentence: the first maximum of each row of `scores`.
std::vector<std::vector<int64_t>> ArgmaxTags(
    const std::vector<models::EncodedSentence>& query, const TokenScoreFn& scores);

}  // namespace fewner::meta
