// Tests for the linear-chain CRF: NLL against brute-force enumeration,
// Viterbi optimality, tag masking, and gradient checks.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "crf/linear_chain_crf.h"
#include "nn/module.h"
#include "reference_oracles.h"
#include "tensor/autodiff.h"
#include "tensor/ops.h"
#include "util/rng.h"

namespace fewner::crf {
namespace {

using tensor::Shape;
using tensor::Tensor;

/// Brute-force score of a tag path under the CRF's current parameters.
double PathScore(const LinearChainCrf& crf, const Tensor& emissions,
                 const std::vector<int64_t>& path) {
  auto params = const_cast<LinearChainCrf&>(crf).Parameters();
  const auto& trans = params[0]->data();
  const auto& start = params[1]->data();
  const auto& end = params[2]->data();
  const int64_t y = crf.num_tags();
  double score = start[static_cast<size_t>(path.front())] +
                 end[static_cast<size_t>(path.back())];
  for (size_t t = 0; t < path.size(); ++t) {
    score += emissions.at(static_cast<int64_t>(t) * y + path[t]);
    if (t > 0) score += trans[static_cast<size_t>(path[t - 1] * y + path[t])];
  }
  return score;
}

/// Enumerates all |Y|^L paths (valid-tag-filtered).
std::vector<std::vector<int64_t>> AllPaths(int64_t num_tags, int64_t length,
                                           const std::vector<bool>* valid) {
  std::vector<std::vector<int64_t>> paths;
  std::vector<int64_t> current(static_cast<size_t>(length), 0);
  for (;;) {
    bool ok = true;
    if (valid != nullptr) {
      for (int64_t tag : current) ok = ok && (*valid)[static_cast<size_t>(tag)];
    }
    if (ok) paths.push_back(current);
    int64_t pos = length - 1;
    while (pos >= 0) {
      if (++current[static_cast<size_t>(pos)] < num_tags) break;
      current[static_cast<size_t>(pos)] = 0;
      --pos;
    }
    if (pos < 0) break;
  }
  return paths;
}

class CrfTest : public ::testing::Test {
 protected:
  void SetUp() override {
    crf_ = std::make_unique<LinearChainCrf>(3);
    util::Rng rng(99);
    // Randomize parameters so the test is not trivially symmetric.
    for (tensor::Tensor* p : crf_->Parameters()) {
      for (float& v : *p->mutable_data()) {
        v = static_cast<float>(rng.Gaussian(0.0, 0.7));
      }
    }
    emissions_ = Tensor::Randn(Shape{4, 3}, &rng, 1.0f, /*requires_grad=*/true);
  }

  std::unique_ptr<LinearChainCrf> crf_;
  Tensor emissions_;
};

TEST_F(CrfTest, NllMatchesBruteForce) {
  const std::vector<int64_t> gold = {0, 2, 1, 2};
  Tensor nll = SentenceNll(*crf_, emissions_, gold);

  double log_z = -1e30;
  for (const auto& path : AllPaths(3, 4, nullptr)) {
    const double s = PathScore(*crf_, emissions_, path);
    log_z = std::max(log_z, s) +
            std::log1p(std::exp(std::min(log_z, s) - std::max(log_z, s)));
  }
  const double expected = log_z - PathScore(*crf_, emissions_, gold);
  EXPECT_NEAR(nll.item(), expected, 1e-3);
}

TEST_F(CrfTest, NllIsNonNegative) {
  for (const auto& path : AllPaths(3, 4, nullptr)) {
    Tensor nll = SentenceNll(*crf_, emissions_, path);
    EXPECT_GE(nll.item(), -1e-4);
  }
}

TEST_F(CrfTest, ViterbiIsArgmaxPath) {
  std::vector<int64_t> decoded = SentenceViterbi(*crf_, emissions_);
  double best = -1e30;
  std::vector<int64_t> best_path;
  for (const auto& path : AllPaths(3, 4, nullptr)) {
    const double s = PathScore(*crf_, emissions_, path);
    if (s > best) {
      best = s;
      best_path = path;
    }
  }
  EXPECT_EQ(decoded, best_path);
}

TEST_F(CrfTest, MaskedNllMatchesRestrictedBruteForce) {
  const std::vector<bool> valid = {true, false, true};  // tag 1 excluded
  const std::vector<int64_t> gold = {0, 2, 0, 2};
  Tensor nll = SentenceNll(*crf_, emissions_, gold, &valid);

  double log_z = -1e30;
  for (const auto& path : AllPaths(3, 4, &valid)) {
    const double s = PathScore(*crf_, emissions_, path);
    log_z = std::max(log_z, s) +
            std::log1p(std::exp(std::min(log_z, s) - std::max(log_z, s)));
  }
  const double expected = log_z - PathScore(*crf_, emissions_, gold);
  EXPECT_NEAR(nll.item(), expected, 1e-3);
}

TEST_F(CrfTest, MaskedViterbiAvoidsInvalidTags) {
  const std::vector<bool> valid = {true, false, true};
  std::vector<int64_t> decoded = SentenceViterbi(*crf_, emissions_, &valid);
  for (int64_t tag : decoded) EXPECT_NE(tag, 1);
}

TEST_F(CrfTest, GradCheckEmissions) {
  const std::vector<int64_t> gold = {1, 0, 2, 1};
  Tensor nll = SentenceNll(*crf_, emissions_, gold);
  auto g = tensor::autodiff::Grad(nll, {emissions_});
  const float eps = 1e-2f;
  for (int64_t i = 0; i < emissions_.numel(); ++i) {
    std::vector<float> plus = emissions_.data(), minus = emissions_.data();
    plus[static_cast<size_t>(i)] += eps;
    minus[static_cast<size_t>(i)] -= eps;
    const float lp =
        SentenceNll(*crf_, Tensor::FromData(emissions_.shape(), plus), gold)
            .item();
    const float lm =
        SentenceNll(*crf_, Tensor::FromData(emissions_.shape(), minus), gold)
            .item();
    EXPECT_NEAR(g[0].at(i), (lp - lm) / (2 * eps), 2e-2) << "emission " << i;
  }
}

TEST_F(CrfTest, GradCheckTransitions) {
  const std::vector<int64_t> gold = {1, 0, 2, 1};
  Tensor nll = SentenceNll(*crf_, emissions_, gold);
  Tensor trans = *crf_->Parameters()[0];
  auto g = tensor::autodiff::Grad(nll, {trans});
  const float eps = 1e-2f;
  for (int64_t i = 0; i < trans.numel(); ++i) {
    std::vector<float>* values = crf_->Parameters()[0]->mutable_data();
    const float saved = (*values)[static_cast<size_t>(i)];
    (*values)[static_cast<size_t>(i)] = saved + eps;
    const float lp = SentenceNll(*crf_, emissions_, gold).item();
    (*values)[static_cast<size_t>(i)] = saved - eps;
    const float lm = SentenceNll(*crf_, emissions_, gold).item();
    (*values)[static_cast<size_t>(i)] = saved;
    EXPECT_NEAR(g[0].at(i), (lp - lm) / (2 * eps), 2e-2) << "transition " << i;
  }
}

bool SameBits(const float* a, const float* b, size_t n) {
  return std::memcmp(a, b, n * sizeof(float)) == 0;
}

TEST_F(CrfTest, BatchedLanesMatchSingleSentenceRecursionBitwise) {
  // The library's only NLL recursion is NegLogLikelihoodBatch: [B, to, from]
  // scores per timestep, finished lanes carried through a Where select, gold
  // scores summed per lane with RowSum (SentenceNll is its B=1 case).  A
  // seeded sweep — L ∈ 1..12, Y ∈ 3..11, with and without a valid-tag mask,
  // B=1 batches and ragged B>1 batches with random padding — requires every
  // lane's NLL and its emissions/transitions/start/end gradients to be
  // bitwise-identical to SingleSentenceNll on that lane alone, and padding
  // and other lanes to get exactly zero emissions gradient.  One exception:
  // a length-1 lane's transitions gradient is zero on both sides, but the
  // two graphs may produce different signs of zero, so it is compared by
  // value.
  int64_t lanes_checked = 0;
  auto check_batch = [&](const LinearChainCrf& crf, const std::vector<int64_t>& lengths,
                         const std::vector<bool>* valid, util::Rng* rng) {
    const int64_t y = crf.num_tags();
    const auto lanes = static_cast<int64_t>(lengths.size());
    const int64_t max_len = *std::max_element(lengths.begin(), lengths.end());
    std::vector<int64_t> valid_ids;
    for (int64_t j = 0; j < y; ++j) {
      if (valid == nullptr || (*valid)[static_cast<size_t>(j)]) valid_ids.push_back(j);
    }
    // Padding rows hold random scores too: they must not leak into any lane.
    Tensor emissions = Tensor::Randn(Shape{lanes, max_len, y}, rng, 1.0f,
                                     /*requires_grad=*/true);
    std::vector<int64_t> tags(static_cast<size_t>(lanes * max_len), 0);
    for (int64_t b = 0; b < lanes; ++b) {
      for (int64_t t = 0; t < lengths[static_cast<size_t>(b)]; ++t) {
        tags[static_cast<size_t>(b * max_len + t)] = valid_ids[rng->UniformInt(
            static_cast<uint64_t>(valid_ids.size()))];
      }
    }
    auto params = const_cast<LinearChainCrf&>(crf).Parameters();
    const Tensor trans = *params[0];
    const Tensor start = *params[1];
    const Tensor end = *params[2];
    Tensor nll = crf.NegLogLikelihoodBatch(emissions, tags, lengths, valid);
    for (int64_t b = 0; b < lanes; ++b) {
      const int64_t len = lengths[static_cast<size_t>(b)];
      SCOPED_TRACE(::testing::Message() << "Y=" << y << " B=" << lanes << " lane "
                                        << b << " L=" << len
                                        << (valid != nullptr ? " masked" : ""));
      auto g_batch = tensor::autodiff::Grad(
          tensor::Reshape(tensor::Slice(nll, 0, b, 1), Shape{}),
          {emissions, trans, start, end});

      const float* lane_rows = emissions.data().data() + b * max_len * y;
      Tensor lane = Tensor::FromData(
          Shape{len, y}, std::vector<float>(lane_rows, lane_rows + len * y),
          /*requires_grad=*/true);
      const std::vector<int64_t> gold(tags.begin() + b * max_len,
                                      tags.begin() + b * max_len + len);
      Tensor reference = SingleSentenceNll(lane, gold, valid, trans, start, end);
      auto g_ref = tensor::autodiff::Grad(reference, {lane, trans, start, end});

      ASSERT_TRUE(SameBits(nll.data().data() + b, reference.data().data(), 1))
          << nll.at(b) << " vs " << reference.item();
      const float* g_emit = g_batch[0].data().data();
      EXPECT_TRUE(SameBits(g_emit + b * max_len * y, g_ref[0].data().data(),
                           static_cast<size_t>(len * y)))
          << "emissions gradient";
      for (int64_t i = 0; i < lanes * max_len * y; ++i) {
        const int64_t lane_of = i / (max_len * y);
        const int64_t t = (i / y) % max_len;
        if (lane_of != b || t >= len) {
          ASSERT_EQ(g_emit[i], 0.0f) << "gradient leaked to flat row " << i / y;
        }
      }
      if (len == 1) {
        EXPECT_EQ(g_batch[1].data(), g_ref[1].data()) << "transitions gradient";
      } else {
        EXPECT_TRUE(SameBits(g_batch[1].data().data(), g_ref[1].data().data(),
                             static_cast<size_t>(y * y)))
            << "transitions gradient";
      }
      EXPECT_TRUE(SameBits(g_batch[2].data().data(), g_ref[2].data().data(),
                           static_cast<size_t>(y)))
          << "start gradient";
      EXPECT_TRUE(SameBits(g_batch[3].data().data(), g_ref[3].data().data(),
                           static_cast<size_t>(y)))
          << "end gradient";
      ++lanes_checked;
    }
  };

  // The fixture's instance as a B=1 batch first.
  {
    const std::vector<int64_t> gold = {1, 0, 2, 1};
    auto params = crf_->Parameters();
    Tensor nll = SentenceNll(*crf_, emissions_, gold);
    Tensor reference =
        SingleSentenceNll(emissions_, gold, nullptr, *params[0], *params[1], *params[2]);
    ASSERT_TRUE(SameBits(nll.data().data(), reference.data().data(), 1));
    auto g_nll = tensor::autodiff::Grad(nll, {emissions_, *params[0], *params[1],
                                              *params[2]});
    auto g_ref = tensor::autodiff::Grad(reference, {emissions_, *params[0],
                                                    *params[1], *params[2]});
    for (size_t i = 0; i < g_nll.size(); ++i) {
      EXPECT_TRUE(SameBits(g_nll[i].data().data(), g_ref[i].data().data(),
                           static_cast<size_t>(g_nll[i].numel())))
          << "gradient " << i;
    }
  }

  util::Rng rng(20240611);
  for (int64_t y = 3; y <= 11; ++y) {
    LinearChainCrf crf(y);
    for (Tensor* p : crf.Parameters()) {
      for (float& v : *p->mutable_data()) v = static_cast<float>(rng.Gaussian(0.0, 0.7));
    }
    // Tag 0 (O) is always valid, as in every episode; the rest are a coin toss.
    std::vector<bool> mask(static_cast<size_t>(y), true);
    for (int64_t j = 1; j < y; ++j) mask[static_cast<size_t>(j)] = rng.Uniform() < 0.6;
    for (const std::vector<bool>* valid : {static_cast<const std::vector<bool>*>(nullptr),
                                           static_cast<const std::vector<bool>*>(&mask)}) {
      for (int64_t len = 1; len <= 12; ++len) check_batch(crf, {len}, valid, &rng);
      for (int rep = 0; rep < 3; ++rep) {
        std::vector<int64_t> lengths(2 + rng.UniformInt(4));
        for (int64_t& len : lengths) len = 1 + static_cast<int64_t>(rng.UniformInt(12));
        check_batch(crf, lengths, valid, &rng);
      }
    }
  }
  EXPECT_GT(lanes_checked, 9 * 2 * 12);
}

TEST_F(CrfTest, TrainingOnFixedPatternLearnsIt) {
  // Repeatedly minimizing the NLL of one path must make Viterbi decode it.
  const std::vector<int64_t> gold = {0, 1, 2, 0};
  util::Rng rng(7);
  Tensor fixed_emissions = Tensor::Randn(Shape{4, 3}, &rng, 0.1f);
  for (int step = 0; step < 80; ++step) {
    Tensor nll = SentenceNll(*crf_, fixed_emissions, gold);
    auto params = nn::ParameterTensors(crf_.get());
    auto grads = tensor::autodiff::Grad(nll, params);
    for (size_t i = 0; i < params.size(); ++i) {
      std::vector<float>* values = crf_->Parameters()[i]->mutable_data();
      for (size_t j = 0; j < values->size(); ++j) {
        (*values)[j] -= 0.2f * grads[i].at(static_cast<int64_t>(j));
      }
    }
  }
  EXPECT_EQ(SentenceViterbi(*crf_, fixed_emissions), gold);
}

TEST(CrfEdgeTest, SingleTokenSentence) {
  LinearChainCrf crf(4);
  util::Rng rng(1);
  Tensor emissions = Tensor::Randn(Shape{1, 4}, &rng);
  Tensor nll = SentenceNll(crf, emissions, {2});
  EXPECT_GE(nll.item(), -1e-4);
  auto decoded = SentenceViterbi(crf, emissions);
  EXPECT_EQ(decoded.size(), 1u);
}

TEST(CrfEdgeTest, SecondOrderThroughNll) {
  // The FEWNER meta-gradient differentiates through grad(NLL); ensure the
  // log-space forward algorithm supports create_graph.
  LinearChainCrf crf(2);
  util::Rng rng(3);
  Tensor emissions = Tensor::Randn(Shape{3, 2}, &rng, 1.0f, true);
  Tensor nll = SentenceNll(crf, emissions, {0, 1, 0});
  auto g1 = tensor::autodiff::Grad(nll, {emissions}, /*create_graph=*/true);
  Tensor g_sum = tensor::SumAll(tensor::Square(g1[0]));
  auto g2 = tensor::autodiff::Grad(g_sum, {emissions});
  EXPECT_EQ(g2[0].shape(), emissions.shape());
  double norm = 0;
  for (float v : g2[0].data()) norm += std::abs(v);
  EXPECT_GT(norm, 1e-6);  // non-degenerate second-order signal
}

TEST(CrfPropertyTest, ViterbiMatchesBruteForceOnRandomInstances) {
  // 200 random (T, N, params, emissions) instances, T <= 6 and N <= 4 so the
  // N^T enumeration stays cheap; every third instance also draws a random
  // valid-tag mask.  Viterbi must return exactly the enumeration argmax.
  // Ties are broken toward the lexicographically... in practice Gaussian
  // scores never tie, so we simply require the scores to match and, when the
  // brute-force argmax is unique, the paths too.
  util::Rng rng(2024);
  for (int instance = 0; instance < 200; ++instance) {
    const int64_t num_tags = 1 + static_cast<int64_t>(rng.UniformInt(4));  // 1..4
    const int64_t length = 1 + static_cast<int64_t>(rng.UniformInt(6));    // 1..6
    LinearChainCrf crf(num_tags);
    for (tensor::Tensor* p : crf.Parameters()) {
      for (float& v : *p->mutable_data()) {
        v = static_cast<float>(rng.Gaussian(0.0, 1.0));
      }
    }
    Tensor emissions = Tensor::Randn(Shape{length, num_tags}, &rng, 1.0f);

    std::vector<bool> valid(static_cast<size_t>(num_tags), true);
    bool masked = instance % 3 == 0 && num_tags > 1;
    if (masked) {
      // Random mask with at least one valid tag.
      bool any = false;
      for (size_t j = 0; j < valid.size(); ++j) {
        valid[j] = rng.UniformInt(2) == 0;
        any = any || valid[j];
      }
      if (!any) valid[rng.UniformInt(static_cast<uint64_t>(num_tags))] = true;
    }
    const std::vector<bool>* mask = masked ? &valid : nullptr;

    std::vector<int64_t> best_path;
    double best_score = -1e300;
    int ties = 0;
    for (const auto& path : AllPaths(num_tags, length, mask)) {
      const double s = PathScore(crf, emissions, path);
      if (s > best_score) {
        best_score = s;
        best_path = path;
        ties = 1;
      } else if (s == best_score) {
        ++ties;
      }
    }
    ASSERT_FALSE(best_path.empty());

    std::vector<int64_t> viterbi = SentenceViterbi(crf, emissions, mask);
    const double viterbi_score = PathScore(crf, emissions, viterbi);
    EXPECT_NEAR(viterbi_score, best_score, 1e-3)
        << "instance " << instance << " T=" << length << " N=" << num_tags;
    if (ties == 1) {
      EXPECT_EQ(viterbi, best_path) << "instance " << instance;
    }
    if (masked) {
      for (int64_t tag : viterbi) EXPECT_TRUE(valid[static_cast<size_t>(tag)]);
    }
  }
}

}  // namespace
}  // namespace fewner::crf
