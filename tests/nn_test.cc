// Tests for the neural-net layer library: module registration, parameter
// patching, layer forwards (with finite-difference gradient checks through
// composite layers), and optimizers.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <optional>

#include "nn/attention.h"
#include "nn/char_cnn.h"
#include "nn/rnn.h"
#include "nn/init.h"
#include "nn/layers.h"
#include "nn/module.h"
#include "nn/optim.h"
#include "tensor/autodiff.h"
#include "tensor/eval_mode.h"
#include "tensor/ops.h"

namespace fewner::nn {
namespace {

using tensor::Shape;
using tensor::Tensor;
using tensor::autodiff::Grad;

/// One sentence [L, input] through a BiRnn's batched time loop at B=1, as
/// [L, 2H].
Tensor ForwardOne(const BiRnn& rnn, const Tensor& x) {
  const int64_t length = x.shape().dim(0);
  Tensor out = rnn.ForwardBatch(
      tensor::Reshape(x, Shape{1, length, x.shape().dim(1)}), {length});
  return tensor::Reshape(out, Shape{length, rnn.output_dim()});
}

TEST(ModuleTest, RegistersParametersHierarchically) {
  util::Rng rng(1);
  Linear inner(3, 2, &rng);
  EXPECT_EQ(inner.Parameters().size(), 2u);  // weight + bias
  EXPECT_EQ(inner.ParameterCount(), 3 * 2 + 2);

  auto named = inner.NamedParameters();
  EXPECT_EQ(named[0].first, "weight");
  EXPECT_EQ(named[1].first, "bias");
}

TEST(ModuleTest, TrainingFlagPropagates) {
  util::Rng rng(1);
  BiRnn gru(std::in_place_type<GruCell>, 4, 3, &rng);
  gru.SetTraining(false);
  EXPECT_FALSE(gru.training());
}

TEST(ModuleTest, CopyParametersFrom) {
  util::Rng rng(1), rng2(2);
  Linear a(3, 2, &rng), b(3, 2, &rng2);
  EXPECT_NE(a.Parameters()[0]->at(0), b.Parameters()[0]->at(0));
  a.CopyParametersFrom(&b);
  EXPECT_FLOAT_EQ(a.Parameters()[0]->at(0), b.Parameters()[0]->at(0));
}

TEST(ParameterPatchTest, ReplacesAndRestores) {
  util::Rng rng(1);
  Linear layer(2, 2, &rng);
  Tensor* weight_slot = layer.Parameters()[0];
  const float original = weight_slot->at(0);
  {
    std::vector<Tensor> replacement = {Tensor::Full(Shape{2, 2}, 9.0f),
                                       Tensor::Zeros(Shape{2})};
    ParameterPatch patch(layer.Parameters(), replacement);
    EXPECT_FLOAT_EQ(layer.Parameters()[0]->at(0), 9.0f);
    Tensor out = layer.Forward(Tensor::Ones(Shape{1, 2}));
    EXPECT_FLOAT_EQ(out.at(0), 18.0f);
  }
  EXPECT_FLOAT_EQ(layer.Parameters()[0]->at(0), original);
}

TEST(ParameterValuesTest, SnapshotRestoreRoundTrip) {
  util::Rng rng(1);
  Linear layer(2, 2, &rng);
  auto snapshot = SnapshotParameterValues(&layer);
  (*layer.Parameters()[0]->mutable_data())[0] += 5.0f;
  RestoreParameterValues(&layer, snapshot);
  EXPECT_FLOAT_EQ(layer.Parameters()[0]->at(0), snapshot[0][0]);
}

TEST(LinearTest, ForwardMatchesManual) {
  util::Rng rng(3);
  Linear layer(2, 1, &rng);
  std::vector<float>* w = layer.Parameters()[0]->mutable_data();
  (*w)[0] = 2.0f;
  (*w)[1] = -1.0f;
  (*layer.Parameters()[1]->mutable_data())[0] = 0.5f;
  Tensor out = layer.Forward(Tensor::FromData(Shape{1, 2}, {3.0f, 4.0f}));
  EXPECT_FLOAT_EQ(out.at(0), 3.0f * 2.0f + 4.0f * (-1.0f) + 0.5f);
}

TEST(LinearTest, GradFlowsToWeights) {
  util::Rng rng(3);
  Linear layer(3, 2, &rng);
  Tensor x = Tensor::Ones(Shape{2, 3});
  Tensor loss = tensor::SumAll(tensor::Square(layer.Forward(x)));
  auto grads = Grad(loss, ParameterTensors(&layer));
  EXPECT_EQ(grads.size(), 2u);
  double norm = 0;
  for (float v : grads[0].data()) norm += std::abs(v);
  EXPECT_GT(norm, 0.0);
}

TEST(EmbeddingTest, LookupAndPretrained) {
  util::Rng rng(5);
  Embedding embedding(4, 3, &rng);
  embedding.LoadPretrained({{0, 0, 0}, {1, 2, 3}, {4, 5, 6}, {7, 8, 9}});
  Tensor out = embedding.Forward({2, 0, 2});
  EXPECT_EQ(out.shape(), (Shape{3, 3}));
  EXPECT_FLOAT_EQ(out.at(0), 4.0f);
  EXPECT_FLOAT_EQ(out.at(3), 0.0f);
  EXPECT_FLOAT_EQ(out.at(8), 6.0f);
}

TEST(EmbeddingTest, GradAccumulatesOnRepeatedIds) {
  util::Rng rng(5);
  Embedding embedding(3, 2, &rng);
  Tensor out = embedding.Forward({1, 1});
  auto grads = Grad(tensor::SumAll(out), ParameterTensors(&embedding));
  EXPECT_FLOAT_EQ(grads[0].at(2), 2.0f);  // row 1 selected twice
  EXPECT_FLOAT_EQ(grads[0].at(0), 0.0f);
}

TEST(LayerNormTest, NormalizesRows) {
  LayerNorm norm(4);
  Tensor x = Tensor::FromData(Shape{2, 4}, {1, 2, 3, 4, 10, 10, 10, 10});
  Tensor out = norm.Forward(x);
  // First row: mean 2.5 removed, unit variance.
  double mean = 0;
  for (int i = 0; i < 4; ++i) mean += out.at(i);
  EXPECT_NEAR(mean, 0.0, 1e-4);
  // Constant row stays ~0 (variance eps guard, no NaN).
  EXPECT_NEAR(out.at(4), 0.0f, 1e-2);
  EXPECT_FALSE(std::isnan(out.at(4)));
}

TEST(FilmTest, ZeroContextIsIdentity) {
  util::Rng rng(7);
  FilmGenerator film(4, 3, &rng);
  Tensor h = Tensor::FromData(Shape{2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor out = film.Forward(h, Tensor::Zeros(Shape{4}));
  for (int64_t i = 0; i < 6; ++i) EXPECT_NEAR(out.at(i), h.at(i), 1e-6);
}

TEST(FilmTest, NonZeroContextModulates) {
  util::Rng rng(7);
  FilmGenerator film(4, 3, &rng);
  Tensor h = Tensor::Ones(Shape{2, 3});
  Tensor out = film.Forward(h, Tensor::Ones(Shape{4}));
  bool changed = false;
  for (int64_t i = 0; i < 6; ++i) changed = changed || std::abs(out.at(i) - 1.0f) > 1e-4;
  EXPECT_TRUE(changed);
}

TEST(FilmTest, GradReachesContext) {
  util::Rng rng(7);
  FilmGenerator film(4, 3, &rng);
  Tensor h = Tensor::Ones(Shape{2, 3});
  Tensor phi = Tensor::Zeros(Shape{4}, /*requires_grad=*/true);
  Tensor loss = tensor::SumAll(tensor::Square(film.Forward(h, phi)));
  auto g = Grad(loss, {phi});
  double norm = 0;
  for (float v : g[0].data()) norm += std::abs(v);
  EXPECT_GT(norm, 0.0);
}

TEST(CharCnnTest, ShapesAndShortWordPadding) {
  util::Rng rng(9);
  CharCnnConfig config;
  config.char_vocab_size = 20;
  config.char_dim = 6;
  config.filter_widths = {2, 3};
  config.filters_per_width = 4;
  CharCnn cnn(config, &rng);
  EXPECT_EQ(cnn.output_dim(), 8);
  // Words shorter than the widest filter must still encode (padding).
  Tensor out = cnn.ForwardBatch({{5}, {3, 4, 5, 6, 7}, {2, 2}});
  EXPECT_EQ(out.shape(), (Shape{3, 8}));
}

TEST(CharCnnTest, SuffixSensitivity) {
  // Two words sharing a suffix should be closer in CNN space than unrelated
  // words, since max-pooled filters fire on the shared window.
  util::Rng rng(11);
  CharCnnConfig config;
  config.char_vocab_size = 30;
  config.char_dim = 8;
  config.filters_per_width = 8;
  CharCnn cnn(config, &rng);
  auto encode = [&](std::vector<int64_t> word) {
    return cnn.ForwardBatch({std::move(word)});
  };
  Tensor a = encode({4, 5, 10, 11, 12});   // stem A + suffix
  Tensor b = encode({7, 8, 10, 11, 12});   // stem B + same suffix
  Tensor c = encode({14, 15, 16, 17, 18});  // unrelated
  auto dist = [&](const Tensor& x, const Tensor& y) {
    double d = 0;
    for (int64_t i = 0; i < x.numel(); ++i) {
      d += (x.at(i) - y.at(i)) * (x.at(i) - y.at(i));
    }
    return d;
  };
  EXPECT_LT(dist(a, b), dist(a, c));
}

TEST(CharCnnTest, DistinctWordBucketsMatchOneWordCallsBitwise) {
  // ForwardBatch convolves each distinct word once, in buckets of equal
  // padded length max(|word|, widest filter), and gathers the rows back to
  // token order.  A seeded sweep over ragged batches with repeated words,
  // empty pad tokens, words shorter than the widest filter and one word much
  // longer than the rest requires every row to be bitwise-equal to a
  // one-word call on its token, in eval and in graph mode.  In graph mode the
  // parameter gradients of a weighted row sum must equal the sum of the
  // per-token one-word gradients to tolerance, and central finite
  // differences spot-check them.
  util::Rng rng(0xC4A2);
  CharCnnConfig config;
  config.char_vocab_size = 24;
  config.char_dim = 5;
  config.filter_widths = {2, 3, 4};
  config.filters_per_width = 3;
  CharCnn cnn(config, &rng);
  const int64_t d = cnn.output_dim();
  const std::vector<Tensor> params = ParameterTensors(&cnn);
  auto random_word = [&](int64_t min_len, int64_t max_len) {
    const auto len = min_len + static_cast<int64_t>(rng.UniformInt(
                                   static_cast<uint64_t>(max_len - min_len + 1)));
    std::vector<int64_t> word(static_cast<size_t>(len));
    for (int64_t& c : word) c = 1 + static_cast<int64_t>(rng.UniformInt(23));
    return word;
  };
  // The one-word CharCNN built from public ops: the word zero-padded to
  // max(|word|, widest filter), one window matrix per width, ReLU, max over
  // windows.  Pins what a one-word call computes.
  const std::vector<Tensor*> slots = cnn.Parameters();  // table, (W, b) per width
  auto one_word_reference = [&](const std::vector<int64_t>& word) {
    std::vector<int64_t> ids = word;
    ids.resize(std::max<size_t>(word.size(), 4), 0);
    const auto t = static_cast<int64_t>(ids.size());
    const Tensor embedded = tensor::Reshape(tensor::IndexSelectRows(*slots[0], ids),
                                            Shape{1, t, config.char_dim});
    std::vector<Tensor> pooled;
    for (size_t f = 0; f < config.filter_widths.size(); ++f) {
      const int64_t w = config.filter_widths[f];
      const Tensor windows = tensor::Reshape(tensor::UnfoldTimeBatch(embedded, w),
                                             Shape{t - w + 1, w * config.char_dim});
      pooled.push_back(tensor::MaxAxis(
          tensor::Relu(tensor::Add(tensor::MatMul(windows, *slots[1 + 2 * f]),
                                   *slots[2 + 2 * f])),
          0, /*keepdim=*/false));
    }
    return tensor::Concat(pooled, 0);  // [output_dim]
  };
  for (int trial = 0; trial < 12; ++trial) {
    // Tokens drawn with repeats from a few words: the pad token, a
    // one-character word, and words of 1..7 characters.
    std::vector<std::vector<int64_t>> words = {{}, random_word(1, 1)};
    for (int w = 0; w < 5; ++w) words.push_back(random_word(1, 7));
    const auto n = static_cast<int64_t>(8 + rng.UniformInt(16));
    std::vector<std::vector<int64_t>> chars;
    for (int64_t i = 0; i < n; ++i) {
      chars.push_back(words[rng.UniformInt(words.size())]);
    }
    chars.push_back({});
    chars.insert(chars.begin() + static_cast<int64_t>(rng.UniformInt(chars.size())),
                 random_word(15, 20));
    const auto tokens = static_cast<int64_t>(chars.size());

    for (bool eval : {true, false}) {
      std::optional<tensor::EvalMode> mode;
      if (eval) mode.emplace();
      const Tensor batch = cnn.ForwardBatch(chars);
      ASSERT_EQ(batch.shape(), (Shape{tokens, d}));
      for (int64_t i = 0; i < tokens; ++i) {
        const auto& word = chars[static_cast<size_t>(i)];
        for (const Tensor& alone : {cnn.ForwardBatch({word}), one_word_reference(word)}) {
          EXPECT_EQ(std::memcmp(batch.data().data() + i * d, alone.data().data(),
                                static_cast<size_t>(d) * sizeof(float)),
                    0)
              << "trial " << trial << " token " << i << (eval ? " eval" : " graph");
        }
      }
    }

    // Graph mode: loss = Σ_i <weights_i, row_i>.  Duplicated words share one
    // convolution, so their gradients must add up as in per-token calls.
    const Tensor weights = Tensor::Randn(Shape{tokens, d}, &rng);
    auto loss_of = [&]() {
      return tensor::SumAll(tensor::Mul(cnn.ForwardBatch(chars), weights));
    };
    const std::vector<Tensor> grads = Grad(loss_of(), params);
    std::vector<std::vector<double>> expected(params.size());
    for (size_t p = 0; p < params.size(); ++p) {
      expected[p].assign(static_cast<size_t>(params[p].numel()), 0.0);
    }
    for (int64_t i = 0; i < tokens; ++i) {
      const Tensor row_loss = tensor::SumAll(
          tensor::Mul(cnn.ForwardBatch({chars[static_cast<size_t>(i)]}),
                      tensor::Slice(weights, 0, i, 1)));
      const std::vector<Tensor> row_grads = Grad(row_loss, params);
      for (size_t p = 0; p < params.size(); ++p) {
        for (int64_t j = 0; j < params[p].numel(); ++j) {
          expected[p][static_cast<size_t>(j)] += row_grads[p].at(j);
        }
      }
    }
    double max_abs = 0.0;
    for (size_t p = 0; p < params.size(); ++p) {
      for (int64_t j = 0; j < params[p].numel(); ++j) {
        const double want = expected[p][static_cast<size_t>(j)];
        max_abs = std::max(max_abs, std::abs(want));
        EXPECT_NEAR(grads[p].at(j), want, 1e-4 + 1e-4 * std::abs(want))
            << "trial " << trial << " parameter " << p << " element " << j;
      }
    }
    EXPECT_GT(max_abs, 1e-3) << "gradients vanished; the check is vacuous";

    // Finite differences on two elements of every parameter tensor.  The
    // loss is piecewise linear in each parameter (ReLU, max over windows), so
    // a probe may sit on or near a kink: the analytic gradient must match the
    // forward or the backward one-sided difference.
    const float eps = 1e-3f;
    for (size_t p = 0; p < slots.size(); ++p) {
      std::vector<float>* values = slots[p]->mutable_data();
      for (int probe = 0; probe < 2; ++probe) {
        const size_t j = rng.UniformInt(values->size());
        const float saved = (*values)[j];
        const float at = loss_of().item();
        (*values)[j] = saved + eps;
        const float forward = (loss_of().item() - at) / eps;
        (*values)[j] = saved - eps;
        const float backward = (at - loss_of().item()) / eps;
        (*values)[j] = saved;
        const float g = grads[p].at(static_cast<int64_t>(j));
        EXPECT_TRUE(std::abs(g - forward) <= 2e-2 + 2e-2 * std::abs(forward) ||
                    std::abs(g - backward) <= 2e-2 + 2e-2 * std::abs(backward))
            << "trial " << trial << " parameter " << p << " element " << j
            << ": autodiff " << g << ", one-sided differences " << forward
            << " and " << backward;
      }
    }
  }
}

TEST(GruTest, ShapesAndStatePropagation) {
  util::Rng rng(13);
  GruCell cell(4, 3, &rng);
  Tensor x = Tensor::Ones(Shape{5, 4});
  Tensor projected = cell.ProjectInput(x);
  EXPECT_EQ(projected.shape(), (Shape{5, 9}));
  Tensor h = Tensor::Zeros(Shape{1, 3});
  Tensor h1 = cell.Step(tensor::Slice(projected, 0, 0, 1), {h}).h;
  EXPECT_EQ(h1.shape(), (Shape{1, 3}));
  // State must change from zero on non-trivial input.
  double norm = 0;
  for (float v : h1.data()) norm += std::abs(v);
  EXPECT_GT(norm, 1e-4);
}

TEST(BiGruTest, OutputShapeAndDirectionality) {
  util::Rng rng(15);
  BiRnn gru(std::in_place_type<GruCell>, 3, 4, &rng);
  Tensor x = Tensor::Randn(Shape{6, 3}, &rng);
  Tensor out = ForwardOne(gru, x);
  EXPECT_EQ(out.shape(), (Shape{6, 8}));

  // Changing the LAST token must change the backward features of the FIRST
  // token (information flows right-to-left) but not its forward features.
  std::vector<float> perturbed = x.data();
  perturbed[15] += 1.0f;  // last row, first feature
  Tensor out2 = ForwardOne(gru, Tensor::FromData(Shape{6, 3}, perturbed));
  for (int64_t j = 0; j < 4; ++j) {
    EXPECT_FLOAT_EQ(out.at(j), out2.at(j)) << "forward feature " << j;
  }
  double backward_delta = 0;
  for (int64_t j = 4; j < 8; ++j) backward_delta += std::abs(out.at(j) - out2.at(j));
  EXPECT_GT(backward_delta, 1e-5);
}

TEST(BiGruTest, GradCheckThroughTime) {
  util::Rng rng(17);
  BiRnn gru(std::in_place_type<GruCell>, 2, 2, &rng);
  Tensor x = Tensor::Randn(Shape{3, 2}, &rng, 0.5f, /*requires_grad=*/true);
  Tensor loss = tensor::SumAll(tensor::Square(ForwardOne(gru, x)));
  auto g = Grad(loss, {x});
  const float eps = 1e-2f;
  for (int64_t i = 0; i < x.numel(); ++i) {
    std::vector<float> plus = x.data(), minus = x.data();
    plus[static_cast<size_t>(i)] += eps;
    minus[static_cast<size_t>(i)] -= eps;
    const float lp = tensor::SumAll(tensor::Square(ForwardOne(
                                        gru, Tensor::FromData(x.shape(), plus))))
                         .item();
    const float lm = tensor::SumAll(tensor::Square(ForwardOne(
                                        gru, Tensor::FromData(x.shape(), minus))))
                         .item();
    EXPECT_NEAR(g[0].at(i), (lp - lm) / (2 * eps), 5e-2) << "element " << i;
  }
}

TEST(AttentionTest, CausalMaskBlocksFuture) {
  util::Rng rng(19);
  SelfAttention attention(4, AttentionMask::kCausal, &rng);
  Tensor x = Tensor::Randn(Shape{5, 4}, &rng);
  Tensor out = attention.Forward(x);
  // Perturbing the last token must not change the first token's output.
  std::vector<float> perturbed = x.data();
  perturbed[16] += 2.0f;
  Tensor out2 = attention.Forward(Tensor::FromData(Shape{5, 4}, perturbed));
  for (int64_t j = 0; j < 4; ++j) EXPECT_FLOAT_EQ(out.at(j), out2.at(j));
}

TEST(AttentionTest, BidirectionalSeesFuture) {
  util::Rng rng(19);
  SelfAttention attention(4, AttentionMask::kNone, &rng);
  Tensor x = Tensor::Randn(Shape{5, 4}, &rng);
  Tensor out = attention.Forward(x);
  std::vector<float> perturbed = x.data();
  perturbed[16] += 2.0f;
  Tensor out2 = attention.Forward(Tensor::FromData(Shape{5, 4}, perturbed));
  double delta = 0;
  for (int64_t j = 0; j < 4; ++j) delta += std::abs(out.at(j) - out2.at(j));
  EXPECT_GT(delta, 1e-6);
}

TEST(TransformerBlockTest, ShapePreservingAndDifferentiable) {
  util::Rng rng(21);
  TransformerBlock block(4, 8, AttentionMask::kCausal, &rng);
  Tensor x = Tensor::Randn(Shape{3, 4}, &rng, 1.0f, true);
  Tensor out = block.Forward(x);
  EXPECT_EQ(out.shape(), (Shape{3, 4}));
  auto g = Grad(tensor::SumAll(tensor::Square(out)), {x});
  EXPECT_EQ(g[0].shape(), x.shape());
}

TEST(DilatedCausalConvTest, CausalityAndGrowth) {
  util::Rng rng(23);
  DilatedCausalConv conv(3, 2, 2, &rng);
  Tensor x = Tensor::Randn(Shape{5, 3}, &rng);
  Tensor out = conv.Forward(x, {5});
  EXPECT_EQ(out.shape(), (Shape{5, 5}));
  // Perturb the last position: outputs at position 0 must not change.
  std::vector<float> perturbed = x.data();
  perturbed[12] += 1.0f;
  Tensor out2 = conv.Forward(Tensor::FromData(Shape{5, 3}, perturbed), {5});
  for (int64_t j = 0; j < 5; ++j) EXPECT_FLOAT_EQ(out.at(j), out2.at(j));
}

TEST(DilatedCausalConvTest, PackedSentencesMatchOneSentenceCallsBitwise) {
  // Seeded ragged packs, lengths 1..9, dilation 1 and 2: every sentence's rows
  // of a packed call are memcmp-equal to a call on that sentence alone, and
  // perturbing any row of sentence k leaves every other sentence's rows as
  // they were.
  util::Rng rng(0x7C0);
  const int64_t dim = 4;
  for (int64_t dilation : {1, 2}) {
    DilatedCausalConv conv(dim, 3, dilation, &rng);
    const int64_t width = conv.output_dim();
    for (int rep = 0; rep < 6; ++rep) {
      std::vector<int64_t> lengths(1 + rng.UniformInt(5));
      std::vector<int64_t> offsets;
      int64_t rows = 0;
      for (int64_t& len : lengths) {
        len = 1 + static_cast<int64_t>(rng.UniformInt(9));
        offsets.push_back(rows);
        rows += len;
      }
      Tensor x = Tensor::Randn(Shape{rows, dim}, &rng);
      Tensor packed = conv.Forward(x, lengths);
      ASSERT_EQ(packed.shape(), (Shape{rows, width}));
      for (size_t k = 0; k < lengths.size(); ++k) {
        SCOPED_TRACE(::testing::Message() << "dilation " << dilation << " rep " << rep
                                          << " sentence " << k);
        const int64_t len = lengths[k];
        const float* begin = x.data().data() + offsets[k] * dim;
        std::vector<float> rows_k(begin, begin + len * dim);
        Tensor alone = conv.Forward(Tensor::FromData(Shape{len, dim}, rows_k), {len});
        EXPECT_EQ(0, std::memcmp(packed.data().data() + offsets[k] * width,
                                 alone.data().data(),
                                 static_cast<size_t>(len * width) * sizeof(float)));

        std::vector<float> changed = x.data();
        const int64_t row = offsets[k] + static_cast<int64_t>(rng.UniformInt(
                                             static_cast<uint64_t>(len)));
        for (int64_t j = 0; j < dim; ++j) {
          changed[static_cast<size_t>(row * dim + j)] += 1.5f;
        }
        Tensor moved = conv.Forward(Tensor::FromData(Shape{rows, dim}, changed), lengths);
        for (size_t other = 0; other < lengths.size(); ++other) {
          if (other == k) continue;
          EXPECT_EQ(0, std::memcmp(moved.data().data() + offsets[other] * width,
                                   packed.data().data() + offsets[other] * width,
                                   static_cast<size_t>(lengths[other] * width) *
                                       sizeof(float)))
              << "row " << row << " leaked into sentence " << other;
        }
      }
    }
  }
}

TEST(OptimTest, ClipGradNorm) {
  std::vector<Tensor> grads = {Tensor::Full(Shape{4}, 3.0f)};  // norm 6
  float norm = ClipGradNorm(&grads, 3.0f);
  EXPECT_NEAR(norm, 6.0f, 1e-4);
  double new_norm = 0;
  for (float v : grads[0].data()) new_norm += v * v;
  EXPECT_NEAR(std::sqrt(new_norm), 3.0f, 1e-3);

  std::vector<Tensor> small = {Tensor::Full(Shape{4}, 0.1f)};
  ClipGradNorm(&small, 3.0f);
  EXPECT_FLOAT_EQ(small[0].at(0), 0.1f);  // untouched below the cap
}

TEST(OptimTest, SgdConvergesOnQuadratic) {
  Tensor w = Tensor::FromData(Shape{2}, {5.0f, -3.0f}, true);
  Sgd sgd({&w}, 0.2f);
  for (int step = 0; step < 60; ++step) {
    Tensor loss = tensor::SumAll(tensor::Square(w));
    sgd.Step(Grad(loss, {w}));
  }
  EXPECT_NEAR(w.at(0), 0.0f, 1e-3);
  EXPECT_NEAR(w.at(1), 0.0f, 1e-3);
}

TEST(OptimTest, AdamConvergesOnQuadratic) {
  Tensor w = Tensor::FromData(Shape{2}, {5.0f, -3.0f}, true);
  Adam adam({&w}, 0.3f);
  for (int step = 0; step < 200; ++step) {
    Tensor loss = tensor::SumAll(tensor::Square(w));
    adam.Step(Grad(loss, {w}));
  }
  EXPECT_NEAR(w.at(0), 0.0f, 1e-2);
  EXPECT_NEAR(w.at(1), 0.0f, 1e-2);
}

TEST(OptimTest, AdamLrDecay) {
  Tensor w = Tensor::Zeros(Shape{1}, true);
  Adam adam({&w}, 1.0f);
  adam.DecayLr(0.9f);
  EXPECT_NEAR(adam.lr(), 0.9f, 1e-6);
}

TEST(OptimTest, WeightDecayShrinksParameters) {
  Tensor w = Tensor::FromData(Shape{1}, {10.0f}, true);
  Sgd sgd({&w}, 0.1f, /*weight_decay=*/0.5f);
  sgd.Step({Tensor::Zeros(Shape{1})});
  EXPECT_LT(w.at(0), 10.0f);
}

}  // namespace
}  // namespace fewner::nn

// Serialization tests live here since they operate on Module parameters.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>

#include "nn/serialization.h"

namespace fewner::nn {
namespace {

TEST(SerializationTest, SaveLoadRoundTrip) {
  util::Rng rng(1), rng2(2);
  BiRnn a(std::in_place_type<GruCell>, 4, 3, &rng);
  BiRnn b(std::in_place_type<GruCell>, 4, 3, &rng2);
  const std::string path = ::testing::TempDir() + "/fewner_ckpt.bin";
  ASSERT_TRUE(SaveParameters(&a, path).ok());
  ASSERT_TRUE(LoadParameters(&b, path).ok());
  auto pa = a.Parameters();
  auto pb = b.Parameters();
  for (size_t i = 0; i < pa.size(); ++i) {
    EXPECT_EQ(pa[i]->data(), pb[i]->data()) << "slot " << i;
  }
  std::remove(path.c_str());
}

TEST(SerializationTest, ShapeMismatchIsRejected) {
  util::Rng rng(1);
  Linear a(3, 2, &rng);
  Linear b(3, 4, &rng);
  const std::string path = ::testing::TempDir() + "/fewner_bad.bin";
  ASSERT_TRUE(SaveParameters(&a, path).ok());
  EXPECT_FALSE(LoadParameters(&b, path).ok());
  std::remove(path.c_str());
}

TEST(SerializationTest, MissingFileIsNotFound) {
  util::Rng rng(1);
  Linear a(2, 2, &rng);
  util::Status status = LoadParameters(&a, "/nonexistent/fewner.bin");
  EXPECT_EQ(status.code(), util::StatusCode::kNotFound);
}

TEST(SerializationTest, GarbageFileIsRejected) {
  const std::string path = ::testing::TempDir() + "/fewner_garbage.bin";
  { std::ofstream out(path); out << "this is not a checkpoint"; }
  util::Rng rng(1);
  Linear a(2, 2, &rng);
  EXPECT_FALSE(LoadParameters(&a, path).ok());
  std::remove(path.c_str());
}

/// Bytes of a checkpoint of `module`, and a writer for edited copies.
std::string CheckpointBytes(Module* module, const std::string& path) {
  EXPECT_TRUE(SaveParameters(module, path).ok());
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(SerializationTest, TruncationAtEveryByteIsRejectedAndChangesNothing) {
  util::Rng rng(1), rng2(2);
  Linear a(3, 2, &rng);  // two tensors: a cut inside the bias follows a whole weight
  Linear b(3, 2, &rng2);
  const std::string path = ::testing::TempDir() + "/fewner_trunc.bin";
  const std::string bytes = CheckpointBytes(&a, path);
  const auto before = SnapshotParameterValues(&b);
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    WriteBytes(path, bytes.substr(0, cut));
    EXPECT_FALSE(LoadParameters(&b, path).ok()) << "accepted a cut at byte " << cut;
    const auto after = SnapshotParameterValues(&b);
    for (size_t i = 0; i < before.size(); ++i) {
      ASSERT_EQ(0, std::memcmp(before[i].data(), after[i].data(),
                               before[i].size() * sizeof(float)))
          << "cut at byte " << cut << " changed slot " << i;
    }
  }
  WriteBytes(path, bytes);
  EXPECT_TRUE(LoadParameters(&b, path).ok());
  std::remove(path.c_str());
}

TEST(SerializationTest, TrailingByteIsRejected) {
  util::Rng rng(1);
  Linear a(3, 2, &rng);
  const std::string path = ::testing::TempDir() + "/fewner_trailing.bin";
  WriteBytes(path, CheckpointBytes(&a, path) + '\0');
  EXPECT_FALSE(LoadParameters(&a, path).ok());
  std::remove(path.c_str());
}

TEST(SerializationTest, NanValueIsRejectedAndChangesNothing) {
  util::Rng rng(1), rng2(2);
  Linear a(3, 2, &rng);
  Linear b(3, 2, &rng2);
  a.Parameters().back()->mutable_data()->back() = std::nanf("");
  const std::string path = ::testing::TempDir() + "/fewner_nan.bin";
  ASSERT_TRUE(SaveParameters(&a, path).ok());
  const auto before = SnapshotParameterValues(&b);
  EXPECT_FALSE(LoadParameters(&b, path).ok());
  EXPECT_EQ(before, SnapshotParameterValues(&b));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace fewner::nn
