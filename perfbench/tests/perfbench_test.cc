// Tests of the benchmark itself: percentiles, span accounting, seeded
// inputs, the result line against BENCHMARK.json, and a smoke-sized run of
// every workload passing its output checks.

#include <fstream>
#include <regex>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "perfbench/src/inputs.h"
#include "perfbench/src/report.h"
#include "perfbench/src/trace.h"
#include "perfbench/src/workloads.h"

namespace fewner::perfbench {
namespace {

using NameUnits = std::vector<std::pair<std::string, std::string>>;

TEST(PercentileTest, NearestRank) {
  const std::vector<double> ten = {10, 1, 9, 2, 8, 3, 7, 4, 6, 5};
  EXPECT_EQ(Percentile(ten, 0.5), 5.0);   // rank ceil(5.0) = 5
  EXPECT_EQ(Percentile(ten, 0.9), 9.0);   // rank ceil(9.0) = 9
  EXPECT_EQ(Percentile(ten, 0.91), 10.0); // rank ceil(9.1) = 10
  EXPECT_EQ(Percentile(ten, 1.0), 10.0);
  EXPECT_EQ(Percentile(ten, 0.01), 1.0);
  EXPECT_EQ(Percentile({4, 2, 3}, 0.5), 3.0);  // rank ceil(1.5) = 2
  EXPECT_EQ(Percentile({7}, 0.9), 7.0);
}

TEST(PercentileTest, SummaryReportsSampleCount) {
  const Summary s = Summarize({3, 1, 2, 4, 5});
  EXPECT_EQ(s.n, 5);
  EXPECT_EQ(s.p50, 3.0);
  EXPECT_EQ(s.p90, 5.0);  // rank ceil(4.5) = 5
  EXPECT_EQ(Summarize({}).n, 0);
}

TEST(TraceTest, SelfTimeSubtractsTheUnionOfChildren) {
  // parent [0, 100) with overlapping children [10, 40) and [30, 60) on two
  // threads, and a grandchild inside the first child.
  std::vector<Tracer::Span> spans(4);
  spans[0] = {"meta.parallel.run", 0, 100, -1, 0, 0};
  spans[1] = {"op.task", 10, 40, 0, 0, 1};
  spans[2] = {"op.task", 30, 60, 0, 0, 2};
  spans[3] = {"models.query_loss", 15, 25, 1, 0, 1};
  const auto stats = AggregateSpans(spans);
  EXPECT_EQ(stats.at("meta.parallel.run").self_ns, 50.0);  // 100 - [10, 60)
  EXPECT_EQ(stats.at("op.task").calls, 2);
  EXPECT_EQ(stats.at("op.task").total_ns, 60.0);
  EXPECT_EQ(stats.at("op.task").self_ns, 50.0);
  EXPECT_EQ(stats.at("models.query_loss").self_ns, 10.0);
}

TEST(TraceTest, CoverageCountsTopLevelLayerSpansOnly) {
  // op.adapt groups two layer spans; the nested layer span and the gap
  // between layer spans are not double counted.
  std::vector<Tracer::Span> spans(4);
  spans[0] = {"op.adapt", 0, 100, -1, 0, 0};
  spans[1] = {"models.prefix", 0, 40, 0, 0, 0};
  spans[2] = {"tensor.phi_grad", 10, 20, 1, 0, 0};
  spans[3] = {"crf.viterbi", 50, 90, 0, 0, 0};
  EXPECT_DOUBLE_EQ(LayerCoverage(spans, 0, 100), 0.8);
  EXPECT_DOUBLE_EQ(LayerCoverage(spans, 0, 200), 0.4);
}

TEST(InputsTest, SameSeedSameInputsOtherSeedOtherInputs) {
  const Profile p = SmokeProfile();
  auto fingerprint = [&](uint64_t seed) {
    World world(p, seed);
    Fingerprint f;
    for (const auto& task : world.AdaptTasks(4)) f.Add(task);
    const ServeInputs serve = MakeServeInputs(world);
    f.Add(serve.task);
    for (const auto& request : serve.requests) f.Add(request);
    const data::EpisodeSampler sampler = world.TrainSampler();
    f.Add(world.encoder().Encode(sampler.Sample(0)));
    return f.value();
  };
  EXPECT_EQ(fingerprint(7), fingerprint(7));
  EXPECT_NE(fingerprint(7), fingerprint(8));
}

/// (name, unit) pairs of one metric list in BENCHMARK.json, in file order.
NameUnits SpecMetrics(const std::string& section) {
  std::ifstream in(PERFBENCH_SPEC);
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string spec = buffer.str();
  const size_t begin = spec.find("\"" + section + "\"");
  EXPECT_NE(begin, std::string::npos) << section;
  const size_t end = spec.find(']', begin);
  const std::string body = spec.substr(begin, end - begin);
  static const std::regex entry(
      R"re(\{\s*"name":\s*"([^"]+)",\s*"unit":\s*"([^"]+)")re");
  NameUnits out;
  for (auto it = std::sregex_iterator(body.begin(), body.end(), entry);
       it != std::sregex_iterator(); ++it) {
    out.emplace_back((*it)[1], (*it)[2]);
  }
  return out;
}

/// (name, unit) pairs of a result line, in line order.
NameUnits LineMetrics(const std::string& line) {
  static const std::regex entry(
      R"re("([^"]+)":\s*\{"value":\s*[-0-9.eE+]+,\s*"unit":\s*"([^"]+)"\})re");
  NameUnits out;
  for (auto it = std::sregex_iterator(line.begin(), line.end(), entry);
       it != std::sregex_iterator(); ++it) {
    out.emplace_back((*it)[1], (*it)[2]);
  }
  return out;
}

Outcome SmokeRun(const std::string& workload, uint64_t seed, bool trace) {
  RunOptions options;
  options.workload = workload;
  options.seed = seed;
  options.seconds = 0.3;
  options.trace = trace;
  options.profile = SmokeProfile();
  Tracer tracer;
  return RunWorkload(options, &tracer);
}

TEST(SpecTest, MetricListsMatchBenchmarkJson) {
  EXPECT_EQ(NameUnits(MetricUnits(false)), SpecMetrics("end_to_end"));
  EXPECT_EQ(NameUnits(MetricUnits(true)), SpecMetrics("per_layer"));
}

class WorkloadTest : public ::testing::TestWithParam<std::string> {};

TEST_P(WorkloadTest, SmokeRunPassesItsChecksAndNamesEveryMetric) {
  for (bool trace : {false, true}) {
    const Outcome out = SmokeRun(GetParam(), 3, trace);
    EXPECT_GT(out.attempted, 0);
    EXPECT_EQ(out.failed, 0) << "trace=" << trace;
    const std::string line = ResultLine(out);
    EXPECT_NE(line.find("\"correct\": true"), std::string::npos) << line;
    EXPECT_EQ(LineMetrics(line), SpecMetrics(trace ? "per_layer" : "end_to_end"));
  }
}

TEST_P(WorkloadTest, SeedFixesInputsAndOutputs) {
  const Outcome a = SmokeRun(GetParam(), 5, false);
  const Outcome b = SmokeRun(GetParam(), 5, false);
  const Outcome c = SmokeRun(GetParam(), 6, false);
  EXPECT_EQ(a.input_fingerprint, b.input_fingerprint);
  EXPECT_EQ(a.output_fingerprint, b.output_fingerprint);
  EXPECT_NE(a.input_fingerprint, c.input_fingerprint);
  EXPECT_NE(a.output_fingerprint, c.output_fingerprint);
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, WorkloadTest,
                         ::testing::ValuesIn(WorkloadNames()),
                         [](const auto& info) { return info.param; });

}  // namespace
}  // namespace fewner::perfbench
