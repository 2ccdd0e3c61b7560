#include "eval/per_type.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "util/status.h"
#include "util/string_util.h"

namespace fewner::eval {

void PerTypeScorer::AddEpisode(const models::EncodedEpisode& episode,
                               const std::vector<std::string>& types,
                               const std::vector<std::vector<int64_t>>& predictions) {
  FEWNER_CHECK(predictions.size() == episode.query.size(),
               "per-type scoring: prediction count mismatch");
  auto type_of = [&](const text::Span& span) -> const std::string& {
    const size_t slot = static_cast<size_t>(std::stoll(span.label));
    FEWNER_CHECK(slot < types.size(), "slot " << slot << " outside episode ways");
    return types[slot];
  };
  // Each query's spans, grouped by type name, go through the same counter as
  // EpisodeF1, so the per-type counts always sum to the episode's counts.
  for (size_t q = 0; q < episode.query.size(); ++q) {
    // type name -> (gold spans, predicted spans) of this sentence
    std::map<std::string, std::pair<std::vector<text::Span>, std::vector<text::Span>>>
        by_type;
    for (text::Span& g : text::TagsToSpans(episode.query[q].tags)) {
      by_type[type_of(g)].first.push_back(std::move(g));
    }
    for (text::Span& p : text::TagsToSpans(predictions[q])) {
      by_type[type_of(p)].second.push_back(std::move(p));
    }
    for (const auto& [type, spans] : by_type) {
      counts_[type].Accumulate(spans.first, spans.second);
    }
  }
}

std::string PerTypeScorer::Report() const {
  std::vector<std::pair<std::string, text::SpanCounts>> rows(counts_.begin(),
                                                       counts_.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second.F1() < b.second.F1();
  });
  std::ostringstream oss;
  for (const auto& [type, c] : rows) {
    oss << "  " << util::Pad(type, 18, /*pad_left=*/false) << " P "
        << util::FormatDouble(c.Precision() * 100, 1) << "  R "
        << util::FormatDouble(c.Recall() * 100, 1) << "  F1 "
        << util::FormatDouble(c.F1() * 100, 1) << "  (gold " << c.gold << ")\n";
  }
  return oss.str();
}

std::string PerTypeScorer::ToCsv() const {
  std::ostringstream oss;
  oss << "type,gold,returned,correct,precision,recall,f1\n";
  for (const auto& [type, c] : counts_) {
    oss << type << "," << c.gold << "," << c.returned << "," << c.correct << ","
        << c.Precision() << "," << c.Recall() << "," << c.F1() << "\n";
  }
  return oss.str();
}

}  // namespace fewner::eval
