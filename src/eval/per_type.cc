#include "eval/per_type.h"

#include <algorithm>
#include <sstream>

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
  for (size_t q = 0; q < episode.query.size(); ++q) {
    const auto gold = text::TagsToSpans(episode.query[q].tags);
    const auto predicted = text::TagsToSpans(predictions[q]);
    for (const auto& g : gold) ++counts_[type_of(g)].gold;
    for (const auto& p : predicted) {
      text::SpanCounts& c = counts_[type_of(p)];
      ++c.returned;
      if (std::find(gold.begin(), gold.end(), p) != gold.end()) ++c.correct;
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
