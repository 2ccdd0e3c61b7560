// Per-type precision/recall/F1 breakdown across evaluation episodes.
//
// The paper reports episode-averaged micro-F1; practitioners additionally
// want to know WHICH entity types an adapted model handles (the paper's
// qualitative §4.5.3 hints at this: "Typing is a challenging task because
// there are 200 types in FG-NER").  This module aggregates span outcomes per
// *type name* (not per episode slot), so results are comparable across
// episodes with different slot assignments.

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "models/encoding.h"
#include "text/bio.h"

namespace fewner::eval {

/// Accumulates per-type-name span counts across episodes.
class PerTypeScorer {
 public:
  /// Adds one episode's predictions.  `types` maps slots to type names (the
  /// episode's way order).
  void AddEpisode(const models::EncodedEpisode& episode,
                  const std::vector<std::string>& types,
                  const std::vector<std::vector<int64_t>>& predictions);

  const std::map<std::string, text::SpanCounts>& counts() const { return counts_; }

  /// Renders a compact "type: P/R/F1 (gold n)" report, worst F1 first.
  std::string Report() const;

  /// CSV with header "type,gold,returned,correct,precision,recall,f1".
  std::string ToCsv() const;

 private:
  std::map<std::string, text::SpanCounts> counts_;
};

}  // namespace fewner::eval
