#include "audit/partials.h"

#include <cstdint>
#include <map>
#include <utility>

#include "obs/obs.h"

namespace fairlaw::audit {

Result<data::KeyCodes> AuditKeyCodes(const data::Table& table,
                                     const std::string& name) {
  FAIRLAW_ASSIGN_OR_RETURN(const data::Column* column, table.GetColumn(name));
  if (column->null_count() > 0) {
    return Status::Invalid("column '" + name + "' has nulls; audits require "
                           "explicit missing-value handling upstream");
  }
  return data::EncodeKeys(*column);
}

Result<data::KeyCodes> StrataCodes(
    const data::Table& table, const std::vector<std::string>& strata_columns) {
  if (strata_columns.empty()) {
    return Status::Invalid("StrataFromTable: no strata columns");
  }
  std::vector<data::KeyCodes> columns;
  for (const std::string& name : strata_columns) {
    FAIRLAW_ASSIGN_OR_RETURN(data::KeyCodes column, AuditKeyCodes(table, name));
    columns.push_back(std::move(column));
  }
  if (columns.size() == 1) return std::move(columns[0]);
  // Each distinct code tuple is rendered once, at its first row.
  data::KeyCodes strata;
  strata.codes.resize(table.num_rows());
  std::map<std::vector<uint32_t>, uint32_t> slot_of;
  std::vector<uint32_t> tuple(columns.size());
  for (size_t row = 0; row < strata.codes.size(); ++row) {
    for (size_t c = 0; c < columns.size(); ++c) {
      tuple[c] = columns[c].codes[row];
    }
    const auto [it, inserted] = slot_of.try_emplace(tuple, 0);
    if (inserted) {
      std::string key = columns[0].dictionary.keys()[tuple[0]];
      for (size_t c = 1; c < columns.size(); ++c) {
        key += "|" + columns[c].dictionary.keys()[tuple[c]];
      }
      it->second = static_cast<uint32_t>(strata.dictionary.Insert(key));
    }
    strata.codes[row] = it->second;
  }
  return strata;
}

ChunkPartial ProcessChunk(const data::Table& chunk, const AuditConfig& config,
                          const std::string& parent_path) {
  obs::TraceSpan span("audit_chunk", parent_path);
  obs::GetCounter("audit.chunks_processed")->Increment();
  ChunkPartial partial;
  const bool with_labels = !config.label_column.empty();
  const bool with_scores = !config.score_column.empty();
  const bool with_strata = !config.strata_columns.empty();

  Result<data::KeyCodes> groups =
      AuditKeyCodes(chunk, config.protected_column);
  partial.step_status[kProtectedStep] = groups.status();
  Result<std::vector<uint8_t>> predictions =
      data::BinaryValues(chunk, config.prediction_column);
  partial.step_status[kPredictionStep] = predictions.status();
  Result<std::vector<uint8_t>> labels = std::vector<uint8_t>();
  if (with_labels) labels = data::BinaryValues(chunk, config.label_column);
  partial.step_status[kLabelStep] = labels.status();
  Result<std::vector<double>> scores = std::vector<double>();
  if (with_scores) {
    Result<const data::Column*> column = chunk.GetColumn(config.score_column);
    if (column.ok()) {
      scores = (*column)->ToDoubles();
    } else {
      scores = column.status();
    }
  }
  partial.step_status[kScoreStep] = scores.status();
  Result<data::KeyCodes> strata = data::KeyCodes();
  if (with_strata) strata = StrataCodes(chunk, config.strata_columns);
  partial.step_status[kStrataStep] = strata.status();
  if (!groups.ok() || !predictions.ok() || !labels.ok() || !scores.ok() ||
      !strata.ok()) {
    return partial;
  }

  // Accumulator slots follow code order, which is first-seen row order,
  // so every row tallies by its code.
  const data::KeyCodes& keys = *groups;
  const std::vector<uint8_t>& preds = *predictions;
  const std::vector<uint8_t>& ys = *labels;
  const std::vector<std::string>& group_keys = keys.dictionary.keys();
  for (const std::string& key : group_keys) partial.counts.KeyIndex(key);
  for (size_t row = 0; row < keys.codes.size(); ++row) {
    partial.counts.AddRow(keys.codes[row], preds[row],
                          with_labels ? ys[row] : 0);
  }
  if (with_strata) {
    // Each distinct (stratum, group) cell resolves its accumulator and
    // slot once, at its first row; strata are inserted first so the
    // accumulator pointers stay put.
    const std::vector<std::string>& strata_keys = strata->dictionary.keys();
    for (const std::string& key : strata_keys) {
      partial.strata_counts.Stratum(key);
    }
    std::map<std::pair<uint32_t, uint32_t>,
             std::pair<stats::GroupCountsAccumulator*, size_t>>
        cells;
    for (size_t row = 0; row < keys.codes.size(); ++row) {
      const uint32_t stratum = strata->codes[row];
      const uint32_t group = keys.codes[row];
      auto [it, inserted] = cells.try_emplace({stratum, group});
      if (inserted) {
        it->second.first =
            partial.strata_counts.Stratum(strata_keys[stratum]);
        it->second.second = it->second.first->KeyIndex(group_keys[group]);
      }
      it->second.first->AddRow(it->second.second, preds[row]);
    }
  }
  if (with_scores) {
    for (const std::string& key : group_keys) {
      partial.score_series.KeyIndex(key);
    }
    for (size_t row = 0; row < keys.codes.size(); ++row) {
      partial.score_series.Append(keys.codes[row], (*scores)[row], ys[row]);
    }
    partial.scores = std::move(*scores);
  }
  return partial;
}

void MergedPartials::Fold(ChunkPartial&& partial) {
  for (size_t step = 0; step < kNumExtractionSteps; ++step) {
    if (step_status_[step].ok()) step_status_[step] = partial.step_status[step];
  }
  if (!FirstError().ok()) return;  // result discarded; skip the merge work
  counts_.MergeFrom(partial.counts);
  strata_counts_.MergeFrom(partial.strata_counts);
  score_series_.MergeFrom(partial.score_series);
  scores_.insert(scores_.end(), partial.scores.begin(),
                 partial.scores.end());
}

Status MergedPartials::FirstError() const {
  for (const Status& status : step_status_) {
    if (!status.ok()) return status;
  }
  return Status::OK();
}

}  // namespace fairlaw::audit
