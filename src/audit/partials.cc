#include "audit/partials.h"

#include <cstdint>
#include <utility>

#include "metrics/fairness_metric.h"
#include "obs/obs.h"

namespace fairlaw::audit {

Result<std::vector<int>> BinaryColumn(const data::Table& table,
                                      const std::string& name) {
  FAIRLAW_ASSIGN_OR_RETURN(const data::Column* column, table.GetColumn(name));
  FAIRLAW_ASSIGN_OR_RETURN(std::vector<double> values, column->ToDoubles());
  std::vector<int> out(values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    if (values[i] != 0.0 && values[i] != 1.0) {
      return Status::Invalid("column '" + name + "' must be binary 0/1");
    }
    out[i] = values[i] == 1.0 ? 1 : 0;
  }
  return out;
}

Result<std::vector<std::string>> StringKeys(const data::Table& table,
                                            const std::string& name) {
  FAIRLAW_ASSIGN_OR_RETURN(const data::Column* column, table.GetColumn(name));
  if (column->null_count() > 0) {
    return Status::Invalid("column '" + name + "' has nulls; audits require "
                           "explicit missing-value handling upstream");
  }
  std::vector<std::string> out(column->size());
  for (size_t i = 0; i < column->size(); ++i) {
    out[i] = column->ValueToString(i);
  }
  return out;
}

ChunkPartial ProcessChunk(const data::Table& chunk, const AuditConfig& config,
                          const std::string& parent_path) {
  obs::TraceSpan span("audit_chunk", parent_path);
  obs::GetCounter("audit.chunks_processed")->Increment();
  ChunkPartial partial;
  metrics::MetricInput input;
  {
    Result<std::vector<std::string>> groups =
        StringKeys(chunk, config.protected_column);
    partial.protected_status = groups.status();
    if (groups.status().ok()) input.groups = std::move(groups).ValueOrDie();
  }
  {
    Result<std::vector<int>> predictions =
        BinaryColumn(chunk, config.prediction_column);
    partial.prediction_status = predictions.status();
    if (predictions.status().ok()) {
      input.predictions = std::move(predictions).ValueOrDie();
    }
  }
  if (!config.label_column.empty()) {
    Result<std::vector<int>> labels = BinaryColumn(chunk, config.label_column);
    partial.label_status = labels.status();
    if (labels.status().ok()) input.labels = std::move(labels).ValueOrDie();
  }
  std::vector<double> scores;
  if (!config.score_column.empty()) {
    Result<const data::Column*> score_column =
        chunk.GetColumn(config.score_column);
    if (!score_column.status().ok()) {
      partial.score_status = score_column.status();
    } else {
      Result<std::vector<double>> values =
          std::move(score_column).ValueOrDie()->ToDoubles();
      partial.score_status = values.status();
      if (values.status().ok()) scores = std::move(values).ValueOrDie();
    }
  }
  std::vector<std::string> strata;
  if (!config.strata_columns.empty()) {
    Result<std::vector<std::string>> chunk_strata =
        StrataFromTable(chunk, config.strata_columns);
    partial.strata_status = chunk_strata.status();
    if (chunk_strata.status().ok()) {
      strata = std::move(chunk_strata).ValueOrDie();
    }
  }
  if (!partial.protected_status.ok() || !partial.prediction_status.ok() ||
      !partial.label_status.ok() || !partial.score_status.ok() ||
      !partial.strata_status.ok()) {
    return partial;
  }

  partial.partition_status = input.Validate(/*require_labels=*/false);
  if (!partial.partition_status.ok()) return partial;
  metrics::AccumulateGroupCounts(input, &partial.counts);
  for (size_t i = 0; i < strata.size(); ++i) {
    partial.strata_counts.Stratum(strata[i])->AddRow(input.groups[i],
                                                     input.predictions[i]);
  }
  if (!config.score_column.empty()) {
    for (size_t i = 0; i < scores.size(); ++i) {
      partial.score_series.Append(
          partial.score_series.KeyIndex(input.groups[i]), scores[i],
          static_cast<uint8_t>(input.labels[i]));
    }
    partial.scores = std::move(scores);
  }
  return partial;
}

void MergedPartials::Fold(ChunkPartial&& partial) {
  RecordFirst(&protected_status_, partial.protected_status);
  RecordFirst(&prediction_status_, partial.prediction_status);
  RecordFirst(&label_status_, partial.label_status);
  RecordFirst(&partition_status_, partial.partition_status);
  RecordFirst(&score_status_, partial.score_status);
  RecordFirst(&strata_status_, partial.strata_status);
  if (!FirstError().ok()) return;  // result discarded; skip the merge work
  counts_.MergeFrom(partial.counts);
  strata_counts_.MergeFrom(partial.strata_counts);
  score_series_.MergeFrom(partial.score_series);
  scores_.insert(scores_.end(), partial.scores.begin(),
                 partial.scores.end());
}

Status MergedPartials::FirstError() const {
  for (const Status* status :
       {&protected_status_, &prediction_status_, &label_status_,
        &partition_status_, &score_status_, &strata_status_}) {
    if (!status->ok()) return *status;
  }
  return Status::OK();
}

}  // namespace fairlaw::audit
