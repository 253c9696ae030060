#include "audit/source.h"

#include <deque>
#include <future>
#include <optional>
#include <utility>
#include <vector>

#include "audit/evaluate.h"
#include "audit/partials.h"
#include "base/thread_pool.h"
#include "data/chunked.h"
#include "obs/obs.h"

namespace fairlaw::audit {
namespace {

/// The error an audit of zero rows reports: a table of `schema` with no
/// rows probes the column checks first, then fails as empty input.
Status EmptyRunError(const data::Schema& schema, const AuditConfig& config) {
  data::TableBuilder builder(schema);
  FAIRLAW_ASSIGN_OR_RETURN(data::Table empty, builder.Finish());
  return EmptyAuditError(empty, config);
}

/// Folds `table` in chunks of config.chunk_rows rows, in row order, into
/// one result. Each chunk's task slices its own rows, so the copy runs
/// in parallel and no whole-table chunked copy is built; a table that is
/// one chunk is passed by reference with no copy at all.
Result<AuditResult> RunTable(const data::Table& table,
                             const AuditConfig& config) {
  obs::TraceSpan run_span("run_audit");
  obs::GetCounter("audit.runs")->Increment();
  const size_t num_rows = table.num_rows();
  obs::GetCounter("audit.rows_audited")->Increment(num_rows);
  // Morsels may run on pool workers whose span stack is empty; capturing
  // the scheduling thread's path here and passing it to TraceSpan keeps
  // the exported span tree identical for every thread count.
  const std::string parent_path = obs::CurrentPath();

  if (num_rows == 0) return EmptyRunError(table.schema(), config);

  const size_t num_chunks = data::NumChunks(num_rows, config.chunk_rows);
  obs::GetCounter("audit.morsels_scheduled")->Increment(num_chunks);
  std::vector<ChunkPartial> partials(num_chunks);
  ParallelFor(config.num_threads, num_chunks, [&](size_t c) {
    partials[c] =
        num_chunks == 1
            ? ProcessChunk(table, config, parent_path)
            : ProcessChunk(data::SliceChunk(table, config.chunk_rows, c),
                           config, parent_path);
  });
  MergedPartials merged;
  for (ChunkPartial& partial : partials) merged.Fold(std::move(partial));
  return EvaluateMergedPartials(merged, config, parent_path);
}

Result<AuditResult> RunCsv(const AuditSource::CsvSpec& spec,
                           const AuditConfig& config) {
  obs::TraceSpan run_span("run_audit");
  obs::GetCounter("audit.runs")->Increment();
  const std::string parent_path = obs::CurrentPath();

  data::CsvChunkReader::Options reader_options;
  reader_options.csv = spec.options;
  reader_options.chunk_rows =
      config.chunk_rows == 0 ? data::kDefaultChunkRows : config.chunk_rows;
  FAIRLAW_ASSIGN_OR_RETURN(
      data::CsvChunkReader reader,
      data::CsvChunkReader::Make(spec.path, reader_options));
  obs::GetCounter("audit.rows_audited")->Increment(reader.num_rows());

  if (reader.num_rows() == 0) return EmptyRunError(reader.schema(), config);

  MergedPartials merged;
  if (config.num_threads == 1) {
    // Serial streaming: read, tally, merge, drop — peak memory is one
    // chunk plus the merged accumulators.
    while (true) {
      FAIRLAW_ASSIGN_OR_RETURN(std::optional<data::Table> chunk,
                               reader.Next());
      if (!chunk.has_value()) break;
      obs::GetCounter("audit.morsels_scheduled")->Increment();
      merged.Fold(ProcessChunk(*chunk, config, parent_path));
    }
  } else {
    // Bounded in-flight window: the reader stays on this thread, workers
    // tally chunks, and the oldest in-flight chunk merges first — which
    // is chunk order, so the stream reproduces the in-memory result.
    // Deque slots are stable across push/pop at the ends, and the pool
    // is declared after the deque so its destructor joins the workers
    // before any slot they might still write goes away.
    struct InFlight {
      ChunkPartial partial;
      std::future<void> done;
    };
    std::deque<InFlight> in_flight;
    // The reader yields chunks one after another, so the pool outlives
    // every fan-out of the stream. lint: allow-owned-pool
    ThreadPool pool(config.num_threads);
    const size_t window = pool.num_threads() * 2;
    auto drain_front = [&merged, &in_flight] {
      in_flight.front().done.get();
      merged.Fold(std::move(in_flight.front().partial));
      in_flight.pop_front();
    };
    while (true) {
      FAIRLAW_ASSIGN_OR_RETURN(std::optional<data::Table> chunk,
                               reader.Next());
      if (!chunk.has_value()) break;
      if (in_flight.size() >= window) drain_front();
      in_flight.emplace_back();
      InFlight& slot = in_flight.back();
      obs::GetCounter("audit.morsels_scheduled")->Increment();
      slot.done = pool.Submit([&partial = slot.partial,
                               chunk = std::move(*chunk), &config,
                               &parent_path] {
        partial = ProcessChunk(chunk, config, parent_path);
      });
    }
    while (!in_flight.empty()) drain_front();
  }
  return EvaluateMergedPartials(merged, config, parent_path);
}

}  // namespace

Result<AuditResult> Auditor::Run(const AuditSource& source,
                                 const AuditConfig& config) {
  FAIRLAW_RETURN_NOT_OK(config.Validate());
  struct Dispatch {
    const AuditConfig& config;
    Result<AuditResult> operator()(const data::Table* table) const {
      return RunTable(*table, config);
    }
    Result<AuditResult> operator()(const AuditSource::CsvSpec& spec) const {
      return RunCsv(spec, config);
    }
    Result<AuditResult> operator()(const WindowedPartial* window) const {
      obs::TraceSpan run_span("run_audit");
      obs::GetCounter("audit.runs")->Increment();
      obs::GetCounter("audit.rows_audited")->Increment(window->num_rows);
      return RunWindowedAudit(*window, config, obs::CurrentPath());
    }
  };
  return std::visit(Dispatch{config}, source.value());
}

}  // namespace fairlaw::audit
