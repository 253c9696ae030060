// fairlaw_replay — traced in-process replay of one e2ebench workload.
//
//   fairlaw_replay audit <csv> --reference=<fairlaw_audit --json stdout>
//       --protected=gender --pred=hired [--label=merit] [--strata=race]
//       [--proxies=a,b] [--subgroups=a,b] --threads=4
//   fairlaw_replay serve <jsonl> --reference=<fairlaw_serve stdout>
//       [--with-strata] [--bucket-width=1000] [--window-buckets=60]
//       --threads=4
//
// Feeds the same generated input the binary under test consumed through
// the library's public calls, in the order fairlaw_audit / fairlaw_serve
// make them, and times each call. The program itself carries no tracing:
// every span here wraps a call from outside. The replay then checks that
// its results serialize byte-identically to the binary's own output (the
// suite report; the serve '"op":"query"' lines), so the layer times
// describe the same program the end-to-end run measured.
//
// Prints one JSON object on stdout:
//   {"mode":..., "identical":bool, "checks":{name:bool,...}, "records":n,
//    "input_bytes":n, "wall_ns":n, "layers":{name:{"ns":n,"calls":n}},
//    "counts":{name:n}}
// Exit codes: 0 = every check holds, 3 = an output differs, 1 = error.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "audit/auditor.h"
#include "audit/evaluate.h"
#include "audit/partials.h"
#include "audit/proxy.h"
#include "audit/report_io.h"
#include "audit/sampling_adequacy.h"
#include "audit/source.h"
#include "audit/subgroup.h"
#include "audit/windowed.h"
#include "base/json_writer.h"
#include "base/thread_pool.h"
#include "core/json.h"
#include "core/suite.h"
#include "data/chunked.h"
#include "data/csv.h"
#include "legal/four_fifths.h"
#include "obs/obs.h"
#include "serve/api.h"
#include "serve/json_value.h"
#include "serve/service.h"
#include "serve/window.h"
#include "tools/cli.h"

namespace {

using fairlaw::Result;
using fairlaw::Status;

struct Options {
  std::string mode;
  std::string input;
  std::string reference;
  int64_t threads = 1;
  // audit
  std::string protected_column;
  std::string prediction_column;
  std::string label_column;
  std::vector<std::string> strata;
  std::vector<std::string> proxies;
  std::vector<std::string> subgroups;
  // serve
  bool with_strata = false;
  int64_t bucket_width = 1000;
  int64_t window_buckets = 60;
};

/// Layer spans, keyed by layer name. The harness times with
/// steady_clock directly rather than through obs, so the numbers do not
/// depend on the program's own telemetry switches.
class Trace {
 public:
  using Clock = std::chrono::steady_clock;

  template <typename F>
  auto Time(const std::string& layer, F&& work) {
    const Clock::time_point start = Clock::now();
    auto result = work();
    Add(layer, Clock::now() - start);
    return result;
  }

  void Add(const std::string& layer, Clock::duration elapsed) {
    Span& span = spans_[layer];
    span.ns += std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
                   .count();
    span.calls += 1;
  }

  void Count(const std::string& name, int64_t value) { counts_[name] += value; }
  void Check(const std::string& name, bool ok) { checks_[name] = ok; }

  bool AllChecksHold() const {
    for (const auto& [name, ok] : checks_) {
      if (!ok) return false;
    }
    return !checks_.empty();
  }

  std::string ToJson(const Options& options, int64_t records,
                     int64_t input_bytes, Clock::duration wall) const {
    fairlaw::JsonWriter json;
    json.BeginObject();
    json.Field("mode", options.mode);
    json.Field("identical", AllChecksHold());
    json.Key("checks");
    json.BeginObject();
    for (const auto& [name, ok] : checks_) json.Field(name, ok);
    json.EndObject();
    json.Field("records", records);
    json.Field("input_bytes", input_bytes);
    json.Field("wall_ns", static_cast<int64_t>(
                              std::chrono::duration_cast<
                                  std::chrono::nanoseconds>(wall)
                                  .count()));
    json.Key("layers");
    json.BeginObject();
    for (const auto& [name, span] : spans_) {
      json.Key(name);
      json.BeginObject();
      json.Field("ns", span.ns);
      json.Field("calls", span.calls);
      json.EndObject();
    }
    json.EndObject();
    json.Key("counts");
    json.BeginObject();
    for (const auto& [name, value] : counts_) json.Field(name, value);
    json.EndObject();
    json.EndObject();
    // flowcheck: allow-unchecked-result (every scope above is balanced)
    return json.Finish().ValueOrDie();
  }

 private:
  struct Span {
    int64_t ns = 0;
    int64_t calls = 0;
  };
  std::map<std::string, Span> spans_;
  std::map<std::string, int64_t> counts_;
  std::map<std::string, bool> checks_;
};

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open '" + path + "'");
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  return text;
}

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  size_t begin = 0;
  while (begin < text.size()) {
    size_t end = text.find('\n', begin);
    if (end == std::string::npos) end = text.size();
    lines.emplace_back(text, begin, end - begin);
    begin = end + 1;
  }
  return lines;
}

bool IsQueryResponse(std::string_view line) {
  return line.find("\"op\":\"query\"") != std::string_view::npos;
}

// ---------------------------------------------------------------- audit

/// Mirrors fairlaw_audit's default (in-memory) path — ReadCsvFile, then
/// RunFairnessSuite's calls one by one — and then times the metric
/// engine's own phases on the same table.
Status ReplayAudit(const Options& options, Trace* trace, int64_t* records) {
  fairlaw::SuiteConfig suite;
  fairlaw::audit::AuditConfig& config = suite.audit;
  config.protected_column = options.protected_column;
  config.prediction_column = options.prediction_column;
  config.label_column = options.label_column;
  config.strata_columns = options.strata;
  config.num_threads = static_cast<size_t>(options.threads);
  suite.subgroup_options.num_threads = static_cast<size_t>(options.threads);
  suite.proxy_candidates = options.proxies;
  suite.subgroup_columns = options.subgroups;

  FAIRLAW_ASSIGN_OR_RETURN(std::string reference, ReadFile(options.reference));
  Result<fairlaw::data::Table> table = trace->Time(
      "data.read_csv", [&] { return fairlaw::data::ReadCsvFile(options.input); });
  FAIRLAW_RETURN_NOT_OK(table.status());
  *records = static_cast<int64_t>(table->num_rows());

  fairlaw::SuiteReport report;
  Result<fairlaw::audit::AuditResult> audit = trace->Time(
      "audit.run", [&] { return fairlaw::audit::RunAudit(*table, config); });
  FAIRLAW_RETURN_NOT_OK(audit.status());
  report.audit = std::move(*audit);
  report.all_clear = report.audit.all_satisfied;

  if (!suite.proxy_candidates.empty()) {
    Result<std::vector<fairlaw::audit::ProxyFinding>> proxies =
        trace->Time("audit.proxy", [&] {
          return fairlaw::audit::DetectProxies(*table, config.protected_column,
                                               suite.proxy_candidates,
                                               suite.proxy_options);
        });
    FAIRLAW_RETURN_NOT_OK(proxies.status());
    report.proxies = std::move(*proxies);
    for (const fairlaw::audit::ProxyFinding& finding : report.proxies) {
      if (finding.flagged) report.all_clear = false;
    }
  }
  if (!suite.subgroup_columns.empty()) {
    Result<fairlaw::audit::SubgroupAuditResult> subgroups =
        trace->Time("audit.subgroup", [&] {
          return fairlaw::audit::AuditSubgroups(
              *table, suite.subgroup_columns, config.prediction_column,
              suite.subgroup_options);
        });
    FAIRLAW_RETURN_NOT_OK(subgroups.status());
    trace->Count("audit.subgroup.nodes",
                 static_cast<int64_t>(subgroups->subgroups_examined));
    if (subgroups->any_violation) report.all_clear = false;
    report.subgroups = std::move(*subgroups);
  }
  Result<fairlaw::metrics::MetricInput> input =
      trace->Time("audit.metric_input", [&] {
        return fairlaw::audit::MetricInputFromTable(
            *table, config.protected_column, config.prediction_column,
            config.label_column);
      });
  FAIRLAW_RETURN_NOT_OK(input.status());
  if (suite.check_sampling) {
    Result<fairlaw::audit::SamplingReport> sampling =
        trace->Time("audit.sampling", [&] {
          return fairlaw::audit::AssessSamplingAdequacy(
              *input, suite.sampling_options);
        });
    FAIRLAW_RETURN_NOT_OK(sampling.status());
    report.sampling = std::move(*sampling);
  }
  if (suite.check_four_fifths) {
    Result<fairlaw::legal::FourFifthsResult> four_fifths = trace->Time(
        "legal.four_fifths", [&] { return fairlaw::legal::FourFifthsTest(*input); });
    FAIRLAW_RETURN_NOT_OK(four_fifths.status());
    if (!four_fifths->passed) report.all_clear = false;
    report.four_fifths = std::move(*four_fifths);
  }
  Result<std::string> json = trace->Time(
      "audit.report", [&] { return fairlaw::SuiteReportToJson(report); });
  FAIRLAW_RETURN_NOT_OK(json.status());
  trace->Check("suite_report_matches_binary", *json + "\n" == reference);

  // The engine inside RunAudit, phase by phase: chunking, the per-chunk
  // tally (serially, so the sum is work rather than wall), the in-order
  // merge, and evaluation. Must reproduce RunAudit's result exactly.
  const std::string parent_path = fairlaw::obs::CurrentPath();
  Result<fairlaw::data::ChunkedTable> chunked =
      trace->Time("data.to_chunked", [&] {
        return fairlaw::data::ChunkedTable::FromTable(*table, config.chunk_rows);
      });
  FAIRLAW_RETURN_NOT_OK(chunked.status());
  fairlaw::audit::MergedPartials merged;
  for (size_t i = 0; i < chunked->num_chunks(); ++i) {
    fairlaw::audit::ChunkPartial partial = trace->Time("audit.fold", [&] {
      return fairlaw::audit::ProcessChunk(chunked->chunk(i), config,
                                          parent_path);
    });
    trace->Time("audit.merge", [&] {
      merged.Fold(std::move(partial));
      return 0;
    });
  }
  Result<fairlaw::audit::AuditResult> evaluated =
      trace->Time("audit.evaluate", [&] {
        return fairlaw::audit::EvaluateMergedPartials(merged, config,
                                                      parent_path);
      });
  FAIRLAW_RETURN_NOT_OK(evaluated.status());
  FAIRLAW_ASSIGN_OR_RETURN(std::string engine_json,
                           fairlaw::audit::AuditResultToJson(*evaluated));
  FAIRLAW_ASSIGN_OR_RETURN(std::string run_json,
                           fairlaw::audit::AuditResultToJson(report.audit));
  trace->Check("engine_phases_match_run_audit", engine_json == run_json);

  // The same RunAudit on one thread, for the in-process thread scaling.
  fairlaw::audit::AuditConfig serial = config;
  serial.num_threads = 1;
  Result<fairlaw::audit::AuditResult> serial_audit = trace->Time(
      "audit.run_serial", [&] { return fairlaw::audit::RunAudit(*table, serial); });
  FAIRLAW_RETURN_NOT_OK(serial_audit.status());
  FAIRLAW_ASSIGN_OR_RETURN(std::string serial_json,
                           fairlaw::audit::AuditResultToJson(*serial_audit));
  trace->Check("run_audit_thread_invariant", serial_json == run_json);
  return Status::OK();
}

// ---------------------------------------------------------------- serve

/// Layer a request line's HandleLine time is charged to: ingest lines to
/// serve.handle_ingest, queries to serve.query.<type>. Classified from
/// the raw line so the lookup costs nothing inside the timed call.
std::string HandleLayer(std::string_view line) {
  if (line.find("\"op\":\"ingest\"") != std::string_view::npos) {
    return "serve.handle_ingest";
  }
  for (const char* type :
       {"audit", "four_fifths", "drift", "quantiles", "drilldown"}) {
    if (line.find("\"type\":\"" + std::string(type) + "\"") !=
        std::string_view::npos) {
      return "serve.query." + std::string(type);
    }
  }
  return "serve.handle_other";
}

/// Pulls an integer field out of an ingest ack ("accepted":12).
int64_t AckField(std::string_view ack, std::string_view field) {
  const std::string key = "\"" + std::string(field) + "\":";
  const size_t at = ack.find(key);
  if (at == std::string_view::npos) return 0;
  int64_t value = 0;
  for (size_t i = at + key.size(); i < ack.size() && ack[i] >= '0' &&
                                   ack[i] <= '9';
       ++i) {
    value = value * 10 + (ack[i] - '0');
  }
  return value;
}

/// One fresh Service over every line, as the daemon's process runs it;
/// each line's HandleLine time is charged to layer_of(line).
template <typename LayerOf>
std::vector<std::string> RunService(const fairlaw::serve::ServeConfig& config,
                                    const std::vector<std::string>& lines,
                                    LayerOf layer_of, Trace* trace) {
  // Query frames embed the process-wide serve.* counters; start them
  // from zero as the daemon's fresh process does.
  fairlaw::obs::ResetAll();
  fairlaw::serve::Service service(config);
  std::vector<std::string> responses;
  responses.reserve(lines.size());
  for (const std::string& line : lines) {
    responses.push_back(trace->Time(
        layer_of(line), [&] { return service.HandleLine(line); }));
  }
  return responses;
}

std::vector<std::string> QueryLines(std::vector<std::string> responses) {
  std::vector<std::string> queries;
  for (std::string& response : responses) {
    if (IsQueryResponse(response)) queries.push_back(std::move(response));
  }
  return queries;
}

/// The frame HandleQuery wraps around every answer: the prelude (schema
/// version, op, type, window span), the body, and the schedule-invariant
/// obs counters. service.cc keeps its frame helpers private, so they are
/// restated here; the byte-identity check against the daemon's query
/// lines catches any drift between the two.
template <typename Body>
std::string QueryFrame(const std::string& type,
                       const fairlaw::serve::WindowRing& ring, Body&& body) {
  fairlaw::JsonWriter json;
  json.BeginObject();
  json.Field("schema_version", fairlaw::audit::kReportSchemaVersion);
  json.Field("op", std::string("query"));
  json.Field("type", type);
  json.Key("window");
  json.BeginObject();
  json.Field("start_bucket", ring.window_start());
  json.Field("watermark", ring.watermark());
  json.Field("events", static_cast<int64_t>(ring.num_events()));
  json.EndObject();
  body(&json);
  json.Key("obs");
  json.BeginObject();
  for (const char* name : {"serve.events_ingested", "serve.events_rejected",
                           "serve.window_merges"}) {
    json.Field(name,
               static_cast<int64_t>(fairlaw::obs::GetCounter(name)->Value()));
  }
  json.EndObject();
  json.EndObject();
  // flowcheck: allow-unchecked-result (every scope above is balanced)
  return json.Finish().ValueOrDie();
}

/// Answers one query the way Service::HandleQuery does, timing its
/// phases: window merge, evaluation (Auditor::Run on the window,
/// EvaluateMetrics for a drill-down, or the sketch reads for quantiles),
/// and serialization of the whole response frame. A query that cannot
/// be answered yields the daemon's error frame, not a replay error.
std::string ReplayQuery(const fairlaw::serve::QueryRequest& query,
                        const fairlaw::serve::WindowRing& ring,
                        fairlaw::ThreadPool* pool,
                        const fairlaw::audit::AuditConfig& audit_config,
                        Trace* trace) {
  const fairlaw::audit::WindowedPartial window =
      trace->Time("serve.window_merge", [&] { return ring.Window(pool); });
  auto frame = [&](auto&& body) {
    return trace->Time("serve.serialize",
                       [&] { return QueryFrame(query.type, ring, body); });
  };
  auto error = [&](const Status& status) {
    return frame([&](fairlaw::JsonWriter* json) {
      fairlaw::audit::WriteErrorObject(json, status);
    });
  };

  if (query.type == "audit" || query.type == "four_fifths" ||
      query.type == "drift") {
    Result<fairlaw::audit::AuditResult> result =
        trace->Time("audit.window_evaluate", [&] {
          return fairlaw::audit::Auditor::Run(
              fairlaw::audit::AuditSource::FromWindow(window), audit_config);
        });
    if (!result.ok()) return error(result.status());
    if (query.type == "audit") {
      return frame([&](fairlaw::JsonWriter* json) {
        json->Key("findings");
        fairlaw::audit::WriteAuditFindings(json, *result);
      });
    }
    if (query.type == "four_fifths") {
      Result<const fairlaw::metrics::MetricReport*> report =
          result->Find("disparate_impact_ratio");
      if (!report.ok()) return error(report.status());
      return frame([&](fairlaw::JsonWriter* json) {
        json->Key("four_fifths");
        fairlaw::audit::WriteMetricReport(json, **report);
      });
    }
    if (!result->score_distribution.has_value()) {
      return error(fairlaw::Status::FailedPrecondition(
          "drift: the windowed audit produced no score-distribution report"));
    }
    return frame([&](fairlaw::JsonWriter* json) {
      json->Key("score_distribution");
      fairlaw::audit::WriteScoreDistributionReport(json,
                                                   *result->score_distribution);
    });
  }

  if (query.type == "drilldown") {
    const fairlaw::stats::StratifiedCountsAccumulator& strata =
        window.strata_counts;
    size_t index = 0;
    while (index < strata.num_strata() &&
           strata.keys()[index] != query.stratum) {
      ++index;
    }
    if (index == strata.num_strata()) {
      return error(Status::NotFound("drilldown: stratum '" + query.stratum +
                                    "' not present in the window"));
    }
    fairlaw::audit::EvaluateInputs inputs;
    inputs.counts = &strata.stratum(index);
    inputs.has_labels = false;
    Result<fairlaw::audit::AuditResult> result =
        trace->Time("audit.window_evaluate", [&] {
          return fairlaw::audit::EvaluateMetrics(inputs, audit_config,
                                                 fairlaw::obs::CurrentPath());
        });
    if (!result.ok()) return error(result.status());
    return frame([&](fairlaw::JsonWriter* json) {
      json->Field("stratum", query.stratum);
      json->Key("findings");
      fairlaw::audit::WriteAuditFindings(json, *result);
    });
  }

  // "quantiles": QueryRequest::Validate admits nothing else.
  const size_t slot = window.sketches.FindKey(query.group);
  if (slot >= window.sketches.num_keys()) {
    return error(Status::NotFound("quantiles: group '" + query.group +
                                  "' not present in the window"));
  }
  const fairlaw::stats::KllSketch& sketch = window.sketches.sketch(slot);
  std::vector<double> values;
  const Status status = trace->Time("stats.quantiles", [&] {
    for (double q : query.quantiles) {
      FAIRLAW_ASSIGN_OR_RETURN(double value, sketch.Quantile(q));
      values.push_back(value);
    }
    return Status::OK();
  });
  if (!status.ok()) return error(status);
  return frame([&](fairlaw::JsonWriter* json) {
    json->Field("group", query.group);
    json->Field("count", static_cast<int64_t>(sketch.count()));
    json->Key("quantiles");
    json->BeginArray();
    for (size_t i = 0; i < values.size(); ++i) {
      json->BeginObject();
      json->Field("q", query.quantiles[i]);
      json->Field("value", values[i]);
      json->EndObject();
    }
    json->EndArray();
  });
}

Status ReplayServe(const Options& options, Trace* trace, int64_t* records) {
  fairlaw::serve::ServeConfig config;
  config.with_strata = options.with_strata;
  config.bucket_width = options.bucket_width;
  config.num_buckets = static_cast<size_t>(options.window_buckets);
  config.num_threads = static_cast<size_t>(options.threads);
  FAIRLAW_RETURN_NOT_OK(config.Validate());

  FAIRLAW_ASSIGN_OR_RETURN(std::string stream, ReadFile(options.input));
  FAIRLAW_ASSIGN_OR_RETURN(std::string reference, ReadFile(options.reference));
  const std::vector<std::string> lines = SplitLines(stream);
  const std::vector<std::string> expected =
      QueryLines(SplitLines(reference));

  // The daemon's request path at the daemon's thread count, charged per
  // request kind; then the same stream on one thread.
  const std::vector<std::string> responses =
      RunService(config, lines, HandleLayer, trace);
  int64_t error_frames = 0;
  int64_t rejected = 0;
  for (const std::string& response : responses) {
    if (response.find("\"error\":{") != std::string::npos) ++error_frames;
    if (response.find("\"op\":\"ingest\"") != std::string::npos) {
      *records += AckField(response, "accepted");
      rejected += AckField(response, "rejected");
    }
  }
  trace->Count("serve.error_frames", error_frames);
  trace->Count("serve.events_rejected", rejected);
  const std::vector<std::string> queries = QueryLines(responses);
  trace->Check("query_lines_match_binary", queries == expected);
  fairlaw::serve::ServeConfig serial = config;
  serial.num_threads = 1;
  const auto serial_layer = [](std::string_view) {
    return std::string("serve.handle_serial");
  };
  trace->Check("query_lines_thread_invariant",
               QueryLines(RunService(serial, lines, serial_layer, trace)) ==
                   queries);

  // The same stream through the request path's public calls one by one,
  // as HandleLine makes them. Requests that fail to parse or decode get
  // an error frame from the daemon and are skipped here; the pass above
  // already counted them.
  fairlaw::obs::ResetAll();
  fairlaw::serve::WindowRing ring(config);
  std::unique_ptr<fairlaw::ThreadPool> pool;
  if (config.num_threads != 1) {
    pool = std::make_unique<fairlaw::ThreadPool>(config.num_threads);
  }
  const fairlaw::audit::AuditConfig audit_config = config.ToAuditConfig();
  std::vector<std::string> split_queries;
  for (const std::string& line : lines) {
    Result<fairlaw::serve::JsonValue> doc = trace->Time(
        "serve.parse", [&] { return fairlaw::serve::JsonValue::Parse(line); });
    if (!doc.ok()) continue;
    Result<fairlaw::serve::Request> request = trace->Time("serve.decode", [&] {
      return fairlaw::serve::ParseRequest(*doc, config);
    });
    if (!request.ok()) continue;
    switch (request->op) {
      case fairlaw::serve::Request::Op::kIngest:
        // Service::HandleIngest: a rejected event is counted, not fatal.
        trace->Time("serve.fold", [&] {
          uint64_t accepted = 0;
          uint64_t rejected_here = 0;
          for (const fairlaw::serve::Event& event : request->ingest.events) {
            Status status = event.Validate(config);
            if (status.ok()) status = ring.Ingest(event);
            if (status.ok()) {
              ++accepted;
            } else {
              ++rejected_here;
            }
          }
          fairlaw::obs::GetCounter("serve.events_ingested")
              ->Increment(accepted);
          fairlaw::obs::GetCounter("serve.events_rejected")
              ->Increment(rejected_here);
          return 0;
        });
        break;
      case fairlaw::serve::Request::Op::kQuery:
        split_queries.push_back(
            ReplayQuery(request->query, ring, pool.get(), audit_config, trace));
        break;
      case fairlaw::serve::Request::Op::kStats:
        break;
    }
  }
  trace->Check("split_query_lines_match_binary", split_queries == expected);
  return Status::OK();
}

Result<Options> Parse(int argc, char** argv, bool* show_help,
                      std::string* help_text) {
  Options options;
  fairlaw::cli::FlagSet flags(
      "fairlaw_replay", "<audit|serve> <input>",
      "Replays one benchmark input in-process, timing each layer's public\n"
      "calls, and checks the results against the binary's output.");
  flags.Add("reference", &options.reference,
            "stdout of the binary under test on the same input (required)");
  flags.Add("threads", &options.threads, "worker threads, as the binary ran",
            fairlaw::cli::Range<int64_t>{0, 512});
  flags.Section("audit");
  flags.Add("protected", &options.protected_column, "protected column");
  flags.Add("pred", &options.prediction_column, "decision column");
  flags.Add("label", &options.label_column, "outcome column");
  flags.Add("strata", &options.strata, "strata columns");
  flags.Add("proxies", &options.proxies, "proxy candidate columns");
  flags.Add("subgroups", &options.subgroups, "subgroup attribute columns");
  flags.Section("serve");
  flags.Add("with-strata", &options.with_strata, "events carry 'stratum'");
  flags.Add("bucket-width", &options.bucket_width, "event-time per bucket",
            fairlaw::cli::Range<int64_t>{1, int64_t{1} << 62});
  flags.Add("window-buckets", &options.window_buckets, "ring size",
            fairlaw::cli::Range<int64_t>{1, 1 << 20});
  *help_text = flags.Help();
  FAIRLAW_ASSIGN_OR_RETURN(fairlaw::cli::ParseResult parsed,
                           flags.Parse(argc, argv));
  if (parsed.help) {
    *show_help = true;
    return options;
  }
  if (parsed.positionals.size() != 2) {
    return Status::Invalid("expected a mode and an input file");
  }
  options.mode = parsed.positionals[0];
  options.input = parsed.positionals[1];
  if (options.mode != "audit" && options.mode != "serve") {
    return Status::Invalid("mode must be 'audit' or 'serve'");
  }
  if (options.reference.empty()) return Status::Invalid("--reference is required");
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  bool show_help = false;
  std::string help_text;
  Result<Options> options = Parse(argc, argv, &show_help, &help_text);
  if (!options.ok()) {
    std::fprintf(stderr, "error: %s\n\n%s", options.status().message().c_str(),
                 help_text.c_str());
    return 1;
  }
  if (show_help) {
    std::printf("%s", help_text.c_str());
    return 0;
  }

  Trace trace;
  int64_t records = 0;
  const Trace::Clock::time_point start = Trace::Clock::now();
  const Status status = options->mode == "audit"
                            ? ReplayAudit(*options, &trace, &records)
                            : ReplayServe(*options, &trace, &records);
  const Trace::Clock::duration wall = Trace::Clock::now() - start;
  if (!status.ok()) {
    std::fprintf(stderr, "replay error: %s\n", status.ToString().c_str());
    return 1;
  }
  std::error_code ec;
  const auto input_bytes = std::filesystem::file_size(options->input, ec);
  std::printf("%s\n",
              trace
                  .ToJson(*options, records,
                          ec ? 0 : static_cast<int64_t>(input_bytes), wall)
                  .c_str());
  return trace.AllChecksHold() ? 0 : 3;
}
