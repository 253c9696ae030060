// Seeded fuzzing of the serve request path: valid request lines are
// mutated (byte flips, truncation, deep nesting, hostile numbers, NUL
// escapes, CR/LF framing) and fed through Service::HandleLine. Every
// response must be a well-formed JSON document, and a request answered
// with an error frame must leave the window exactly as it was. Each
// case draws from its own stats::Rng seed, which every failure prints.
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <string>
#include <string_view>
#include <vector>

#include "serve/api.h"
#include "serve/json_value.h"
#include "serve/service.h"
#include "stats/rng.h"

namespace fairlaw {
namespace {

using serve::JsonValue;
using serve::ServeConfig;
using serve::Service;
using stats::Rng;

constexpr uint64_t kBaseSeed = 0x5e27e0f1;
constexpr int kCases = 2000;

std::string Event(Rng* rng) {
  const char* groups[] = {"a", "b", "c"};
  const char* strata[] = {"s1", "s2"};
  return "{\"t\":" + std::to_string(rng->UniformInt(40)) + ",\"group\":\"" +
         groups[rng->UniformInt(3)] +
         "\",\"pred\":" + std::to_string(rng->UniformInt(2)) +
         ",\"label\":" + std::to_string(rng->UniformInt(2)) +
         ",\"score\":0." + std::to_string(rng->UniformInt(1000)) +
         ",\"stratum\":\"" + strata[rng->UniformInt(2)] + "\"}";
}

std::string IngestLine(Rng* rng) {
  std::string line = "{\"schema_version\":2,\"op\":\"ingest\",\"events\":[";
  const uint64_t count = 1 + rng->UniformInt(4);
  for (uint64_t i = 0; i < count; ++i) {
    if (i > 0) line += ",";
    line += Event(rng);
  }
  return line + "]}";
}

/// A valid request of every kind the daemon answers; half are ingests.
std::string BaseLine(Rng* rng) {
  switch (rng->UniformInt(12)) {
    case 0:
      return R"({"op":"query","type":"audit"})";
    case 1:
      return R"({"op":"query","type":"four_fifths"})";
    case 2:
      return R"({"op":"query","type":"drift"})";
    case 3:
      return R"({"op":"query","type":"drilldown","stratum":"s1"})";
    case 4:
      return R"({"op":"query","type":"quantiles","group":"a","q":[0.1,0.5]})";
    case 5:
      return R"({"schema_version":2,"op":"stats"})";
    default:
      return IngestLine(rng);
  }
}

/// Start of a random number token in `line`, or npos. Half the time
/// it is an event timestamp, when the line has one.
size_t NumberAt(const std::string& line, Rng* rng) {
  if (rng->Bernoulli(0.5)) {
    const size_t t = line.find("\"t\":");
    if (t != std::string::npos && t + 4 < line.size()) return t + 4;
  }
  std::vector<size_t> starts;
  for (size_t i = 0; i < line.size(); ++i) {
    const bool digit = line[i] >= '0' && line[i] <= '9';
    if (digit && (i == 0 || line[i - 1] == ':' || line[i - 1] == '[' ||
                  line[i - 1] == ',')) {
      starts.push_back(i);
    }
  }
  if (starts.empty()) return std::string::npos;
  return starts[rng->UniformInt(starts.size())];
}

void Mutate(std::string* line, Rng* rng) {
  const size_t size = line->size();
  if (size == 0) {  // a previous round truncated everything
    *line = rng->Bernoulli(0.5) ? "\r" : "[";
    return;
  }
  switch (rng->UniformInt(7)) {
    case 0: {  // byte flips, anywhere, to any byte value
      const uint64_t flips = 1 + rng->UniformInt(4);
      for (uint64_t i = 0; i < flips; ++i) {
        (*line)[rng->UniformInt(size)] =
            static_cast<char>(rng->UniformInt(256));
      }
      break;
    }
    case 1:  // truncation
      line->resize(rng->UniformInt(size));
      break;
    case 2: {  // deep nesting around the document or one value
      const size_t depth = 1 + rng->UniformInt(64);
      const size_t at = NumberAt(*line, rng);
      if (at == std::string::npos || rng->Bernoulli(0.3)) {
        *line = std::string(depth, '[') + *line + std::string(depth, ']');
      } else {
        size_t end = at;
        while (end < line->size() && (*line)[end] != ',' &&
               (*line)[end] != '}' && (*line)[end] != ']') {
          ++end;
        }
        line->insert(end, std::string(depth, ']'));
        line->insert(at, std::string(depth, '['));
      }
      break;
    }
    case 3: {  // huge, tiny, denormal and out-of-range numbers
      const char* hostile[] = {
          "9223372036854775807", "-9223372036854775808",
          "9223372036854775808", "-1",
          "1e308",               "1e309",
          "-1e400",              "4.9e-324",
          "2.2250738585072011e-308", "1e-400",
          "-0",                  "0.0000000000000000000001",
          "123456789012345678901234567890123456789",
          "1E+2",                "0e0"};
      const size_t at = NumberAt(*line, rng);
      if (at == std::string::npos) break;
      size_t end = at;
      while (end < line->size() &&
             std::string_view("0123456789.eE+-").find((*line)[end]) !=
                 std::string_view::npos) {
        ++end;
      }
      line->replace(at, end - at,
                    hostile[rng->UniformInt(std::size(hostile))]);
      break;
    }
    case 4: {  // \u0000 inside (or just after the opening quote of) a string
      std::vector<size_t> quotes;
      for (size_t i = 0; i < size; ++i) {
        if ((*line)[i] == '"') quotes.push_back(i + 1);
      }
      if (quotes.empty()) break;
      line->insert(quotes[rng->UniformInt(quotes.size())], "\\u0000");
      break;
    }
    case 5: {  // CR/LF framing: trailing CR, or CRLF between tokens
      std::vector<size_t> gaps;
      for (size_t i = 0; i < size; ++i) {
        if ((*line)[i] == ',' || (*line)[i] == ':') gaps.push_back(i + 1);
      }
      if (gaps.empty() || rng->Bernoulli(0.5)) {
        *line += rng->Bernoulli(0.5) ? "\r" : "\r\n";
      } else {
        line->insert(gaps[rng->UniformInt(gaps.size())], "\r\n");
      }
      break;
    }
    default:  // a raw CR or LF byte inside the line
      line->insert(rng->UniformInt(size + 1),
                   rng->Bernoulli(0.5) ? "\r" : "\n");
      break;
  }
}

TEST(ServeFuzzTest, MutatedRequestsGetWellFormedResponses) {
  ServeConfig config;
  config.bucket_width = 1;
  config.num_buckets = 8;
  config.with_strata = true;
  config.min_stratum_size = 1;
  ASSERT_TRUE(config.Validate().ok());

  int error_frames = 0;
  for (int i = 0; i < kCases; ++i) {
    const uint64_t seed = kBaseSeed + static_cast<uint64_t>(i);
    Rng rng(seed);
    Service service(config);
    // Some state to protect: a window holding a few events.
    const std::string seed_line = IngestLine(&rng);
    ASSERT_EQ(service.HandleLine(seed_line).find("\"error\":{"),
              std::string::npos)
        << "seed " << seed;

    std::string line = BaseLine(&rng);
    const uint64_t rounds = 1 + rng.UniformInt(2);
    for (uint64_t r = 0; r < rounds; ++r) Mutate(&line, &rng);
    SCOPED_TRACE("seed " + std::to_string(seed) + ", line: " + line);

    const uint64_t events_before = service.ring().num_events();
    const int64_t watermark_before = service.ring().watermark();
    const std::string response = service.HandleLine(line);

    Result<JsonValue> parsed = JsonValue::Parse(response);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n"
                             << response;
    ASSERT_TRUE(parsed->is_object()) << response;
    ASSERT_NE(parsed->GetOrNull("schema_version"), nullptr) << response;
    if (parsed->GetOrNull("error") != nullptr) {
      ++error_frames;
      EXPECT_EQ(service.ring().num_events(), events_before) << response;
      EXPECT_EQ(service.ring().watermark(), watermark_before) << response;
    }
    // A hostile watermark must not break the next query.
    const std::string query =
        service.HandleLine(R"({"op":"query","type":"audit"})");
    ASSERT_TRUE(JsonValue::Parse(query).ok()) << query;
  }
  // The mutations reach both the error path and the accepting path.
  EXPECT_GT(error_frames, kCases / 4);
  EXPECT_LT(error_frames, kCases);
}

}  // namespace
}  // namespace fairlaw
