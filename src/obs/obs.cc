#include "obs/obs.h"

#include <array>
#include <bit>
#include <chrono>
#include <cstdlib>
#include <map>
#include <memory>
#include <vector>

#include "base/json_writer.h"
#include "base/mutex.h"
#include "base/string_util.h"
#include "base/thread_annotations.h"

namespace fairlaw::obs {
namespace {

/// Tri-state runtime switch: -1 = not yet initialized from the
/// environment, 0 = disabled, 1 = enabled.
std::atomic<int> g_enabled{-1};

int ReadEnabledFromEnv() {
  // Read-only env lookup before any thread could call setenv; the result
  // is cached in g_enabled, so this runs once per process.
  const char* value = std::getenv("FAIRLAW_OBS");  // NOLINT(concurrency-mt-unsafe)
  if (value == nullptr) return 1;
  const std::string lowered = AsciiToLower(value);
  if (lowered == "off" || lowered == "0" || lowered == "false") return 0;
  return 1;
}

/// Per-path completion stats. Counts are schedule-invariant; total_ns
/// is wall clock and only surfaces with ExportOptions.include_timings.
struct SpanStat {
  uint64_t count = 0;
  uint64_t total_ns = 0;
};

}  // namespace

bool Enabled() {
#ifdef FAIRLAW_OBS_DISABLED
  return false;
#else
  int state = g_enabled.load(std::memory_order_relaxed);
  if (state < 0) {
    state = ReadEnabledFromEnv();
    // Last writer wins on a first-use race; every contender computed the
    // same value from the same environment.
    g_enabled.store(state, std::memory_order_relaxed);
  }
  return state != 0;
#endif
}

void SetEnabled(bool enabled) {
  g_enabled.store(enabled ? 1 : 0, std::memory_order_relaxed);
}

uint64_t MonotonicNowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void Histogram::Record(uint64_t value) {
  if (!Enabled()) return;
  buckets_[BucketOf(value)].fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
}

uint64_t Histogram::Count() const {
  uint64_t total = 0;
  for (const std::atomic<uint64_t>& bucket : buckets_) {
    total += bucket.load(std::memory_order_relaxed);
  }
  return total;
}

uint64_t Histogram::BucketCount(size_t bucket) const {
  return bucket < kNumBuckets
             ? buckets_[bucket].load(std::memory_order_relaxed)
             : 0;
}

size_t Histogram::BucketOf(uint64_t value) {
  return static_cast<size_t>(std::bit_width(value));
}

uint64_t Histogram::BucketUpperBound(size_t bucket) {
  if (bucket == 0) return 0;
  if (bucket >= 64) return ~uint64_t{0};
  return (uint64_t{1} << bucket) - 1;
}

void Histogram::Reset() {
  for (std::atomic<uint64_t>& bucket : buckets_) {
    bucket.store(0, std::memory_order_relaxed);
  }
  sum_.store(0, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Registry.

/// Probe storage. std::map keeps export iteration sorted by name with
/// no extra sort pass; unique_ptr keeps probe addresses stable across
/// rehash-free inserts, so callers may cache the raw pointers.
struct Registry::Impl {
  Mutex mu;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters
      FAIRLAW_GUARDED_BY(mu);
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms
      FAIRLAW_GUARDED_BY(mu);
  std::map<std::string, SpanStat, std::less<>> spans FAIRLAW_GUARDED_BY(mu);
};

Registry& Registry::Global() {
  static Registry* global = new Registry;  // leaked: see header
  return *global;
}

Registry::Impl* Registry::impl() {
  Impl* existing = impl_.load(std::memory_order_acquire);
  if (existing != nullptr) return existing;
  Impl* fresh = new Impl;
  if (impl_.compare_exchange_strong(existing, fresh,
                                    std::memory_order_acq_rel)) {
    return fresh;
  }
  delete fresh;  // lost the race; `existing` holds the winner
  return existing;
}

Counter* Registry::GetCounter(std::string_view name) {
  Impl* state = impl();
  MutexLock lock(state->mu);
  auto it = state->counters.find(name);
  if (it == state->counters.end()) {
    it = state->counters
             .emplace(std::string(name),
                      std::unique_ptr<Counter>(new Counter(std::string(name))))
             .first;
  }
  return it->second.get();
}

Histogram* Registry::GetHistogram(std::string_view name) {
  Impl* state = impl();
  MutexLock lock(state->mu);
  auto it = state->histograms.find(name);
  if (it == state->histograms.end()) {
    it = state->histograms
             .emplace(std::string(name), std::unique_ptr<Histogram>(
                                             new Histogram(std::string(name))))
             .first;
  }
  return it->second.get();
}

void Registry::MergeSpan(std::string_view path, uint64_t count,
                         uint64_t total_ns) {
  Impl* state = impl();
  MutexLock lock(state->mu);
  auto it = state->spans.find(path);
  if (it == state->spans.end()) {
    it = state->spans.emplace(std::string(path), SpanStat{}).first;
  }
  it->second.count += count;
  it->second.total_ns += total_ns;
}

// ---------------------------------------------------------------------------
// Per-thread span aggregation.

namespace {

/// One thread's span aggregate plus its active-span path. The map
/// flushes into the global registry when the thread exits, so by the
/// time an audit path exports (after its ThreadPool has been joined and
/// destroyed) every worker's spans are merged.
struct ThreadSpans {
  std::string current_path;
  std::map<std::string, SpanStat, std::less<>> stats;

  ~ThreadSpans() { Flush(); }

  void Flush() {
    for (const auto& [path, stat] : stats) {
      Registry::Global().MergeSpan(path, stat.count, stat.total_ns);
    }
    stats.clear();
  }
};

ThreadSpans& LocalSpans() {
  thread_local ThreadSpans spans;
  return spans;
}

}  // namespace

std::string CurrentPath() { return LocalSpans().current_path; }

void TraceSpan::Open(std::string_view name, std::string_view parent_path) {
  if (!Enabled()) return;
  ThreadSpans& local = LocalSpans();
  parent_ = local.current_path;
  if (parent_path.empty()) {
    path_ = std::string(name);
  } else {
    path_.reserve(parent_path.size() + 1 + name.size());
    path_.append(parent_path);
    path_.push_back('/');
    path_.append(name);
  }
  local.current_path = path_;
  start_ns_ = MonotonicNowNs();
}

TraceSpan::TraceSpan(std::string_view name) {
  Open(name, LocalSpans().current_path);
}

TraceSpan::TraceSpan(std::string_view name, std::string_view parent_path) {
  Open(name, parent_path);
}

TraceSpan::~TraceSpan() {
  if (path_.empty()) return;  // disabled at construction
  const uint64_t elapsed = MonotonicNowNs() - start_ns_;
  ThreadSpans& local = LocalSpans();
  SpanStat& stat = local.stats[path_];
  ++stat.count;
  stat.total_ns += elapsed;
  local.current_path = parent_;
}

// ---------------------------------------------------------------------------
// Export / reset.

std::string Registry::ExportJson(const ExportOptions& options) {
  LocalSpans().Flush();

  // Snapshot under the lock, render outside it: formatting is O(probes)
  // worth of allocation and must not serialize other threads' probe
  // registrations (detcheck rule lock-expensive). The probe values are
  // relaxed atomics, so reading them inside the critical section costs a
  // load each; the std::map iteration order keeps the snapshot (and thus
  // the export) sorted by name with no extra sort pass.
  struct CounterRow {
    std::string name;
    uint64_t value;
  };
  struct HistogramRow {
    std::string name;
    std::array<uint64_t, Histogram::kNumBuckets> buckets;
    uint64_t sum;
  };
  struct SpanRow {
    std::string path;
    SpanStat stat;
  };
  std::vector<CounterRow> counters;
  std::vector<HistogramRow> histograms;
  std::vector<SpanRow> spans;
  Impl* state = impl();
  {
    MutexLock lock(state->mu);
    counters.reserve(state->counters.size());
    for (const auto& [name, counter] : state->counters) {
      counters.push_back(CounterRow{name, counter->Value()});
    }
    histograms.reserve(state->histograms.size());
    for (const auto& [name, histogram] : state->histograms) {
      HistogramRow row;
      row.name = name;
      row.sum = histogram->Sum();
      for (size_t b = 0; b < Histogram::kNumBuckets; ++b) {
        row.buckets[b] = histogram->BucketCount(b);
      }
      histograms.push_back(std::move(row));
    }
    spans.reserve(state->spans.size());
    for (const auto& [path, stat] : state->spans) {
      spans.push_back(SpanRow{path, stat});
    }
  }

  std::string out = "{\"fairlaw_obs_version\":1,\"enabled\":";
  out += Enabled() ? "true" : "false";

  out += ",\"counters\":[";
  bool first = true;
  for (const CounterRow& row : counters) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":\"" + JsonEscape(row.name) +
           "\",\"value\":" + std::to_string(row.value) + "}";
  }
  out += "]";

  out += ",\"histograms\":[";
  first = true;
  for (const HistogramRow& row : histograms) {
    uint64_t total = 0;
    for (const uint64_t bucket_count : row.buckets) total += bucket_count;
    if (!first) out += ',';
    first = false;
    out += "{\"name\":\"" + JsonEscape(row.name) +
           "\",\"count\":" + std::to_string(total) +
           ",\"sum\":" + std::to_string(row.sum) + ",\"buckets\":[";
    bool first_bucket = true;
    for (size_t b = 0; b < Histogram::kNumBuckets; ++b) {
      const uint64_t bucket_count = row.buckets[b];
      if (bucket_count == 0) continue;  // sparse: zero buckets are implied
      if (!first_bucket) out += ',';
      first_bucket = false;
      out += "{\"le\":" + std::to_string(Histogram::BucketUpperBound(b)) +
             ",\"count\":" + std::to_string(bucket_count) + "}";
    }
    out += "]}";
  }
  out += "]";

  out += ",\"spans\":[";
  first = true;
  for (const SpanRow& row : spans) {
    if (!first) out += ',';
    first = false;
    out += "{\"path\":\"" + JsonEscape(row.path) +
           "\",\"count\":" + std::to_string(row.stat.count);
    if (options.include_timings) {
      out += ",\"total_ns\":" + std::to_string(row.stat.total_ns);
    }
    out += "}";
  }
  out += "]}";
  return out;
}

void Registry::Reset() {
  LocalSpans().stats.clear();
  Impl* state = impl();
  MutexLock lock(state->mu);
  for (const auto& [name, counter] : state->counters) counter->Reset();
  for (const auto& [name, histogram] : state->histograms) histogram->Reset();
  state->spans.clear();
}

// ---------------------------------------------------------------------------
// Free-function conveniences.

Counter* GetCounter(std::string_view name) {
  return Registry::Global().GetCounter(name);
}

Histogram* GetHistogram(std::string_view name) {
  return Registry::Global().GetHistogram(name);
}

std::string ExportJson(const ExportOptions& options) {
  return Registry::Global().ExportJson(options);
}

void ResetAll() { Registry::Global().Reset(); }

}  // namespace fairlaw::obs
