#ifndef FAIRLAW_STATS_MERGEABLE_H_
#define FAIRLAW_STATS_MERGEABLE_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "stats/kll.h"

namespace fairlaw::stats {

/// Chunk-mergeable accumulators for the morsel-driven audit engine.
///
/// The determinism contract (DESIGN.md §14): every morsel produces one of
/// these over its own rows, and the scheduler merges them in
/// sequence-numbered chunk order. Because the payloads are exact integer
/// tallies (or row-ordered series), a merge in chunk order reconstructs
/// exactly what a single sequential pass over the whole table would have
/// produced — which is what makes audit output byte-identical for any
/// thread count and any chunk size. Keys keep first-seen order under the
/// same rule: a key's position is where the first row holding it appears
/// in global row order.
///
/// Layering note: this lives in stats (below data/metrics) on purpose —
/// it is plain keyed arithmetic with no table or bitmap dependencies, and
/// the planned `fairlaw_serve` sketches merge through the same interface.

/// Exact integer tallies for one group. The four stored fields are what
/// GroupCountsAccumulator::AddRow counts; everything else a group metric
/// needs (negatives, FP, rates) derives from them after the merge.
struct GroupCounts {
  int64_t count = 0;
  int64_t positive_predictions = 0;
  int64_t actual_positives = 0;
  int64_t true_positives = 0;

  GroupCounts& operator+=(const GroupCounts& other) {
    count += other.count;
    positive_predictions += other.positive_predictions;
    actual_positives += other.actual_positives;
    true_positives += other.true_positives;
    return *this;
  }
  friend bool operator==(const GroupCounts& a, const GroupCounts& b) = default;
};

/// First-seen-ordered key -> slot dictionary: the one ordering rule
/// every accumulator below shares. A key's slot is the number of
/// distinct keys inserted before it, so merging partials in chunk order
/// places each key where the first row holding it appears.
class KeyDictionary {
 public:
  /// Slot for `key`, appending it when absent. Looks the key up before
  /// inserting, so a hit builds no std::string.
  size_t Insert(std::string_view key);

  /// Slot for `key`, or size() when absent.
  size_t Find(std::string_view key) const;

  size_t size() const { return keys_.size(); }
  const std::vector<std::string>& keys() const { return keys_; }

 private:
  std::vector<std::string> keys_;
  std::map<std::string, size_t, std::less<>> index_;
};

/// First-seen-ordered map from group key to GroupCounts, mergeable in
/// chunk order.
class GroupCountsAccumulator {
 public:
  /// Returns the slot index for `key`, inserting (zeroed, at the end of
  /// the first-seen order) when absent.
  size_t KeyIndex(std::string_view key);

  /// Read-only lookup: the slot index for `key`, or num_keys() when
  /// absent.
  size_t FindKey(std::string_view key) const { return keys_.Find(key); }

  /// Tallies one row into `slot` (from KeyIndex). This is the single
  /// row -> tally step: the metric inputs, the audit's chunk fold (by
  /// key code) and the serve window all reduce rows through it.
  /// `prediction` and `label` are 0/1; a row without a label, or a fold
  /// that keeps no label tallies, passes label 0.
  void AddRow(size_t slot, int prediction, int label = 0);

  /// Folds `other` in: other's keys are appended in their first-seen
  /// order, existing keys accumulate. Calling MergeFrom over chunk
  /// partials in ascending chunk order reproduces the whole-table pass.
  void MergeFrom(const GroupCountsAccumulator& other);

  size_t num_keys() const { return keys_.size(); }
  const std::vector<std::string>& keys() const { return keys_.keys(); }
  const GroupCounts& counts(size_t key_index) const {
    return counts_[key_index];
  }

 private:
  KeyDictionary keys_;
  std::vector<GroupCounts> counts_;
};

/// Two-level accumulator: stratum -> per-group tallies, both levels in
/// first-seen order, merged stratum-by-stratum in chunk order. Feeds the
/// conditional (stratified) metrics.
class StratifiedCountsAccumulator {
 public:
  /// The per-group accumulator for `stratum`, inserting an empty one (at
  /// the end of the first-seen order) when absent.
  GroupCountsAccumulator* Stratum(std::string_view stratum);

  /// Read-only lookup: the index of `stratum`, or num_strata() when
  /// absent.
  size_t FindKey(std::string_view stratum) const {
    return keys_.Find(stratum);
  }

  void MergeFrom(const StratifiedCountsAccumulator& other);

  size_t num_strata() const { return keys_.size(); }
  const std::vector<std::string>& keys() const { return keys_.keys(); }
  const GroupCountsAccumulator& stratum(size_t index) const {
    return strata_[index];
  }

 private:
  KeyDictionary keys_;
  std::vector<GroupCountsAccumulator> strata_;
};

/// Row-ordered per-key series: each key holds parallel (value, tag)
/// vectors in global row order. Merging chunk partials in chunk order
/// concatenates each key's rows in row order, so order-sensitive floating
/// point consumers (calibration's running sums, score-distribution
/// sorts) see exactly the sequence a sequential pass would have fed them.
class GroupedSeries {
 public:
  size_t KeyIndex(std::string_view key);

  /// Read-only lookup: the slot index for `key`, or num_keys() when
  /// absent.
  size_t FindKey(std::string_view key) const { return keys_.Find(key); }

  /// Appends one row to `key_index`'s series.
  void Append(size_t key_index, double value, uint8_t tag);

  void MergeFrom(const GroupedSeries& other);

  size_t num_keys() const { return keys_.size(); }
  const std::vector<std::string>& keys() const { return keys_.keys(); }
  const std::vector<double>& values(size_t key_index) const {
    return values_[key_index];
  }
  const std::vector<uint8_t>& tags(size_t key_index) const {
    return tags_[key_index];
  }

 private:
  KeyDictionary keys_;
  std::vector<std::vector<double>> values_;
  std::vector<std::vector<uint8_t>> tags_;
};

/// First-seen-ordered map from group key to a KLL quantile sketch — the
/// bounded-memory counterpart of GroupedSeries for the serve daemon's
/// window buckets, where score series cannot grow with history. Same
/// merge contract as the other accumulators: MergeFrom in ascending
/// bucket order reproduces the single sequential pass (the sketch's own
/// coin stream is counter-based, so state is a pure function of the
/// operation sequence).
class GroupedSketches {
 public:
  explicit GroupedSketches(const KllSketch::Options& options = {})
      : options_(options) {}

  /// Slot index for `key`, inserting an empty sketch (at the end of the
  /// first-seen order) when absent.
  size_t KeyIndex(std::string_view key);

  /// Read-only lookup: the slot index for `key`, or num_keys() when
  /// absent (serve's window fold probes buckets without mutating them).
  size_t FindKey(std::string_view key) const { return keys_.Find(key); }

  /// Adds one score into `key_index`'s sketch.
  void Add(size_t key_index, double value);

  /// Folds other's sketches in: other's keys append in their first-seen
  /// order; sketches for shared keys merge self-first.
  void MergeFrom(const GroupedSketches& other);

  size_t num_keys() const { return keys_.size(); }
  const std::vector<std::string>& keys() const { return keys_.keys(); }
  const KllSketch& sketch(size_t key_index) const {
    return sketches_[key_index];
  }
  /// Mutable slot access for parallel window folds: the caller
  /// establishes the canonical key order serially via KeyIndex, then
  /// workers each fill one distinct slot (serve's per-group merge
  /// chains) — indexed writes, never shared-state compound updates.
  KllSketch* mutable_sketch(size_t key_index) {
    return &sketches_[key_index];
  }
  const KllSketch::Options& options() const { return options_; }

  friend bool operator==(const GroupedSketches& a, const GroupedSketches& b) {
    return a.keys() == b.keys() && a.sketches_ == b.sketches_;
  }

 private:
  KllSketch::Options options_;
  KeyDictionary keys_;
  std::vector<KllSketch> sketches_;
};

}  // namespace fairlaw::stats

#endif  // FAIRLAW_STATS_MERGEABLE_H_
