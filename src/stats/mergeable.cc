#include "stats/mergeable.h"

namespace fairlaw::stats {

size_t KeyDictionary::Insert(std::string_view key) {
  if (auto it = index_.find(key); it != index_.end()) return it->second;
  const size_t slot = keys_.size();
  keys_.emplace_back(key);
  index_.emplace(keys_.back(), slot);
  return slot;
}

size_t KeyDictionary::Find(std::string_view key) const {
  auto it = index_.find(key);
  return it == index_.end() ? keys_.size() : it->second;
}

size_t GroupCountsAccumulator::KeyIndex(std::string_view key) {
  const size_t slot = keys_.Insert(key);
  if (slot == counts_.size()) counts_.emplace_back();
  return slot;
}

void GroupCountsAccumulator::AddRow(size_t slot, int prediction, int label) {
  GroupCounts& tally = counts_[slot];
  tally.count += 1;
  tally.positive_predictions += prediction;
  tally.actual_positives += label;
  tally.true_positives += prediction & label;
}

void GroupCountsAccumulator::MergeFrom(const GroupCountsAccumulator& other) {
  for (size_t i = 0; i < other.num_keys(); ++i) {
    counts_[KeyIndex(other.keys()[i])] += other.counts_[i];
  }
}

GroupCountsAccumulator* StratifiedCountsAccumulator::Stratum(
    std::string_view stratum) {
  const size_t slot = keys_.Insert(stratum);
  if (slot == strata_.size()) strata_.emplace_back();
  return &strata_[slot];
}

void StratifiedCountsAccumulator::MergeFrom(
    const StratifiedCountsAccumulator& other) {
  for (size_t i = 0; i < other.num_strata(); ++i) {
    Stratum(other.keys()[i])->MergeFrom(other.strata_[i]);
  }
}

size_t GroupedSeries::KeyIndex(std::string_view key) {
  const size_t slot = keys_.Insert(key);
  if (slot == values_.size()) {
    values_.emplace_back();
    tags_.emplace_back();
  }
  return slot;
}

void GroupedSeries::Append(size_t key_index, double value, uint8_t tag) {
  values_[key_index].push_back(value);
  tags_[key_index].push_back(tag);
}

void GroupedSeries::MergeFrom(const GroupedSeries& other) {
  for (size_t i = 0; i < other.num_keys(); ++i) {
    const size_t slot = KeyIndex(other.keys()[i]);
    values_[slot].insert(values_[slot].end(), other.values_[i].begin(),
                         other.values_[i].end());
    tags_[slot].insert(tags_[slot].end(), other.tags_[i].begin(),
                       other.tags_[i].end());
  }
}

size_t GroupedSketches::KeyIndex(std::string_view key) {
  const size_t slot = keys_.Insert(key);
  if (slot == sketches_.size()) sketches_.emplace_back(options_);
  return slot;
}

void GroupedSketches::Add(size_t key_index, double value) {
  sketches_[key_index].Add(value);
}

void GroupedSketches::MergeFrom(const GroupedSketches& other) {
  for (size_t i = 0; i < other.num_keys(); ++i) {
    sketches_[KeyIndex(other.keys()[i])].Merge(other.sketches_[i]);
  }
}

}  // namespace fairlaw::stats
