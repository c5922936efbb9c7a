// Measurement plumbing: log-bucketed latency histograms and counters.
//
// Histogram is HdrHistogram-flavoured: values are bucketed with bounded
// relative error (~3%), so p50/p99/p999 queries are cheap and the memory
// footprint is constant regardless of sample count.

#ifndef HYPERION_SRC_SIM_STATS_H_
#define HYPERION_SRC_SIM_STATS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace hyperion::sim {

class Histogram {
 public:
  Histogram() = default;

  void Record(uint64_t value);
  void Merge(const Histogram& other);
  void Reset();

  uint64_t count() const { return count_; }
  uint64_t min() const { return count_ == 0 ? 0 : min_; }
  uint64_t max() const { return max_; }
  double Mean() const;

  // Quantile in [0, 1]; returns an upper bound of the bucket containing it.
  uint64_t Percentile(double q) const;
  uint64_t P50() const { return Percentile(0.50); }
  uint64_t P99() const { return Percentile(0.99); }
  uint64_t P999() const { return Percentile(0.999); }

  // One-line human-readable summary (values interpreted as nanoseconds).
  std::string SummaryNs() const;

 private:
  static constexpr int kSubBucketBits = 5;  // 32 sub-buckets => ~3% error
  static size_t BucketIndex(uint64_t value);
  static uint64_t BucketUpperBound(size_t index);

  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
  uint64_t min_ = ~0ull;
  uint64_t max_ = 0;
};

// Named monotonic counters, used for hop/byte/op accounting in experiments.
class Counters {
 public:
  // A counter bumped on a hot path. Its name is interned at the first bump;
  // later bumps index the table with no string compare. A counter that is
  // never bumped never appears in Snapshot(), exactly as with the by-name
  // Add. A slot serves one Counters object; after Reset() it re-resolves.
  class Slot {
   public:
    explicit constexpr Slot(std::string_view name) : name_(name) {}

   private:
    friend class Counters;
    std::string_view name_;
    uint32_t index_ = 0;
    uint32_t generation_ = 0;  // never a Counters generation: unresolved
  };

  void Add(Slot& slot, uint64_t delta) {
    if (slot.generation_ != generation_) [[unlikely]] {
      slot.index_ = Intern(slot.name_);
      slot.generation_ = generation_;
    }
    entries_[slot.index_].second += delta;
  }
  void Increment(Slot& slot) { Add(slot, 1); }
  uint64_t Get(const Slot& slot) const {
    return slot.generation_ == generation_ ? entries_[slot.index_].second : 0;
  }

  // By name: scans the linear map on every call.
  void Add(std::string_view name, uint64_t delta);
  void Increment(std::string_view name) { Add(name, 1); }
  uint64_t Get(std::string_view name) const;
  void Reset();

  // Stable (sorted) name/value listing for reports.
  std::vector<std::pair<std::string, uint64_t>> Snapshot() const;

 private:
  uint32_t Intern(std::string_view name);

  std::vector<std::pair<std::string, uint64_t>> entries_;  // small-N linear map
  uint32_t generation_ = 1;  // bumped by Reset(), which drops every entry
};

}  // namespace hyperion::sim

#endif  // HYPERION_SRC_SIM_STATS_H_
