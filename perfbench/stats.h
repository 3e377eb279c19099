#ifndef VCQ_PERFBENCH_STATS_H_
#define VCQ_PERFBENCH_STATS_H_

// The benchmark's own arithmetic, kept free of engine code so
// stats_test.cc can pin each definition down.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Median; the mean of the two middle values for an even count, 0 when
/// empty.
inline double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// The highest percentile that still has at least `beyond` samples above
/// it: with n sorted samples that is the (n - beyond)-th smallest, at
/// percentile 100 * (n - beyond) / n (p99 at n = 1000, p97.5 at n = 400).
/// `supported` is false when n <= beyond.
struct Tail {
  bool supported = false;
  double pct = 0;
  double value = 0;
};

inline Tail TailPercentile(std::vector<double> v, size_t beyond = 10) {
  Tail tail;
  const size_t n = v.size();
  if (n <= beyond) return tail;
  std::sort(v.begin(), v.end());
  const size_t rank = n - beyond;
  tail.supported = true;
  tail.pct = 100.0 * static_cast<double>(rank) / static_cast<double>(n);
  tail.value = v[rank - 1];
  return tail;
}

/// Geometric mean over classes of each class's median; empty classes are
/// skipped, and 0 is returned when every class is empty.
inline double GeomeanOfMedians(const std::vector<std::vector<double>>& classes) {
  double log_sum = 0;
  size_t n = 0;
  for (const std::vector<double>& samples : classes) {
    if (samples.empty()) continue;
    log_sum += std::log(Median(samples));
    ++n;
  }
  return n == 0 ? 0 : std::exp(log_sum / static_cast<double>(n));
}

inline double Geomean(const std::vector<double>& values) {
  std::vector<std::vector<double>> classes;
  for (const double v : values) classes.push_back({v});
  return GeomeanOfMedians(classes);
}

/// One open-loop request. Latency counts from when the request was due,
/// so a stalled generator charges its delay to every request behind it;
/// lag is how late the generator actually sent it.
struct OpenLoopSample {
  double due_ms = 0;
  double sent_ms = 0;
  double done_ms = 0;

  double latency_ms() const { return done_ms - due_ms; }
  double lag_ms() const { return sent_ms - due_ms; }
};

/// Half-open interval [start, end) on one clock.
struct Interval {
  uint64_t start = 0;
  uint64_t end = 0;
};

/// Length of the union of `intervals` clipped to `within`.
inline uint64_t CoveredNs(std::vector<Interval> intervals, Interval within) {
  for (Interval& i : intervals) {
    i.start = std::max(i.start, within.start);
    i.end = std::min(i.end, within.end);
  }
  std::sort(intervals.begin(), intervals.end(),
            [](const Interval& a, const Interval& b) {
              return a.start < b.start;
            });
  uint64_t covered = 0;
  uint64_t reach = within.start;
  for (const Interval& i : intervals) {
    if (i.end <= i.start) continue;
    const uint64_t from = std::max(i.start, reach);
    if (i.end > from) {
      covered += i.end - from;
      reach = i.end;
    }
  }
  return covered;
}

/// A span's self time: its duration minus the part of it that its child
/// spans cover (overlapping children count once, parts outside the parent
/// not at all).
inline uint64_t SelfNs(Interval span, const std::vector<Interval>& children) {
  return (span.end - span.start) - CoveredNs(children, span);
}

}  // namespace perfbench

#endif  // VCQ_PERFBENCH_STATS_H_
