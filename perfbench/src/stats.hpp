#pragma once
// The benchmark's own arithmetic: order statistics over latency samples,
// the tail-percentile sample-count rule, and failure accounting.
//
// Quantiles use the nearest-rank definition (the ceil(q*n)-th smallest
// sample), so every reported value is one that was actually measured.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Nearest-rank quantile of `samples` for q in [0, 1]; 0 when empty.
double quantile(std::vector<double> samples, double q);

/// Median (the q = 0.5 nearest-rank quantile).
double median(std::vector<double> samples);

/// num / den, or 0 when den is not positive (a ratio over no work).
inline double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// A tail percentile together with the sample counts that qualify it.
/// `beyond` counts samples strictly above `value`; the guide the notes
/// follow keeps a percentile only when at least `kMinBeyond` samples lie
/// beyond it, which `supported` records.
struct TailStat {
  static constexpr std::size_t kMinBeyond = 10;
  double q = 0.0;
  double value = 0.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;
  bool supported = false;
};
TailStat tail_stat(const std::vector<double>& samples, double q);

/// Smallest sample count for which the nearest-rank q-quantile has at
/// least TailStat::kMinBeyond samples beyond its rank (1000 for p99).
std::size_t min_samples_for_tail(double q);

/// How an attempted operation ended. Everything but kOk counts as failed:
/// a wrong answer, an {"ok":false} reply, a transport error and a timeout
/// are all failures, never timed successes.
enum class Outcome { kOk, kWrong, kRefused, kTransport, kTimeout };
const char* outcome_name(Outcome o);

/// Attempted/failed tally behind `error_rate`. Not thread-safe; each
/// client thread keeps its own and the totals are merged with +=.
struct ErrorTally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t by_outcome[5] = {0, 0, 0, 0, 0};

  void record(Outcome o);
  /// failed / attempted; 0 when nothing was attempted.
  [[nodiscard]] double rate() const;
  ErrorTally& operator+=(const ErrorTally& o);
  /// "wrong=1 transport=2" for the failed outcomes, or "none".
  [[nodiscard]] std::string describe() const;
};

}  // namespace perfbench
