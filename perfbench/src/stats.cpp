#include "stats.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {

namespace {

// 1-based nearest rank of the q-quantile among n samples.
std::size_t nearest_rank(std::size_t n, double q) {
  if (q <= 0.0) return 1;
  const auto r = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  return std::clamp<std::size_t>(r, 1, n);
}

}  // namespace

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  const std::size_t k = nearest_rank(samples.size(), q) - 1;
  std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(k),
                   samples.end());
  return samples[k];
}

double median(std::vector<double> samples) {
  return quantile(std::move(samples), 0.5);
}

TailStat tail_stat(const std::vector<double>& samples, double q) {
  TailStat t;
  t.q = q;
  t.samples = samples.size();
  if (samples.empty()) return t;
  t.value = quantile(samples, q);
  t.beyond = static_cast<std::size_t>(std::count_if(
      samples.begin(), samples.end(), [&](double v) { return v > t.value; }));
  t.supported = t.beyond >= TailStat::kMinBeyond;
  return t;
}

std::size_t min_samples_for_tail(double q) {
  // Samples ranked after the nearest rank: n - ceil(q n) >= kMinBeyond.
  std::size_t n = TailStat::kMinBeyond;
  while (n - nearest_rank(n, q) < TailStat::kMinBeyond) ++n;
  return n;
}

const char* outcome_name(Outcome o) {
  switch (o) {
    case Outcome::kOk:
      return "ok";
    case Outcome::kWrong:
      return "wrong";
    case Outcome::kRefused:
      return "refused";
    case Outcome::kTransport:
      return "transport";
    case Outcome::kTimeout:
      return "timeout";
  }
  return "unknown";
}

void ErrorTally::record(Outcome o) {
  ++attempted;
  if (o != Outcome::kOk) ++failed;
  ++by_outcome[static_cast<int>(o)];
}

double ErrorTally::rate() const {
  return attempted == 0 ? 0.0
                        : static_cast<double>(failed) /
                              static_cast<double>(attempted);
}

ErrorTally& ErrorTally::operator+=(const ErrorTally& o) {
  attempted += o.attempted;
  failed += o.failed;
  for (int i = 0; i < 5; ++i) by_outcome[i] += o.by_outcome[i];
  return *this;
}

std::string ErrorTally::describe() const {
  std::string out;
  for (int i = 1; i < 5; ++i) {
    if (by_outcome[i] == 0) continue;
    if (!out.empty()) out += ' ';
    out += outcome_name(static_cast<Outcome>(i));
    out += '=' + std::to_string(by_outcome[i]);
  }
  return out.empty() ? "none" : out;
}

}  // namespace perfbench
