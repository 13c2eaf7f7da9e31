#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

namespace {

size_t NearestRank(size_t n, double p) {
  const double rank = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
  return std::clamp<size_t>(static_cast<size_t>(std::max(rank, 1.0)), 1, n);
}

}  // namespace

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[NearestRank(v.size(), p) - 1];
}

Tail PickTail(std::vector<double> v, size_t min_beyond) {
  Tail tail;
  tail.samples = v.size();
  if (v.empty()) return tail;
  std::sort(v.begin(), v.end());
  tail.value = v.back();
  for (const double p : {99.99, 99.9, 99.0, 90.0}) {
    const size_t rank = NearestRank(v.size(), p);
    if (v.size() - rank >= min_beyond) {
      tail.percentile = p;
      tail.value = v[rank - 1];
      tail.beyond = v.size() - rank;
      break;
    }
  }
  return tail;
}

double Outcomes::ErrorFrac() const {
  return attempted == 0 ? 0.0
                        : static_cast<double>(failed()) /
                              static_cast<double>(attempted);
}

void Outcomes::Add(const Outcomes& o) {
  attempted += o.attempted;
  answered += o.answered;
  wrong += o.wrong;
  errors += o.errors;
  timeouts += o.timeouts;
  shed += o.shed;
}

}  // namespace perfbench
