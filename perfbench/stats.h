#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

// Order statistics and outcome accounting for the benchmark's reports.

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

// Median; the mean of the two middle values for an even count. 0 when
// `v` is empty.
double Median(std::vector<double> v);

// Nearest-rank percentile: the value at 1-based rank ceil(p/100 * n) of
// the sorted sample, so exactly n - rank samples lie beyond it.
double Percentile(std::vector<double> v, double p);

// The tail the sample supports: the highest of p90, p99, p99.9, p99.99
// with at least `min_beyond` samples beyond its nearest rank. Only the
// nines are candidates, so runs whose sample counts differ by a few
// percent report the same percentile. A sample too small for p90 reports
// its maximum as percentile 100 with 0 beyond.
struct Tail {
  double percentile = 100.0;
  double value = 0.0;
  size_t samples = 0;
  size_t beyond = 0;
};
Tail PickTail(std::vector<double> v, size_t min_beyond = 10);

// Outcome of every operation a run attempted. A shed reply, a timeout
// and an error fail like a wrong answer: each counts against the run.
struct Outcomes {
  uint64_t attempted = 0;
  uint64_t answered = 0;  // correct answers
  uint64_t wrong = 0;     // answered with a count that differs
  uint64_t errors = 0;    // error replies and failed executions
  uint64_t timeouts = 0;  // deadline replies and unanswered requests
  uint64_t shed = 0;      // refused by admission control

  uint64_t failed() const { return wrong + errors + timeouts + shed; }
  double ErrorFrac() const;
  void Add(const Outcomes& o);
};

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
