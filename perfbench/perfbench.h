#ifndef PERFBENCH_PERFBENCH_H_
#define PERFBENCH_PERFBENCH_H_

// Shared declarations of the benchmark program (see README.md).

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "stats.h"
#include "trace.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;       // writable scratch inside the checkout
  std::string serverd;       // wcoj_serverd binary
  std::string query_runner;  // query_runner binary (served answer check)
  int threads = 4;           // nproc: pool width and connections
};

struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

// What one workload run reports. An `invalid` run could not measure: a
// reference engine, the served preparation or the daemon failed.
struct Report {
  Outcomes outcomes;
  Metrics metrics;  // end-to-end (untraced) or per-layer (traced)
  std::vector<std::string> notes;  // printed beside the metrics
  bool invalid = false;
};

// Accounting of this process (sysinfo.cc).
double ProcessCpuSeconds();
double PeakRssMb();
void ResetPeakRss();
int64_t NowNs();  // steady clock

inline double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }

// A seed for stream (a, b) of the run seeded with `seed`.
inline uint64_t MixSeed(uint64_t seed, uint64_t a, uint64_t b) {
  uint64_t x = seed * 0x9E3779B97F4A7C15ULL + a * 0xBF58476D1CE4E5B9ULL +
               b * 0x94D049BB133111EBULL + 1;
  x ^= x >> 31;
  x *= 0xD6E8FEB86659FD93ULL;
  return x ^ (x >> 32);
}

// Batch workloads (batch.cc): lftj-paper, ms-morsel.
Report RunBatch(const Options& opt, Tracer* tracer);
// Per-layer probes over the batch dataset, shared by every traced run.
void BatchLadder(const Options& opt, Tracer* tracer, Metrics* out);

// The daemon layers, probed with the served request mix over the real
// wcoj_serverd (served.cc); every traced run reports them.
Report ServedProbe(const Options& opt, Tracer* tracer);

}  // namespace perfbench

#endif  // PERFBENCH_PERFBENCH_H_
