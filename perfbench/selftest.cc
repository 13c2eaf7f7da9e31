// Self-tests of the benchmark's statistics: the tail percentile choice,
// the median, failure accounting and span self time. Exits 1 on the
// first failed check; run.py runs it after every build.

#include <cmath>
#include <cstdio>
#include <vector>

#include "stats.h"
#include "trace.h"

namespace {

int g_failures = 0;

void Check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
    ++g_failures;
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

std::vector<double> Range(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void TestMedian() {
  using perfbench::Median;
  Check(Near(Median({}), 0.0), "median of nothing is 0");
  Check(Near(Median({5}), 5.0), "median of one value");
  Check(Near(Median({3, 1, 2}), 2.0), "odd median is the middle value");
  Check(Near(Median({4, 1, 3, 2}), 2.5), "even median averages the middle");
}

void TestTail() {
  using perfbench::PickTail;
  // 100 samples: p90 has exactly 10 beyond; p99 only 1.
  perfbench::Tail t = PickTail(Range(100));
  Check(Near(t.percentile, 90.0) && Near(t.value, 90.0) && t.beyond == 10 &&
            t.samples == 100,
        "100 samples pick p90 with 10 beyond");
  // 1000 samples: p99 leaves 10 beyond; p99.9 leaves 1.
  t = PickTail(Range(1000));
  Check(Near(t.percentile, 99.0) && Near(t.value, 990.0) && t.beyond == 10,
        "1000 samples pick p99");
  // 999 samples: p99 rank ceil(989.01) = 990 leaves 9, so p90 (rank 900).
  t = PickTail(Range(999));
  Check(Near(t.percentile, 90.0) && t.beyond == 99, "999 samples pick p90");
  // Between two nines the lower one holds: 500 samples stay at p90.
  t = PickTail(Range(500));
  Check(Near(t.percentile, 90.0) && Near(t.value, 450.0),
        "500 samples pick p90, not an intermediate percentile");
  // Too few samples for any candidate: the maximum, nothing beyond.
  t = PickTail(Range(12));
  Check(Near(t.percentile, 100.0) && Near(t.value, 12.0) && t.beyond == 0,
        "a tiny sample reports its maximum");
  Check(Near(perfbench::Percentile(Range(10), 50.0), 5.0),
        "nearest-rank p50 of 1..10 is 5");
}

void TestOutcomes() {
  perfbench::Outcomes o;
  o.attempted = 100;
  o.answered = 90;
  o.wrong = 1;
  o.errors = 2;
  o.timeouts = 3;
  o.shed = 4;
  Check(o.failed() == 10, "sheds and timeouts count as failures");
  Check(Near(o.ErrorFrac(), 0.10), "error_frac is failures over attempted");
  perfbench::Outcomes sum;
  sum.Add(o);
  sum.Add(o);
  Check(sum.attempted == 200 && sum.shed == 8 && Near(sum.ErrorFrac(), 0.10),
        "outcomes add field by field");
  Check(Near(perfbench::Outcomes().ErrorFrac(), 0.0),
        "nothing attempted is no error");
}

void TestSelfTime() {
  using perfbench::Span;
  // root [0,100) "bench"; children "core" [10,30) and [20,50) overlap
  // (union 40), "server" [60,70); grandchild "storage" [15,25) under
  // the first core span; a child poking outside its parent [90,120) is
  // clipped to [90,100).
  std::vector<Span> spans = {
      {"bench.pass", 0, 100, -1, 0},     {"core.Execute", 10, 30, 0, 1},
      {"core.Execute", 20, 50, 0, 2},    {"server.request", 60, 70, 0, 3},
      {"storage.Seek", 15, 25, 1, 1},    {"server.request", 90, 120, 0, 4},
  };
  const auto self = perfbench::LayerSelfNs(spans);
  // bench: 100 - union([10,50), [60,70), [90,100)) = 100 - 60 = 40.
  Check(Near(self.at("bench"), 40.0), "parent self time subtracts the union");
  // core: (20 - 10) + 30 = 40.
  Check(Near(self.at("core"), 40.0), "nested child time leaves its parent");
  Check(Near(self.at("storage"), 10.0), "leaf self time is its duration");
  Check(Near(self.at("server"), 40.0), "leaf spans keep their full length");
  Check(perfbench::SpanLayer("parallel.PartitionedExecute") == "parallel",
        "layer is the name before the first dot");

  perfbench::Tracer off(false);
  Check(off.Begin("core.Execute") == -1 && off.spans().empty(),
        "a disabled tracer records nothing");
  perfbench::Tracer on(true);
  {
    perfbench::Tracer::Scope outer(&on, "bench.pass");
    perfbench::Tracer::Scope inner(&on, "core.Execute", outer.id(), 7);
  }
  {
    perfbench::Tracer::Scope outer(&on, "bench.ladder");
    perfbench::Tracer::Scope inner(&on, "storage.SeekGap");
  }
  perfbench::Tracer::Scope root(&on, "bench.root");
  const auto rec = on.spans();
  Check(rec.size() == 5 && rec[1].parent == 0 && rec[1].request == 7 &&
            rec[0].end_ns >= rec[1].end_ns && rec[1].start_ns >= rec[0].start_ns,
        "scopes nest and close in order");
  Check(rec[3].parent == 2 && rec[4].parent == -1,
        "a span's parent defaults to the thread's innermost open span");
}

}  // namespace

int main() {
  TestMedian();
  TestTail();
  TestOutcomes();
  TestSelfTime();
  if (g_failures != 0) return 1;
  std::printf("perfbench selftest: all checks passed\n");
  return 0;
}
