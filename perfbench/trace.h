#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

// In-memory span recorder for the benchmark's traced run.
//
// Spans are recorded by the benchmark around its own calls into the
// repository's layers (a span's name starts with the layer: "storage.",
// "core.", "server.", ...; "bench." marks the benchmark's own phases).
// Each span has a start, an end, a parent span and a request id; they
// stay in memory until the run writes them out. A span's parent is the
// innermost span its thread has open unless the caller names one (a
// load-generator thread names its phase's span). A disabled tracer
// records nothing, so the untraced run pays one branch per span.

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = -1;  // index of the parent span, -1 for a root
  uint64_t request = 0;
};

// Layer of a span: its name up to the first '.'.
std::string SpanLayer(const std::string& name);

// Self time of every layer: each span's duration minus the part of its
// interval that its children cover (overlapping children count once),
// summed per layer, in nanoseconds.
std::map<std::string, double> LayerSelfNs(const std::vector<Span>& spans);

class Tracer {
 public:
  explicit Tracer(bool enabled);

  bool enabled() const { return enabled_; }
  int64_t NowNs() const;

  // Parent argument meaning "the innermost span this thread has open".
  static constexpr int64_t kEnclosing = -2;

  // Opens a span and returns its id (-1 when disabled).
  int64_t Begin(const char* name, int64_t parent = kEnclosing,
                uint64_t request = 0);
  // Closes span `id`, which must be the innermost one this thread opened.
  void End(int64_t id);
  // Records a finished span with explicit times (NowNs() clock).
  int64_t Record(const char* name, int64_t start_ns, int64_t end_ns,
                 int64_t parent, uint64_t request);

  std::vector<Span> spans() const;
  // One JSON object per line; false when the file cannot be written.
  bool WriteJsonLines(const std::string& path) const;

  // Closes its span when it leaves scope.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, int64_t parent = kEnclosing,
          uint64_t request = 0)
        : tracer_(tracer), id_(tracer->Begin(name, parent, request)) {}
    ~Scope() { tracer_->End(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    int64_t id() const { return id_; }

   private:
    Tracer* tracer_;
    int64_t id_;
  };

 private:
  const bool enabled_;
  const std::chrono::steady_clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
