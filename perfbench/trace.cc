#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {

namespace {

// Ids of the spans this thread has open, innermost last. One tracer is
// enabled per process, so the stack needs no tracer key.
thread_local std::vector<int64_t> t_open;

}  // namespace

std::string SpanLayer(const std::string& name) {
  return name.substr(0, name.find('.'));
}

std::map<std::string, double> LayerSelfNs(const std::vector<Span>& spans) {
  std::vector<std::vector<size_t>> children(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const int64_t p = spans[i].parent;
    if (p >= 0 && static_cast<size_t>(p) < spans.size()) {
      children[static_cast<size_t>(p)].push_back(i);
    }
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::vector<std::pair<int64_t, int64_t>> cover;
    for (const size_t c : children[i]) {
      const int64_t lo = std::max(spans[c].start_ns, s.start_ns);
      const int64_t hi = std::min(spans[c].end_ns, s.end_ns);
      if (lo < hi) cover.emplace_back(lo, hi);
    }
    std::sort(cover.begin(), cover.end());
    int64_t covered = 0;
    int64_t run_lo = 0;
    int64_t run_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : cover) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) covered += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) covered += run_hi - run_lo;
    self[SpanLayer(s.name)] +=
        static_cast<double>(std::max<int64_t>(s.end_ns - s.start_ns, 0) -
                            covered);
  }
  return self;
}

Tracer::Tracer(bool enabled)
    : enabled_(enabled), origin_(std::chrono::steady_clock::now()) {}

int64_t Tracer::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

int64_t Tracer::Begin(const char* name, int64_t parent, uint64_t request) {
  if (!enabled_) return -1;
  if (parent == kEnclosing) parent = t_open.empty() ? -1 : t_open.back();
  const int64_t now = NowNs();
  int64_t id;
  {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(Span{name, now, now, parent, request});
    id = static_cast<int64_t>(spans_.size()) - 1;
  }
  t_open.push_back(id);
  return id;
}

void Tracer::End(int64_t id) {
  if (id < 0) return;
  if (!t_open.empty() && t_open.back() == id) t_open.pop_back();
  const int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].end_ns = now;
}

int64_t Tracer::Record(const char* name, int64_t start_ns, int64_t end_ns,
                       int64_t parent, uint64_t request) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, start_ns, end_ns, parent, request});
  return static_cast<int64_t>(spans_.size()) - 1;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::vector<Span> all = spans();
  for (size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                 "\"end_ns\":%lld,\"parent\":%lld,\"request\":%llu}\n",
                 i, s.name.c_str(), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.request));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
