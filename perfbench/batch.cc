// Batch workloads (lftj-paper, ms-morsel) and the per-layer probes over
// the batch dataset that every traced run reports.
//
// Inputs: the soc-Epinions1 mirror at scale 1 (fixed), and per run
// kDraws independent draws of v1..v4 at selectivity 10 made from the
// seed. A draw keeps exactly one node out of each run of 10 nodes in
// degree order, so every draw holds the same number of hubs: with plain
// Bernoulli samples one draw's 3-path count varied 1.9x between seeds,
// which would make the spread across seeds larger than any bound.

#include <algorithm>
#include <map>
#include <memory>
#include <numeric>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "bench_util/workloads.h"
#include "core/atom_index.h"
#include "core/engine.h"
#include "core/leapfrog.h"
#include "graph/datasets.h"
#include "parallel/partitioned_run.h"
#include "parallel/worker_pool.h"
#include "perfbench.h"
#include "query/parser.h"
#include "storage/catalog.h"
#include "storage/search_kernels.h"
#include "storage/trie.h"
#include "util/rng.h"

namespace perfbench {

namespace {

using wcoj::BoundQuery;
using wcoj::Database;
using wcoj::EngineStats;
using wcoj::ExecResult;
using wcoj::Graph;
using wcoj::Relation;
using wcoj::TrieIndex;
using wcoj::Value;

// Keeps replayed probe results observable so no loop is optimized away.
volatile uint64_t g_sink = 0;

const std::vector<std::string> kLftjShapes = {"3-clique", "4-clique",
                                              "4-cycle",  "3-path",
                                              "2-comb",   "1-tree"};
const std::vector<std::string> kMsShapes = {"1-tree", "2-comb", "3-path",
                                            "3-clique"};
constexpr int kSelectivity = 10;
// v1..v4 draws per run. A segment is one draw, so four draws give each
// run's medians several differently sampled inputs to average over.
constexpr int kDraws = 4;
// Set-ups per run; setup_s is their median, since one set-up takes only
// tens of milliseconds and a single reading follows the host's noise.
constexpr int kSetupReps = 9;
constexpr int kMorselGranularity = 8;  // as query_runner --threads
constexpr double kQueryDeadlineS = 60.0;

// One node, chosen by the seed, out of every run of `selectivity` nodes
// in descending degree order.
Relation StratifiedSample(const Graph& g, int selectivity, uint64_t seed) {
  std::vector<int64_t> ids(static_cast<size_t>(g.num_nodes()));
  std::iota(ids.begin(), ids.end(), 0);
  std::stable_sort(ids.begin(), ids.end(), [&g](int64_t a, int64_t b) {
    return g.Degree(a) > g.Degree(b);
  });
  wcoj::Rng rng(seed);
  Relation r(1);
  for (size_t b = 0; b < ids.size(); b += selectivity) {
    const size_t n = std::min<size_t>(selectivity, ids.size() - b);
    r.Add({ids[b + rng.NextBounded(n)]});
  }
  r.Build();
  return r;
}

// The relations and bound shape queries of one v1..v4 draw.
struct Draw {
  Database db;
  std::vector<BoundQuery> queries;  // one per shape
};

std::unique_ptr<Draw> MakeDraw(const Graph& g,
                               const std::vector<std::string>& shapes,
                               uint64_t seed, int k, Tracer* tr) {
  auto d = std::make_unique<Draw>();
  {
    Tracer::Scope s(tr, "graph.Relations");
    d->db.Put("edge", g.EdgeRelationSymmetric());
    d->db.Put("edge_lt", g.EdgeRelationOriented());
    d->db.Put("node", g.NodeRelation());
  }
  {
    Tracer::Scope s(tr, "graph.Sample");
    for (const int i : {0, 1, 2, 3}) {
      const char name[] = {'v', static_cast<char>('1' + i), '\0'};
      d->db.Put(name, StratifiedSample(g, kSelectivity, MixSeed(seed, k, i)));
    }
  }
  Tracer::Scope s(tr, "query.Bind");
  for (const std::string& shape : shapes) {
    const wcoj::Workload& w = wcoj::WorkloadByName(shape);
    d->queries.push_back(Bind(wcoj::MustParseQuery(w.query_text), d->db,
                              w.gao));
  }
  return d;
}

// Everything a batch run builds before its first timed query.
struct BatchSet {
  std::unique_ptr<Graph> graph;
  std::vector<std::unique_ptr<Draw>> draws;
  std::unique_ptr<wcoj::WorkerPool> pool;  // ms-morsel only
  wcoj::ExecScratchPool scratch_pool;
  double generate_s = 0.0;
};

std::unique_ptr<BatchSet> BuildSet(const std::vector<std::string>& shapes,
                                   int draws, uint64_t seed, int threads,
                                   bool parallel, Tracer* tr) {
  auto set = std::make_unique<BatchSet>();
  Tracer::Scope setup(tr, "bench.setup");
  const int64_t t0 = NowNs();
  {
    Tracer::Scope s(tr, "graph.LoadDataset");
    set->graph = std::make_unique<Graph>(
        wcoj::LoadDataset(wcoj::DatasetByName("soc-Epinions1"), 1.0));
  }
  set->generate_s = Ms(NowNs() - t0) / 1e3;
  for (int k = 0; k < draws; ++k) {
    set->draws.push_back(
        MakeDraw(*set->graph, shapes, seed, k, tr));
  }
  for (const auto& d : set->draws) {
    for (const BoundQuery& q : d->queries) {
      if (parallel) {
        Tracer::Scope s(tr, "parallel.WarmQueryIndexesParallel");
        wcoj::WarmQueryIndexesParallel(q, threads);
      } else {
        Tracer::Scope s(tr, "storage.WarmQueryIndexes");
        wcoj::WarmQueryIndexes(q);
      }
    }
  }
  if (parallel) {
    Tracer::Scope s(tr, "parallel.WorkerPool");
    set->pool = std::make_unique<wcoj::WorkerPool>(threads);
    set->scratch_pool.Reserve(threads);
  }
  return set;
}

bool IsTimeout(const wcoj::Status& s) {
  return s.code() == wcoj::StatusCode::kDeadlineExceeded ||
         s.code() == wcoj::StatusCode::kCancelled;
}

// Reference count per (draw, shape) from another engine than the one
// measured. The cyclic shapes read no sample, so draw 0's count serves
// every draw.
std::string ReferenceEngine(const std::string& workload,
                            const std::string& shape) {
  if (workload == "ms-morsel") return "lftj";
  if (shape == "3-clique" || shape == "4-clique") return "clique";
  if (shape == "3-path") return "hybrid";
  if (shape == "2-comb") return "yannakakis";
  return "psql";  // 4-cycle, 1-tree
}

bool ReferenceCounts(const std::string& workload, const BatchSet& set,
                     const std::vector<std::string>& shapes,
                     std::vector<std::vector<uint64_t>>* refs) {
  refs->assign(set.draws.size(), std::vector<uint64_t>(shapes.size(), 0));
  for (size_t k = 0; k < set.draws.size(); ++k) {
    for (size_t s = 0; s < shapes.size(); ++s) {
      if (k > 0 && wcoj::WorkloadByName(shapes[s]).num_samples == 0) {
        (*refs)[k][s] = (*refs)[0][s];
        continue;
      }
      auto engine = wcoj::CreateEngine(ReferenceEngine(workload, shapes[s]));
      wcoj::ExecOptions opts;
      opts.deadline = wcoj::Deadline::AfterSeconds(kQueryDeadlineS);
      const ExecResult r = engine->Execute(set.draws[k]->queries[s], opts);
      if (!r.ok()) {
        std::fprintf(stderr, "reference %s on %s failed: %s\n",
                     engine->name().c_str(), shapes[s].c_str(),
                     r.status.ToString().c_str());
        return false;
      }
      (*refs)[k][s] = r.count;
    }
  }
  return true;
}

// A segment is one draw's worth of queries (every shape once). Host
// noise on a shared machine comes in bursts of a second or two, so the
// run's throughput, CPU cost and median latency are medians over its
// segments rather than totals, which a burst would skew.
struct Segment {
  double qps = 0.0;
  double cpu_ms_per_query = 0.0;
  double p50_ms = 0.0;
};

struct LoopResult {
  Outcomes outcomes;
  std::vector<double> latency_ms;
  std::vector<Segment> segments;
  EngineStats first_pass;  // stats of the first complete pass
  // Traced run only: time and queries of untraced / traced segments.
  double untraced_s = 0.0, traced_s = 0.0;
  uint64_t untraced_n = 0, traced_n = 0;
};

// Closed loop, one caller: whole draws (every shape once) until the run
// time is spent, so each run executes the same mix.
LoopResult RunLoop(const Options& opt, BatchSet* set,
                   const std::vector<std::string>& shapes,
                   const std::vector<std::vector<uint64_t>>& refs,
                   Tracer* tracer) {
  const bool morsel = opt.workload == "ms-morsel";
  auto engine = wcoj::CreateEngine(morsel ? "ms" : "lftj");
  wcoj::ExecScratch scratch;
  Tracer off(false);
  LoopResult out;
  const int64_t start = NowNs();
  const int64_t end = start + static_cast<int64_t>(opt.seconds * 1e9);
  uint64_t request = 0;
  for (int pass = 0; NowNs() < end; ++pass) {
    for (size_t k = 0; k < set->draws.size() && NowNs() < end; ++k) {
      // Traced runs trace every other segment, each draw in alternate
      // passes, so both halves run the same mix.
      const bool traced = tracer->enabled() && (k + pass) % 2 == 1;
      Tracer* tr = traced ? tracer : &off;
      Tracer::Scope seg_span(tr, "bench.segment");
      const int64_t seg_t0 = NowNs();
      const double seg_cpu0 = ProcessCpuSeconds();
      const uint64_t seg_answered0 = out.outcomes.answered;
      std::vector<double> seg_latency;
      for (size_t s = 0; s < shapes.size(); ++s) {
        const BoundQuery& q = set->draws[k]->queries[s];
        wcoj::ExecOptions opts;
        opts.deadline = wcoj::Deadline::AfterSeconds(kQueryDeadlineS);
        opts.scratch = &scratch;
        const int64_t t0 = NowNs();
        ExecResult r;
        if (morsel) {
          Tracer::Scope span(tr, "parallel.PartitionedExecute",
                             Tracer::kEnclosing, ++request);
          r = wcoj::PartitionedExecute(*engine, q, opts, opt.threads,
                                       kMorselGranularity,
                                       &set->scratch_pool, set->pool.get());
        } else {
          Tracer::Scope span(tr, "core.Execute", Tracer::kEnclosing,
                             ++request);
          r = engine->Execute(q, opts);
        }
        out.latency_ms.push_back(Ms(NowNs() - t0));
        seg_latency.push_back(out.latency_ms.back());
        ++out.outcomes.attempted;
        if (!r.ok()) {
          ++(IsTimeout(r.status) ? out.outcomes.timeouts
                                 : out.outcomes.errors);
        } else if (r.count != refs[k][s]) {
          ++out.outcomes.wrong;
          std::fprintf(stderr, "WRONG ANSWER: %s draw %zu: %llu, want %llu\n",
                       shapes[s].c_str(), k,
                       static_cast<unsigned long long>(r.count),
                       static_cast<unsigned long long>(refs[k][s]));
        } else {
          ++out.outcomes.answered;
        }
        if (pass == 0) out.first_pass.Add(r.stats);
      }
      const double seg_s = Ms(NowNs() - seg_t0) / 1e3;
      const double answered =
          static_cast<double>(out.outcomes.answered - seg_answered0);
      out.segments.push_back(
          {answered / seg_s,
           (ProcessCpuSeconds() - seg_cpu0) * 1e3 / std::max(answered, 1.0),
           Median(seg_latency)});
      (traced ? out.traced_s : out.untraced_s) += seg_s;
      (traced ? out.traced_n : out.untraced_n) += shapes.size();
    }
  }
  return out;
}

// ---- storage probes --------------------------------------------------

// One bound search: the sibling run [lo, hi) of `depth` reached by
// `path`, and the value sought in it.
struct Probe {
  const TrieIndex* index = nullptr;
  const std::vector<int64_t>* keys = nullptr;  // int64 copy of the level
  int depth = 0;
  size_t lo = 0, hi = 0;
  Value v = 0;
  std::vector<Value> path;  // keys at depths < depth, then v, padded
};

std::vector<const TrieIndex*> ResidentIndexes(const Draw& d) {
  std::set<const TrieIndex*> seen;
  std::vector<const TrieIndex*> out;
  for (const BoundQuery& q : d.queries) {
    for (const wcoj::BoundAtom& atom : q.atoms) {
      const TrieIndex* idx = q.catalog->GetOrBuild(
          *atom.relation, wcoj::GaoConsistentPerm(atom.vars));
      if (idx != nullptr && seen.insert(idx).second) out.push_back(idx);
    }
  }
  return out;
}

struct ProbeSet {
  std::map<std::pair<const TrieIndex*, int>, std::vector<int64_t>> copies;
  std::vector<Probe> probes;
};

void MakeProbes(const std::vector<const TrieIndex*>& indexes, uint64_t seed,
                size_t count, ProbeSet* ps) {
  for (const TrieIndex* idx : indexes) {
    for (int d = 0; d < idx->arity(); ++d) {
      std::vector<int64_t>& copy = ps->copies[{idx, d}];
      for (size_t i = 0; i < idx->LevelSize(d); ++i) {
        copy.push_back(idx->KeyAt(d, i));
      }
    }
  }
  wcoj::Rng rng(seed);
  while (ps->probes.size() < count) {
    Probe p;
    p.index = indexes[rng.NextBounded(indexes.size())];
    if (p.index->size() == 0) continue;
    p.depth = static_cast<int>(rng.NextBounded(p.index->arity()));
    p.hi = p.index->LevelSize(0);
    for (int d = 0; d < p.depth; ++d) {
      const size_t node = p.lo + rng.NextBounded(p.hi - p.lo);
      p.path.push_back(p.index->KeyAt(d, node));
      p.lo = p.index->ChildBegin(d, node);
      p.hi = p.index->ChildEnd(d, node);
    }
    const Value key = p.index->KeyAt(p.depth, p.lo + rng.NextBounded(p.hi - p.lo));
    p.v = key - static_cast<Value>(rng.NextBounded(2));  // present or not
    p.path.push_back(p.v);
    p.path.resize(static_cast<size_t>(p.index->arity()), p.v);
    p.keys = &ps->copies[{p.index, p.depth}];
    ps->probes.push_back(std::move(p));
  }
}

constexpr int kProbeReps = 7;

// Median over kProbeReps replays of the per-probe time in ns.
template <typename Prepare, typename Op>
double ReplayNs(const ProbeSet& ps, Tracer* tr, const char* span,
                Prepare prepare, Op op) {
  std::vector<double> per_op;
  for (int rep = 0; rep < kProbeReps; ++rep) {
    prepare();
    Tracer::Scope s(tr, span);
    const int64_t t0 = NowNs();
    uint64_t acc = 0;
    for (size_t i = 0; i < ps.probes.size(); ++i) acc += op(i);
    per_op.push_back(static_cast<double>(NowNs() - t0) /
                     static_cast<double>(ps.probes.size()));
    g_sink = g_sink + acc;
  }
  return Median(per_op);
}

void StorageProbes(const ProbeSet& ps, Tracer* tr, Metrics* out) {
  auto none = [] {};
  auto kernel = [&ps](size_t i) -> uint64_t {
    const Probe& p = ps.probes[i];
    return wcoj::KernelLowerBound(p.keys->data(), p.lo, p.hi, p.v);
  };
  auto level_keys = [&ps](size_t i) -> uint64_t {
    const Probe& p = ps.probes[i];
    return p.index->LowerBound(p.depth, p.lo, p.hi, p.v);
  };
  for (const wcoj::KernelKind k : wcoj::SupportedKernels()) {
    wcoj::ForceSearchKernel(k);
    const std::string name = wcoj::KernelName(k);
    (*out)["storage.kernel_lower_bound_ns." + name] = {
        ReplayNs(ps, tr, "storage.KernelLowerBound", none, kernel), "ns"};
    (*out)["storage.level_keys_lower_bound_ns." + name] = {
        ReplayNs(ps, tr, "storage.LevelKeys.LowerBound", none, level_keys),
        "ns"};
  }
  wcoj::ForceSearchKernel(wcoj::KernelKind::kAuto);
  (*out)["storage.kernel_lower_bound_ns"] = {
      ReplayNs(ps, tr, "storage.KernelLowerBound", none, kernel), "ns"};
  (*out)["storage.level_keys_lower_bound_ns"] = {
      ReplayNs(ps, tr, "storage.LevelKeys.LowerBound", none, level_keys),
      "ns"};

  // Iterators positioned at the start of each probe's run (untimed),
  // then one Seek each.
  std::vector<wcoj::TrieIterator> iters;
  auto position = [&ps, &iters] {
    iters.clear();
    iters.reserve(ps.probes.size());
    for (const Probe& p : ps.probes) {
      wcoj::TrieIterator it(p.index);
      it.Open();
      for (int d = 0; d < p.depth; ++d) {
        it.Seek(p.path[d]);
        it.Open();
      }
      iters.push_back(std::move(it));
    }
  };
  (*out)["storage.iter_seek_ns"] = {
      ReplayNs(ps, tr, "storage.TrieIterator.Seek", position,
               [&ps, &iters](size_t i) -> uint64_t {
                 iters[i].Seek(ps.probes[i].v);
                 return iters[i].AtEnd() ? 0 : 1;
               }),
      "ns"};
  (*out)["storage.seekgap_ns"] = {
      ReplayNs(ps, tr, "storage.SeekGap", none,
               [&ps](size_t i) -> uint64_t {
                 const Probe& p = ps.probes[i];
                 const TrieIndex::GapProbe g = p.index->SeekGap(p.path);
                 return static_cast<uint64_t>(g.fail_pos) + (g.found ? 1 : 0);
               }),
      "ns"};
}

// LeapfrogJoin over the level-0 iterators of var0's atoms, per key.
double LeapfrogKeyNs(const Draw& d, const std::vector<std::string>& shapes,
                     Tracer* tr) {
  std::vector<double> per_key;
  for (int rep = 0; rep < 51; ++rep) {
    int64_t ns = 0;
    uint64_t keys = 0;
    for (size_t s = 0; s < shapes.size(); ++s) {
      if (!wcoj::WorkloadByName(shapes[s]).cyclic) continue;
      const BoundQuery& q = d.queries[s];
      std::vector<wcoj::TrieIterator> its;
      for (const wcoj::BoundAtom& atom : q.atoms) {
        if (std::find(atom.vars.begin(), atom.vars.end(), 0) ==
            atom.vars.end()) {
          continue;
        }
        its.emplace_back(q.catalog->GetOrBuild(
            *atom.relation, wcoj::GaoConsistentPerm(atom.vars)));
      }
      std::vector<wcoj::TrieIterator*> ptrs;
      for (wcoj::TrieIterator& it : its) {
        it.Open();
        ptrs.push_back(&it);
      }
      Tracer::Scope span(tr, "core.LeapfrogJoin");
      const int64_t t0 = NowNs();
      wcoj::LeapfrogJoin lf(ptrs);
      for (lf.Init(); !lf.AtEnd(); lf.Next()) ++keys;
      ns += NowNs() - t0;
    }
    per_key.push_back(static_cast<double>(ns) /
                      static_cast<double>(std::max<uint64_t>(keys, 1)));
  }
  return Median(per_key);
}

// Median wall time of `reps` executions after one warm-up, in ms.
double ExecMs(const wcoj::Engine& engine, const BoundQuery& q,
              wcoj::ExecScratch* scratch, int reps, Tracer* tr,
              const char* span, ExecResult* last) {
  wcoj::ExecOptions opts;
  opts.deadline = wcoj::Deadline::AfterSeconds(kQueryDeadlineS);
  opts.scratch = scratch;
  *last = engine.Execute(q, opts);
  std::vector<double> ms;
  for (int i = 0; i < reps; ++i) {
    Tracer::Scope s(tr, span);
    const int64_t t0 = NowNs();
    *last = engine.Execute(q, opts);
    ms.push_back(Ms(NowNs() - t0));
  }
  return Median(ms);
}

}  // namespace

Report RunBatch(const Options& opt, Tracer* tracer) {
  Report rep;
  const bool morsel = opt.workload == "ms-morsel";
  const std::vector<std::string>& shapes = morsel ? kMsShapes : kLftjShapes;
  std::vector<double> setup_s, generate_s;
  std::unique_ptr<BatchSet> set;
  for (int i = 0; i < kSetupReps; ++i) {
    set.reset();
    const int64_t t0 = NowNs();
    set = BuildSet(shapes, kDraws, opt.seed, opt.threads, morsel, tracer);
    setup_s.push_back(Ms(NowNs() - t0) / 1e3);
    generate_s.push_back(set->generate_s);
  }
  std::vector<std::vector<uint64_t>> refs;
  if (!ReferenceCounts(opt.workload, *set, shapes, &refs)) {
    rep.invalid = true;
    rep.notes.push_back("reference engine failed; nothing measured");
    return rep;
  }
  ResetPeakRss();
  const LoopResult loop = RunLoop(opt, set.get(), shapes, refs, tracer);
  rep.outcomes = loop.outcomes;
  Metrics& m = rep.metrics;
  if (!tracer->enabled()) {
    const Tail tail = PickTail(loop.latency_ms);
    std::vector<double> qps, cpu, p50;
    for (const Segment& s : loop.segments) {
      qps.push_back(s.qps);
      cpu.push_back(s.cpu_ms_per_query);
      p50.push_back(s.p50_ms);
    }
    m["setup_s"] = {Median(setup_s), "s"};
    m["throughput_qps"] = {Median(qps), "1/s"};
    m["latency_p50_ms"] = {Median(p50), "ms"};
    m["latency_tail_ms"] = {tail.value, "ms"};
    m["cpu_ms_per_query"] = {Median(cpu), "ms"};
    m["peak_rss_mb"] = {PeakRssMb(), "MB"};
    char note[200];
    std::snprintf(note, sizeof(note),
                  "latency_tail_ms is p%g of all %zu queries (%zu beyond); "
                  "throughput, CPU and p50 are medians over %zu segments of "
                  "%zu queries (one draw each)",
                  tail.percentile, tail.samples, tail.beyond,
                  loop.segments.size(), shapes.size());
    rep.notes.push_back(note);
    return rep;
  }
  m["graph.generate_s"] = {Median(generate_s), "s"};
  m["core.seeks"] = {static_cast<double>(loop.first_pass.seeks), "count"};
  const double untraced_qps =
      static_cast<double>(loop.untraced_n) / std::max(loop.untraced_s, 1e-9);
  const double traced_qps =
      static_cast<double>(loop.traced_n) / std::max(loop.traced_s, 1e-9);
  // Signed: the two halves' throughputs are measured separately, so noise
  // can make the traced half the faster one.
  m["trace.overhead_frac"] = {
      loop.traced_n == 0 ? 0.0 : 1.0 - traced_qps / untraced_qps, "frac"};
  return rep;
}

void BatchLadder(const Options& opt, Tracer* tr, Metrics* out) {
  Tracer::Scope ladder(tr, "bench.ladder");
  Metrics& m = *out;
  auto set = BuildSet(kLftjShapes, 1, opt.seed, opt.threads, false, tr);
  const Draw& d = *set->draws[0];

  // Storage: probes replayed over the draw's resident indexes.
  ProbeSet ps;
  const std::vector<const TrieIndex*> indexes = ResidentIndexes(d);
  MakeProbes(indexes, MixSeed(opt.seed, 7, 7), 4096, &ps);
  StorageProbes(ps, tr, out);
  double key_bytes = 0.0;
  for (const TrieIndex* idx : indexes) {
    for (int depth = 0; depth < idx->arity(); ++depth) {
      key_bytes += static_cast<double>(idx->LevelKeyBytes(depth));
    }
  }
  m["storage.index_key_bytes"] = {key_bytes, "bytes"};
  {
    auto fresh = MakeDraw(*set->graph, kLftjShapes, opt.seed, 0, tr);
    EngineStats warm;
    Tracer::Scope s(tr, "storage.WarmQueryIndexes");
    const int64_t t0 = NowNs();
    for (const BoundQuery& q : fresh->queries) {
      warm.Add(wcoj::WarmQueryIndexes(q));
    }
    m["storage.catalog_warm_s"] = {Ms(NowNs() - t0) / 1e3, "s"};
    m["storage.index_builds"] = {static_cast<double>(warm.index_builds),
                                 "count"};
  }
  {
    auto fresh = MakeDraw(*set->graph, kLftjShapes, opt.seed, 0, tr);
    Tracer::Scope s(tr, "parallel.WarmQueryIndexesParallel");
    const int64_t t0 = NowNs();
    for (const BoundQuery& q : fresh->queries) {
      wcoj::WarmQueryIndexesParallel(q, opt.threads);
    }
    m["parallel.warm_s"] = {Ms(NowNs() - t0) / 1e3, "s"};
  }

  // Core: leapfrog over level-0 iterators, then serial warm Execute per
  // shape and engine.
  m["core.leapfrog_key_ns"] = {LeapfrogKeyNs(d, kLftjShapes, tr), "ns"};
  auto lftj = wcoj::CreateEngine("lftj");
  auto ms = wcoj::CreateEngine("ms");
  wcoj::ExecScratch scratch;
  ExecResult last;
  for (size_t s = 0; s < kLftjShapes.size(); ++s) {
    m["core.exec_ms.lftj." + kLftjShapes[s]] = {
        ExecMs(*lftj, d.queries[s], &scratch, 3, tr, "core.Execute", &last),
        "ms"};
  }
  double serial_ms = 0.0;
  EngineStats serial;
  for (const std::string& shape : kMsShapes) {
    const size_t s = static_cast<size_t>(
        std::find(kLftjShapes.begin(), kLftjShapes.end(), shape) -
        kLftjShapes.begin());
    const double t =
        ExecMs(*ms, d.queries[s], &scratch, 2, tr, "core.Execute", &last);
    m["core.exec_ms.ms." + shape] = {t, "ms"};
    serial_ms += t;
    serial.Add(last.stats);
  }

  // Parallel: the same ms shapes through the morsel scheduler.
  wcoj::WorkerPool pool(opt.threads);
  wcoj::ExecScratchPool scratch_pool;
  std::vector<double> pass_ms;
  EngineStats par;
  for (int rep = 0; rep < 4; ++rep) {
    par = EngineStats();
    const int64_t t0 = NowNs();
    for (const std::string& shape : kMsShapes) {
      const size_t s = static_cast<size_t>(
          std::find(kLftjShapes.begin(), kLftjShapes.end(), shape) -
          kLftjShapes.begin());
      wcoj::ExecOptions opts;
      opts.deadline = wcoj::Deadline::AfterSeconds(kQueryDeadlineS);
      Tracer::Scope span(tr, "parallel.PartitionedExecute");
      par.Add(wcoj::PartitionedExecute(*ms, d.queries[s], opts, opt.threads,
                                       kMorselGranularity, &scratch_pool,
                                       &pool)
                  .stats);
    }
    if (rep > 0) pass_ms.push_back(Ms(NowNs() - t0));  // rep 0 warms
  }
  m["parallel.speedup"] = {serial_ms / Median(pass_ms), "x"};
  const double recycled = static_cast<double>(par.cds_nodes_recycled);
  const double allocated = static_cast<double>(par.cds_nodes_allocated);
  m["parallel.cds_reuse_frac"] = {
      recycled / std::max(allocated + recycled, 1.0), "frac"};
  m["core.cds_constraints"] = {static_cast<double>(par.constraints_inserted),
                               "count"};
  m["core.cds_free_tuples"] = {static_cast<double>(par.free_tuples),
                               "count"};
  m["core.gap_cache_hit_frac"] = {
      static_cast<double>(par.gap_cache_hits) /
          std::max(static_cast<double>(par.gap_cache_hits + par.seeks), 1.0),
      "frac"};
  m["core.cds_nodes_allocated"] = {allocated, "count"};
  m["core.cds_peak_arena_bytes"] = {
      static_cast<double>(par.cds_peak_arena_bytes), "bytes"};
  m["core.ms_us_per_free_tuple"] = {
      serial_ms * 1e3 /
          std::max(static_cast<double>(serial.free_tuples), 1.0),
      "us"};

  std::vector<double> run_us;
  std::vector<std::function<void(int)>> empty(
      static_cast<size_t>(opt.threads), [](int) {});
  for (int rep = 0; rep < 501; ++rep) {
    Tracer::Scope span(tr, "parallel.WorkerPool.Run");
    const int64_t t0 = NowNs();
    pool.Run(empty);
    run_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
  }
  m["parallel.pool_run_us"] = {Median(run_us), "us"};
}

}  // namespace perfbench
