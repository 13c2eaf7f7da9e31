#ifndef WCOJ_CORE_ENGINE_H_
#define WCOJ_CORE_ENGINE_H_

// Uniform engine interface.
//
// Every join processor in this repo — LFTJ, Minesweeper (and its idea
// ablations), the hybrid, the Selinger-style baselines, Yannakakis, and
// the specialized clique engine — implements Engine::Execute over a
// BoundQuery. Benchmarks and tests treat engines interchangeably, exactly
// how the paper swaps join algorithms inside one system.

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/cds.h"
#include "core/cds_arena.h"
#include "query/query.h"
#include "util/mem_budget.h"
#include "util/status.h"
#include "util/stopwatch.h"
#include "util/value.h"

namespace wcoj {

struct EngineStats {
  uint64_t seeks = 0;                 // index probe operations
  uint64_t constraints_inserted = 0;  // Minesweeper CDS inserts
  uint64_t free_tuples = 0;           // Minesweeper candidate tuples
  uint64_t gap_cache_hits = 0;        // Idea 4: probes answered by the
                                      // atom's cursor without a seek
  uint64_t intermediate_tuples = 0;   // baseline materialized rows
  uint64_t index_builds = 0;          // TrieIndex constructions performed
  uint64_t index_cache_hits = 0;      // catalog indexes reused, no build
  // CDS arena accounting (core/cds_arena.h): nodes carved from fresh
  // arena memory vs nodes served from free lists / warm slabs. A warm
  // scratch run reports cds_nodes_allocated == 0 — the allocation-free
  // steady state. cds_peak_arena_bytes is the arena's high-water heap
  // footprint (merged with max, not sum: per-worker arenas coexist).
  uint64_t cds_nodes_allocated = 0;
  uint64_t cds_nodes_recycled = 0;
  uint64_t cds_peak_arena_bytes = 0;
  // High-water mark of the query's MemoryBudget (0 when no budget was
  // installed). Merged with max: morsels share one budget, so every
  // part observes the same governor.
  uint64_t peak_budget_bytes = 0;

  // Field-wise merge; partitioned runs and multi-phase engines merge
  // per-part stats with this. Counters sum, footprints take the max.
  void Add(const EngineStats& o) {
    seeks += o.seeks;
    constraints_inserted += o.constraints_inserted;
    free_tuples += o.free_tuples;
    gap_cache_hits += o.gap_cache_hits;
    intermediate_tuples += o.intermediate_tuples;
    index_builds += o.index_builds;
    index_cache_hits += o.index_cache_hits;
    cds_nodes_allocated += o.cds_nodes_allocated;
    cds_nodes_recycled += o.cds_nodes_recycled;
    cds_peak_arena_bytes = std::max(cds_peak_arena_bytes, o.cds_peak_arena_bytes);
    peak_budget_bytes = std::max(peak_budget_bytes, o.peak_budget_bytes);
  }
};

// Reusable per-worker execution scratch, owned by the caller (a §4.10
// partition worker, a repeated CLI run, an incremental view). An engine
// handed a scratch draws its CDS from the scratch's arena instead of
// building one on the general-purpose heap, so every execution after
// the first runs against warm memory and the steady state performs no
// CDS heap allocation. A scratch must never be shared by concurrent
// executions — one worker, one scratch.
struct ExecScratch {
  CdsArena cds_arena;

  // One warm Cds shell on top of the arena: Reconfigure()d to the run's
  // shape, it reuses its internal search vectors run after run. The
  // returned reference is invalidated by the next AcquireCds call.
  //
  // `run_token` identifies one logical query execution that spans many
  // engine invocations — the morsel scheduler stamps every morsel of a
  // partitioned run with the same nonzero token. When a token matches
  // the previous acquisition, the shell keeps its whole constraint tree
  // (Cds::ResumeRetainingTree) instead of rebuilding it, so each morsel
  // a worker picks up starts from everything the worker already learned
  // about the data. Token 0 (the default) always reconfigures.
  Cds& AcquireCds(int num_vars, const Cds::Options& options,
                  uint64_t run_token = 0) {
    if (cds == nullptr) {
      cds = std::make_unique<Cds>(num_vars, options, &cds_arena);
    } else if (run_token != 0 && run_token == cds_run_token) {
      cds->ResumeRetainingTree();
      cds_run_token = run_token;
      return *cds;
    } else {
      cds->Reconfigure(num_vars, options);
    }
    cds_run_token = run_token;
    return *cds;
  }

  std::unique_ptr<Cds> cds;
  uint64_t cds_run_token = 0;
};

// Stable per-worker scratch slots for multi-threaded drivers: worker w
// always gets the same ExecScratch, which stays warm across runs when
// the pool outlives them (PartitionedExecute accepts a caller pool).
class ExecScratchPool {
 public:
  // Ensures workers [0, n) exist. Not thread-safe: size the pool before
  // handing ForWorker out to concurrent jobs.
  void Reserve(int n) {
    while (static_cast<int>(workers_.size()) < n) {
      workers_.push_back(std::make_unique<ExecScratch>());
    }
  }
  ExecScratch* ForWorker(int w) {
    assert(w >= 0 && w < static_cast<int>(workers_.size()));
    return workers_[w].get();
  }
  int size() const { return static_cast<int>(workers_.size()); }

 private:
  std::vector<std::unique_ptr<ExecScratch>> workers_;
};

struct ExecOptions {
  Deadline deadline = Deadline::Infinite();
  bool collect_tuples = false;  // keep full output tuples, not just a count
  // Inclusive range restriction on the first GAO variable; used by the
  // parallel output-space partitioner (§4.10).
  Value var0_min = kNegInf;
  Value var0_max = kPosInf;
  // Warm per-worker scratch; null means per-run private arenas. Must
  // outlive the execution and see at most one execution at a time.
  ExecScratch* scratch = nullptr;
  // Shared cooperative stop: engines treat a requested stop exactly like
  // an expired deadline (wind down at the next frontier boundary, report
  // kCancelled). The morsel scheduler hands every morsel the same token
  // so one partition's timeout cancels the whole run; callers may
  // install their own to cancel a run externally. Must outlive the
  // execution. Engines only ever *read* it.
  StopToken* stop = nullptr;
  // Nonzero when this execution is one morsel of a larger partitioned
  // run: engines pass it to ExecScratch::AcquireCds so consecutive
  // morsels on one worker keep the CDS constraint tree instead of
  // paying a full Reconfigure each (see AcquireCds). Stamped by
  // PartitionedExecute; single executions leave it 0.
  uint64_t cds_run_token = 0;
  // Lets PartitionedExecute stamp cds_run_token at all. Off restores
  // the reconfigure-per-morsel behavior (bench ablation knob).
  bool morsel_cds_reuse = true;
  // Per-query memory governor, shared by every morsel of a partitioned
  // run. Charged by CDS arenas, trie builds, materialized intermediates
  // and persist mappings; engines poll Aborted() and wind down with
  // kBudgetExceeded when the budget latches. Null means ungoverned.
  MemoryBudget* budget = nullptr;

  // True when this execution should wind down: requested stop or expired
  // deadline. Engines poll the stop token every iteration (relaxed atomic
  // load) but rate-limit the deadline's clock read themselves.
  bool Cancelled() const {
    return (stop != nullptr && stop->stop_requested()) || deadline.Expired();
  }

  // Cancelled() plus the budget governor: the full "stop working now"
  // predicate engines poll at frontier boundaries. All three legs are
  // relaxed atomic loads or rate-limited clock reads.
  bool Aborted() const {
    return (budget != nullptr && budget->exceeded()) || Cancelled();
  }

  // Why a run that winds down early failed, recorded by the engine at
  // that point: a latched budget gives kBudgetExceeded, a requested stop
  // kCancelled, anything else (the deadline) kDeadlineExceeded.
  Status AbortStatus() const {
    if (budget != nullptr && budget->exceeded()) {
      return Status(StatusCode::kBudgetExceeded,
                    "query memory budget exceeded");
    }
    if (stop != nullptr && stop->stop_requested()) {
      return Status(StatusCode::kCancelled, "execution cancelled");
    }
    return Status(StatusCode::kDeadlineExceeded, "deadline expired");
  }
};

struct ExecResult {
  uint64_t count = 0;
  std::vector<Tuple> tuples;  // populated iff collect_tuples
  EngineStats stats;
  double seconds = 0.0;  // filled by RunTimed
  // The run's only outcome. OK means count/tuples are the exact answer;
  // any other code means the run failed closed (cancel, deadline,
  // budget, bad input, internal fault) and partial output must not be
  // trusted.
  Status status;

  bool ok() const { return status.ok(); }
};

// Applied once at every Execute exit: snapshots the budget high-water
// mark into stats, and fails a run that finished while the budget was
// latched with kBudgetExceeded even if the engine raced past its last
// poll (deterministic fail-closed). A run that already failed keeps its
// cause.
inline void FinalizeExecStatus(ExecResult* result, const ExecOptions& opts) {
  if (opts.budget == nullptr) return;
  result->stats.peak_budget_bytes =
      std::max(result->stats.peak_budget_bytes, opts.budget->peak());
  if (opts.budget->exceeded()) result->status.Update(opts.AbortStatus());
}

// A count past 2^64 - 1 cannot be reported: the run fails closed with
// this status instead of wrapping.
inline Status CountOverflowStatus() {
  return Status(StatusCode::kResourceExhausted,
                "result count exceeds 2^64 - 1");
}

// Adds a partial count (a morsel's, a suffix run's) to result->count;
// on overflow fails the run with CountOverflowStatus() and returns false.
inline bool AddCount(ExecResult* result, uint64_t n) {
  uint64_t sum = 0;
  if (__builtin_add_overflow(result->count, n, &sum)) {
    result->status.Update(CountOverflowStatus());
    return false;
  }
  result->count = sum;
  return true;
}

// How an engine's catalog usage is made resident ahead of timed runs:
//   kGaoIndexes   consumes the per-atom GAO-consistent indexes, so
//                 WarmQueryIndexes makes later runs build-free
//                 (LFTJ, Minesweeper + ablations, the hybrid)
//   kByExecution  probes plan-dependent permutations that only a real
//                 execution touches (the pairwise baselines)
//   kNone         never reads the catalog (Yannakakis, clique)
enum class CatalogWarmup { kGaoIndexes, kByExecution, kNone };

class Engine {
 public:
  virtual ~Engine() = default;
  virtual std::string name() const = 0;
  virtual ExecResult Execute(const BoundQuery& q,
                             const ExecOptions& opts) const = 0;
  virtual CatalogWarmup catalog_warmup() const {
    return CatalogWarmup::kGaoIndexes;
  }
  // Whether Execute restricts its output to ExecOptions::var0_{min,max}.
  // The morsel scheduler may only fan an engine out over var0 ranges
  // when this holds — summing full-query counts once per morsel would
  // silently multiply the answer. Engines that ignore the range
  // (Yannakakis' semijoin program has no var0 hook) run as one morsel.
  virtual bool honors_var0_range() const { return true; }
};

// Executes and fills result.seconds.
ExecResult RunTimed(const Engine& engine, const BoundQuery& q,
                    const ExecOptions& opts);

// Factory over the fixed engine set:
//   "lftj"        Leapfrog Triejoin
//   "lftj-nocache" ablation: count mode without suffix caches or
//                 component products, i.e. the enumerating search
//   "ms"          Minesweeper, all ideas on
//   "ms-noidea4", "ms-noidea6", "ms-noidea7", "ms-noidea46"  ablations
//   "#ms"         counting Minesweeper (Idea 8)
//   "hybrid"      Minesweeper prefix + LFTJ suffix (§4.12)
//   "psql"        Selinger-style DP plan over pairwise joins that probe
//                 the catalog's sorted tries (no hash join)
//   "monetdb"     same plan space and probes, greedy smallest-first plan
//   "yannakakis"  semijoin-reduction engine for alpha-acyclic queries
//   "clique"      specialized triangle/4-clique engine (GraphLab stand-in)
// Returns nullptr for unknown names.
std::unique_ptr<Engine> CreateEngine(const std::string& name);

// All names CreateEngine accepts.
std::vector<std::string> EngineNames();

}  // namespace wcoj

#endif  // WCOJ_CORE_ENGINE_H_
