#include "core/lftj.h"

#include <algorithm>
#include <cassert>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "core/atom_index.h"
#include "core/leapfrog.h"
#include "storage/trie.h"
#include "util/mem_budget.h"

namespace wcoj {

namespace {

// Count-mode suffix cache of one GAO depth: the depth's adhesion values
// -> the number of completions below the depth. Flat open addressing
// with linear probing; a slot is one run of words [epoch, count, key...]
// and is live iff its epoch is the table's current one, so Clear() is
// O(1) however large the table has grown.
class SuffixCountCache {
 public:
  explicit SuffixCountCache(std::vector<int> adhesion)
      : adhesion_(std::move(adhesion)),
        stride_(adhesion_.size() + 2),
        key_(adhesion_.size()) {}

  // Loads t's adhesion values as the current key; true (and *count)
  // when it is cached.
  bool Find(const Tuple& t, uint64_t* count) {
    for (size_t i = 0; i < adhesion_.size(); ++i) {
      key_[i] = static_cast<uint64_t>(t[adhesion_[i]]);
    }
    if (slots_.empty()) return false;
    const uint64_t* slot = &slots_[Probe(key_.data()) * stride_];
    if (slot[0] != epoch_) return false;
    *count = slot[1];
    return true;
  }

  // Caches `count` under the key of the last Find, which missed.
  // Requires !Full().
  void Insert(uint64_t count) { Place(key_.data(), count); }

  void Clear() {
    ++epoch_;
    size_ = 0;
  }

  // Load factor capped at one half.
  bool Full() const { return 2 * (size_ + 1) > capacity(); }
  size_t capacity() const { return slots_.size() / stride_; }
  uint64_t bytes() const { return slots_.size() * sizeof(uint64_t); }
  uint64_t grown_bytes() const {
    return std::max<size_t>(2 * capacity(), kInitialSlots) * stride_ *
           sizeof(uint64_t);
  }

  // Doubles the table, re-placing the live slots.
  void Grow() {
    std::vector<uint64_t> old(grown_bytes() / sizeof(uint64_t), 0);
    old.swap(slots_);
    const uint64_t old_epoch = epoch_;
    epoch_ = 1;
    size_ = 0;
    for (size_t s = 0; s < old.size(); s += stride_) {
      if (old[s] == old_epoch) Place(&old[s + 2], old[s + 1]);
    }
  }

 private:
  static constexpr size_t kInitialSlots = 16;

  void Place(const uint64_t* key, uint64_t count) {
    uint64_t* slot = &slots_[Probe(key) * stride_];
    slot[0] = epoch_;
    slot[1] = count;
    std::copy(key, key + key_.size(), slot + 2);
    ++size_;
  }

  // The slot holding `key`, or the empty slot where it belongs.
  size_t Probe(const uint64_t* key) const {
    uint64_t h = 0x9E3779B97F4A7C15ULL;
    for (size_t j = 0; j < key_.size(); ++j) {
      h = (h ^ key[j]) * 0xFF51AFD7ED558CCDULL;
      h ^= h >> 32;
    }
    const size_t mask = capacity() - 1;
    for (size_t i = h & mask;; i = (i + 1) & mask) {
      const uint64_t* slot = &slots_[i * stride_];
      if (slot[0] != epoch_ ||
          std::equal(key, key + key_.size(), slot + 2)) {
        return i;
      }
    }
  }

  const std::vector<int> adhesion_;  // GAO positions forming the key
  const size_t stride_;              // words per slot
  std::vector<uint64_t> key_;        // the last Find's key
  std::vector<uint64_t> slots_;
  uint64_t epoch_ = 1;  // 0 marks never-written slots
  size_t size_ = 0;
};

// Past this many slots a depth's table is emptied instead of doubled:
// the cache only saves work, so dropping entries costs time, never
// correctness, and an ungoverned run's cache memory stays bounded.
constexpr size_t kMaxCacheSlots = size_t{1} << 20;

// Per-execution state; the engine object itself stays stateless.
class LftjRun {
 public:
  // `split_counts` plans count mode over independent suffix components
  // with cached suffix counts; without it (and in collect mode) the run
  // is the enumerating search.
  LftjRun(const BoundQuery& q, const ExecOptions& opts, bool split_counts,
          const std::vector<const TrieIndex*>* prebuilt, ExecResult* result)
      : q_(q),
        opts_(opts),
        result_(result),
        // One trie index per atom, columns ordered by GAO position
        // (GAO-consistency assumption); prebuilt and catalog-resident
        // indexes are reused instead of rebuilt.
        indexes_(q, q.catalog, &result->stats, prebuilt, opts.budget),
        cache_charge_(opts.budget) {
    // Structured preconditions, checked before any iterator or join is
    // constructed: a failed (budget-refused / fault-injected) index
    // build, or a query whose GAO leaves a variable uncovered, fails
    // the run closed instead of tripping downstream asserts.
    if (!indexes_.ok()) {
      result_->status = indexes_.status();
      return;
    }
    per_depth_.resize(q.num_vars);
    for (size_t a = 0; a < q.atoms.size(); ++a) {
      for (int v : q.atoms[a].vars) per_depth_[v].push_back(a);
    }
    for (int v = 0; v < q.num_vars; ++v) {
      if (per_depth_[v].empty()) {
        result_->status =
            Status(StatusCode::kInvalidArgument,
                   "variable " + std::to_string(v) +
                       " is not covered by any atom (invalid GAO)");
        return;
      }
    }
    for (size_t a = 0; a < q.atoms.size(); ++a) {
      iters_.push_back(std::make_unique<TrieIterator>(indexes_.at(a)));
    }
    // For each GAO depth, the iterators participating there, plus one
    // reusable LeapfrogJoin over them. The joins are constructed once
    // here and re-Init()ed on every entry into their depth, so the hot
    // recursion never copies an iterator vector per trie node.
    depth_iters_.resize(q.num_vars);
    for (int v = 0; v < q.num_vars; ++v) {
      for (size_t a : per_depth_[v]) depth_iters_[v].push_back(iters_[a].get());
    }
    joins_.reserve(q.num_vars);
    for (int v = 0; v < q.num_vars; ++v) {
      joins_.emplace_back(depth_iters_[v]);
    }
    // Every filter is enforced when its later GAO variable is bound:
    // binding depth d must exceed t[lo] for each filter lo<d bound
    // earlier, and stay below t[hi] for each filter d<hi whose hi was
    // bound earlier. `a<a` can never hold.
    lower_bounds_.resize(q.num_vars);
    upper_bounds_.resize(q.num_vars);
    for (const auto& [lo, hi] : q.less_than) {
      if (lo < hi) {
        lower_bounds_[hi].push_back(lo);
      } else if (lo > hi) {
        upper_bounds_[lo].push_back(hi);
      } else {
        unsatisfiable_ = true;
      }
    }
    t_.assign(q.num_vars, 0);
    if (q.num_vars == 0) return;
    if (split_counts && !opts.collect_tuples) {
      PlanCounts();
    } else {
      plan_.resize(q.num_vars);
      for (int v = 0; v < q.num_vars; ++v) {
        plan_[v].var = v;
        plan_[v].next = v + 1 < q.num_vars ? v + 1 : kDone;
      }
    }
  }

  void Run() {
    if (!result_->status.ok()) return;  // refused in the constructor
    if (q_.num_vars == 0 || unsatisfiable_) return;
    const uint64_t count = Search(0);
    if (overflow_) {
      Overflowed();
    } else {
      result_->count = count;
    }
    // Collect seek stats.
    for (const auto& it : iters_) result_->stats.seeks += it->seeks();
  }

 private:
  static constexpr int kDone = -1;  // every variable is bound

  // One search point: the variables still unbound there. A connected
  // point binds its first GAO variable `var` and goes on at `next`; a
  // point whose variables fall apart multiplies the counts of its
  // `parts`, one point per component.
  struct PlanNode {
    int var = -1;  // -1 for a product
    int next = kDone;
    std::vector<int> parts;
    // The count cache keyed on the point's adhesion (null where the
    // adhesion is every bound variable), and the points whose caches are
    // emptied on entering this one.
    std::unique_ptr<SuffixCountCache> cache;
    std::vector<int> clears;
  };

  // Count mode: at each search point, the unbound variables are joined
  // when they share an atom or a filter. Independent components are
  // counted apart and multiplied; a connected point binds its first GAO
  // variable. The adhesion of a point is every bound variable sharing an
  // atom or a filter with its variables: its count depends on their
  // values alone, so a point whose adhesion is a strict subset of the
  // bound variables gets a cache keyed on it. The cache is emptied
  // whenever the search re-enters the point binding m, the first bound
  // variable outside the adhesion: the variables bound before m are all
  // in the key, so once one of them is rebound the old entries can never
  // match again. With m the first variable bound, the cache lives for
  // the whole run. Where every suffix stays connected, this is one
  // point per GAO depth, each keyed on that depth's adhesion.
  void PlanCounts() {
    const int n = q_.num_vars;
    shares_.assign(n, std::vector<bool>(n, false));
    for (const auto& atom : q_.atoms) {
      for (int u : atom.vars) {
        for (int v : atom.vars) shares_[u][v] = true;
      }
    }
    for (const auto& [lo, hi] : q_.less_than) {
      shares_[lo][hi] = shares_[hi][lo] = true;
    }
    std::vector<int> all(n);
    std::iota(all.begin(), all.end(), 0);
    std::vector<int> bound, binders;
    Plan(all, &bound, &binders);
  }

  // Plans the points counting `vars` (ascending, unbound) below the
  // `bound` variables (ascending), bound at the points `binders`;
  // returns the first point's id.
  int Plan(const std::vector<int>& vars, std::vector<int>* bound,
           std::vector<int>* binders) {
    if (vars.empty()) return kDone;
    const int id = static_cast<int>(plan_.size());
    plan_.emplace_back();
    std::vector<std::vector<int>> parts = Components(vars);
    if (parts.size() > 1) {
      // Fewest variables first: a small component is cheap to count,
      // and a zero there spares counting the others.
      std::stable_sort(parts.begin(), parts.end(),
                       [](const auto& x, const auto& y) {
                         return x.size() < y.size();
                       });
      for (const auto& part : parts) {
        const int child = Plan(part, bound, binders);
        plan_[id].parts.push_back(child);
      }
      return id;
    }
    const int v = vars.front();
    plan_[id].var = v;
    std::vector<int> adhesion;
    int first_outside = -1;
    for (size_t i = 0; i < bound->size(); ++i) {
      const int u = (*bound)[i];
      const bool in = std::any_of(vars.begin(), vars.end(),
                                  [&](int w) { return shares_[u][w]; });
      if (in) {
        adhesion.push_back(u);
      } else if (first_outside < 0) {
        first_outside = static_cast<int>(i);
      }
    }
    if (first_outside >= 0) {
      plan_[id].cache = std::make_unique<SuffixCountCache>(std::move(adhesion));
      plan_[(*binders)[first_outside]].clears.push_back(id);
    }
    bound->push_back(v);
    binders->push_back(id);
    const int next =
        Plan(std::vector<int>(vars.begin() + 1, vars.end()), bound, binders);
    plan_[id].next = next;
    bound->pop_back();
    binders->pop_back();
    return id;
  }

  // The connected components of `vars` (ascending) under shares_, each
  // ascending, ordered by first variable.
  std::vector<std::vector<int>> Components(const std::vector<int>& vars) {
    std::vector<int> comp(vars.size(), -1);
    int num = 0;
    for (size_t s = 0; s < vars.size(); ++s) {
      if (comp[s] >= 0) continue;
      comp[s] = num;
      std::vector<size_t> stack = {s};
      while (!stack.empty()) {
        const size_t i = stack.back();
        stack.pop_back();
        for (size_t j = 0; j < vars.size(); ++j) {
          if (comp[j] < 0 && shares_[vars[i]][vars[j]]) {
            comp[j] = num;
            stack.push_back(j);
          }
        }
      }
      ++num;
    }
    std::vector<std::vector<int>> parts(num);
    for (size_t i = 0; i < vars.size(); ++i) parts[comp[i]].push_back(vars[i]);
    return parts;
  }

  bool Expired() {
    if ((opts_.stop != nullptr && opts_.stop->stop_requested()) ||
        (++steps_ % 4096 == 0 && opts_.Aborted())) {
      result_->status.Update(opts_.AbortStatus());
    }
    return !result_->status.ok();
  }

  // A count past 2^64 - 1 cannot be reported: fail closed rather than
  // wrap.
  void Overflowed() { result_->status.Update(CountOverflowStatus()); }

  // Records a finished subtree's count, growing the table under the
  // query budget; a refused charge latches the budget and winds the run
  // down (kBudgetExceeded).
  void Remember(SuffixCountCache& cache, uint64_t count) {
    if (cache.Full()) {
      if (cache.capacity() >= kMaxCacheSlots) {
        cache.Clear();
      } else {
        const uint64_t total =
            cache_bytes_ - cache.bytes() + cache.grown_bytes();
        if (!cache_charge_.TryRebase(total)) {
          result_->status.Update(opts_.AbortStatus());
          return;
        }
        cache.Grow();
        cache_bytes_ = total;
      }
    }
    cache.Insert(count);
  }

  // Number of completions of the bound variables at point `node`. A run
  // that winds down returns a partial count, which is never cached or
  // multiplied; a count past 2^64 - 1 sets overflow_ and is never
  // cached either.
  uint64_t Search(int node) {
    if (node == kDone) {
      if (opts_.collect_tuples) result_->tuples.push_back(t_);
      return 1;
    }
    const PlanNode& p = plan_[node];
    if (p.var < 0) return Multiply(p);
    SuffixCountCache* cache = p.cache.get();
    uint64_t total = 0;
    if (cache != nullptr && cache->Find(t_, &total)) return total;
    for (int k : p.clears) plan_[k].cache->Clear();
    const int depth = p.var;
    auto& iters = depth_iters_[depth];
    for (auto* it : iters) it->Open();
    LeapfrogJoin& join = joins_[depth];
    join.Init();
    // Seek past inequality lower bounds (and the partition range at the
    // first variable); stop at the upper bounds.
    Value min_allowed = kNegInf;
    Value max_allowed = kPosInf;
    if (depth == 0) {
      min_allowed = opts_.var0_min;
      max_allowed = opts_.var0_max;
    }
    for (int lo : lower_bounds_[depth]) {
      min_allowed = std::max(min_allowed, t_[lo] + 1);
    }
    for (int hi : upper_bounds_[depth]) {
      max_allowed = std::min(max_allowed, t_[hi] - 1);
    }
    if (!join.AtEnd() && min_allowed != kNegInf) join.Seek(min_allowed);
    while (!join.AtEnd()) {
      if (Expired()) break;
      const Value v = join.Key();
      if (v > max_allowed) break;
      t_[depth] = v;
      const uint64_t n = Search(p.next);
      if (overflow_ || __builtin_add_overflow(total, n, &total)) {
        overflow_ = true;
        break;
      }
      if (!result_->status.ok()) break;
      join.Next();
    }
    for (auto* it : iters) it->Up();
    if (cache != nullptr && result_->status.ok() && !overflow_) {
      Remember(*cache, total);
    }
    return total;
  }

  // The product of independent components' counts. A zero factor makes
  // it exactly 0 whatever the others are, so a factor or product past
  // 2^64 - 1 only overflows once every factor is known nonzero.
  uint64_t Multiply(const PlanNode& p) {
    uint64_t product = 1;
    bool past_max = false;
    for (int part : p.parts) {
      const uint64_t n = Search(part);
      if (!result_->status.ok()) return 0;
      if (overflow_) {
        overflow_ = false;
        past_max = true;
        continue;
      }
      if (n == 0) return 0;
      past_max = __builtin_mul_overflow(product, n, &product) || past_max;
    }
    overflow_ = past_max;
    return product;
  }

  const BoundQuery& q_;
  const ExecOptions& opts_;
  ExecResult* result_;
  AtomIndexSet indexes_;
  std::vector<std::unique_ptr<TrieIterator>> iters_;
  std::vector<std::vector<size_t>> per_depth_;  // atom ids per GAO depth
  std::vector<std::vector<TrieIterator*>> depth_iters_;
  std::vector<LeapfrogJoin> joins_;  // one reusable join per GAO depth
  std::vector<std::vector<int>> lower_bounds_;
  std::vector<std::vector<int>> upper_bounds_;
  bool unsatisfiable_ = false;
  // shares_[u][v]: u and v share an atom or a filter (count plan only).
  std::vector<std::vector<bool>> shares_;
  // The search points, the first one at index 0. Outside split count
  // mode, one uncached point per GAO depth.
  std::vector<PlanNode> plan_;
  ScopedCharge cache_charge_;  // all tables' bytes, against opts.budget
  uint64_t cache_bytes_ = 0;
  Tuple t_;
  uint64_t steps_ = 0;
  bool overflow_ = false;  // the last Search's count is past 2^64 - 1
};

}  // namespace

ExecResult LftjEngine::Execute(const BoundQuery& q,
                               const ExecOptions& opts) const {
  ExecResult result;
  LftjRun run(q, opts, split_counts_, /*prebuilt=*/nullptr, &result);
  run.Run();
  FinalizeExecStatus(&result, opts);
  return result;
}

ExecResult LftjEngine::ExecuteWithIndexes(
    const BoundQuery& q, const ExecOptions& opts,
    const std::vector<const TrieIndex*>& indexes) const {
  ExecResult result;
  LftjRun run(q, opts, split_counts_, &indexes, &result);
  run.Run();
  FinalizeExecStatus(&result, opts);
  return result;
}

}  // namespace wcoj
