#include "core/atom_index.h"

#include <unordered_map>
#include <utility>

namespace wcoj {

AtomIndexSet::AtomIndexSet(const BoundQuery& q, IndexCatalog* catalog,
                           EngineStats* stats,
                           const std::vector<const TrieIndex*>* prebuilt,
                           MemoryBudget* budget)
    : catalog_(catalog) {
  ptrs_.reserve(q.atoms.size());
  for (size_t a = 0; a < q.atoms.size(); ++a) {
    if (prebuilt != nullptr && (*prebuilt)[a] != nullptr) {
      ptrs_.push_back((*prebuilt)[a]);
      continue;
    }
    const BoundAtom& atom = q.atoms[a];
    Status build_status;
    const TrieIndex* index = catalog_.get()->GetOrBuildCounted(
        *atom.relation, GaoConsistentPerm(atom.vars), &stats->index_builds,
        &stats->index_cache_hits, budget, &build_status);
    if (index == nullptr && build_status.ok()) {
      build_status = Status(StatusCode::kInternal, "index build failed");
    }
    status_.Update(build_status);
    ptrs_.push_back(index);
  }
}

namespace {

// Key of a distinct warm-up build job.
struct WarmKey {
  const Relation* relation;
  std::vector<int> perm;
  bool operator==(const WarmKey& o) const {
    return relation == o.relation && perm == o.perm;
  }
};

struct HashWarmKey {
  size_t operator()(const WarmKey& k) const {
    size_t h = std::hash<const void*>()(k.relation);
    for (int c : k.perm) {
      h = h * 1000003u + static_cast<size_t>(c) + 0x9e3779b9u;
    }
    return h;
  }
};

}  // namespace

EngineStats WarmQueryIndexes(const BoundQuery& q, MemoryBudget* budget,
                             Status* status) {
  return WarmQueryIndexesWith(
      q, budget, status, [](const std::vector<std::function<void()>>& jobs) {
        for (const auto& job : jobs) job();
      });
}

EngineStats WarmQueryIndexesWith(const BoundQuery& q, MemoryBudget* budget,
                                 Status* status, const JobRunner& run) {
  EngineStats stats;
  if (q.catalog == nullptr) return stats;
  // Distinct (relation, permutation) keys; the map owns each key once,
  // `keys` keeps node-stable pointers for the build jobs.
  std::unordered_map<WarmKey, size_t, HashWarmKey> key_ids;
  std::vector<const WarmKey*> keys;
  std::vector<size_t> atom_key(q.atoms.size());
  for (size_t a = 0; a < q.atoms.size(); ++a) {
    WarmKey key{q.atoms[a].relation, GaoConsistentPerm(q.atoms[a].vars)};
    auto [it, inserted] = key_ids.emplace(std::move(key), keys.size());
    if (inserted) keys.push_back(&it->first);
    atom_key[a] = it->second;
  }
  // One build job per distinct key; the catalog serializes same-key
  // racers internally, so distinct keys are the real parallelism.
  std::vector<char> built(keys.size(), 0);
  std::vector<Status> build_status(keys.size());
  std::vector<std::function<void()>> jobs;
  jobs.reserve(keys.size());
  for (size_t k = 0; k < keys.size(); ++k) {
    jobs.push_back([&, k]() {
      bool b = false;
      const TrieIndex* index = q.catalog->GetOrBuild(
          *keys[k]->relation, keys[k]->perm, &b, budget, &build_status[k]);
      if (index == nullptr && build_status[k].ok()) {
        build_status[k] = Status(StatusCode::kInternal, "index build failed");
      }
      built[k] = b ? 1 : 0;
    });
  }
  if (!jobs.empty()) run(jobs);
  if (status != nullptr) {
    for (const Status& st : build_status) status->Update(st);
  }
  std::vector<char> seen(keys.size(), 0);
  for (size_t a = 0; a < q.atoms.size(); ++a) {
    const size_t k = atom_key[a];
    if (!build_status[k].ok()) continue;
    if (!seen[k] && built[k]) {
      ++stats.index_builds;
    } else {
      ++stats.index_cache_hits;
    }
    seen[k] = 1;
  }
  return stats;
}

}  // namespace wcoj
