#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/atom_index.h"
#include "core/engine.h"
#include "graph/generators.h"
#include "graph/sampling.h"
#include "parallel/partitioned_run.h"
#include "query/parser.h"
#include "storage/catalog.h"
#include "tests/test_util.h"
#include "util/mem_budget.h"
#include "util/stopwatch.h"

namespace wcoj {
namespace {

// These tests pin down that the implementation ideas actually engage —
// an idea that silently never fires would still pass the correctness
// sweeps but reproduce none of the paper's Tables 1-3.

BoundQuery ThreePath(const GraphRelations& rels) {
  static Query q =
      MustParseQuery("v1(a), v2(d), edge(a,b), edge(b,c), edge(c,d)");
  return Bind(q, rels.Map(), {"a", "b", "c", "d"});
}

TEST(StatsTest, MinesweeperReportsWork) {
  Graph g = Rmat(8, 900, 0.57, 0.19, 0.19, 13);
  GraphRelations rels = MakeGraphRelations(g);
  rels.v1 = SampleNodes(g, 10, 1);
  rels.v2 = SampleNodes(g, 10, 2);
  ExecResult r = CreateEngine("ms")->Execute(ThreePath(rels), ExecOptions{});
  EXPECT_GT(r.stats.free_tuples, 0u);
  EXPECT_GT(r.stats.constraints_inserted, 0u);
  EXPECT_GT(r.stats.seeks, 0u);
}

TEST(StatsTest, Idea4CursorAnswersProbesWithoutSeeks) {
  // gap_cache_hits counts probes the cursor answered without a seek. A
  // resumed probe never seeks more than a probe from the root, and a hit
  // seeks not at all where a root probe seeks at least once, so the
  // hits fit inside the seeks the ablation spends beyond ms.
  Graph g = Rmat(8, 900, 0.57, 0.19, 0.19, 13);
  GraphRelations rels = MakeGraphRelations(g);
  rels.v1 = SampleNodes(g, 5, 1);
  rels.v2 = SampleNodes(g, 5, 2);
  BoundQuery bq = ThreePath(rels);
  ExecResult with = CreateEngine("ms")->Execute(bq, ExecOptions{});
  ExecResult without = CreateEngine("ms-noidea4")->Execute(bq, ExecOptions{});
  EXPECT_EQ(with.count, without.count);
  EXPECT_GT(with.stats.gap_cache_hits, 0u);
  EXPECT_EQ(without.stats.gap_cache_hits, 0u);
  EXPECT_LE(with.stats.seeks + with.stats.gap_cache_hits, without.stats.seeks);
}

TEST(StatsTest, Idea4CursorChangesSeeksOnly) {
  // Resuming a probe from its shared prefix returns the root probe's
  // answer, so ms and ms-noidea4 visit the same free tuples and insert
  // the same constraints on the acyclic 3-path and 2-comb and on the
  // triangle; only the seeks drop.
  Graph g = Rmat(8, 900, 0.57, 0.19, 0.19, 13);
  GraphRelations rels = MakeGraphRelations(g);
  rels.v1 = SampleNodes(g, 10, 1);
  rels.v2 = SampleNodes(g, 10, 2);
  const std::pair<const char*, std::vector<std::string>> queries[] = {
      {"v1(a), v2(d), edge(a,b), edge(b,c), edge(c,d)", {"a", "b", "c", "d"}},
      {"v1(c), v2(d), edge(a,b), edge(a,c), edge(b,d)", {"a", "b", "c", "d"}},
      {"edge_lt(a,b), edge_lt(b,c), edge_lt(a,c)", {"a", "b", "c"}},
  };
  for (const auto& [text, gao] : queries) {
    BoundQuery bq = Bind(MustParseQuery(text), rels.Map(), gao);
    ExecResult with = CreateEngine("ms")->Execute(bq, ExecOptions{});
    ExecResult without =
        CreateEngine("ms-noidea4")->Execute(bq, ExecOptions{});
    EXPECT_GT(with.count, 0u) << text;
    EXPECT_EQ(with.count, without.count) << text;
    EXPECT_EQ(with.stats.free_tuples, without.stats.free_tuples) << text;
    EXPECT_EQ(with.stats.constraints_inserted,
              without.stats.constraints_inserted)
        << text;
    EXPECT_LT(with.stats.seeks, without.stats.seeks) << text;
  }
}

TEST(StatsTest, Idea4UnchangedMemberProjectionCostsNoSeek) {
  // r holds every `a` of s, so each free tuple projects onto r as a
  // member, and that projection changes only when `a` does. Adding r to
  // the query adds one probe per free tuple; ms seeks only for the 3
  // distinct projections, while ms-noidea4 seeks once per probe.
  Relation r(1), s(2);
  for (Value a = 1; a <= 3; ++a) {
    r.Add({a});
    for (Value b = 1; b <= 5; ++b) s.Add({a, b});
  }
  r.Build();
  s.Build();
  const std::map<std::string, const Relation*> rels = {{"r", &r}, {"s", &s}};
  BoundQuery alone = Bind(MustParseQuery("s(a,b)"), rels, {"a", "b"});
  BoundQuery joined = Bind(MustParseQuery("r(a), s(a,b)"), rels, {"a", "b"});
  for (const char* engine : {"ms", "ms-noidea4"}) {
    const ExecResult base = CreateEngine(engine)->Execute(alone, ExecOptions{});
    const ExecResult more =
        CreateEngine(engine)->Execute(joined, ExecOptions{});
    ASSERT_EQ(more.count, 15u) << engine;
    ASSERT_EQ(more.stats.free_tuples, base.stats.free_tuples) << engine;
    const uint64_t r_seeks = more.stats.seeks - base.stats.seeks;
    const uint64_t r_hits =
        more.stats.gap_cache_hits - base.stats.gap_cache_hits;
    if (std::string(engine) == "ms") {
      EXPECT_EQ(r_seeks, 3u);
      EXPECT_EQ(r_hits, more.stats.free_tuples - 3);
    } else {
      EXPECT_EQ(r_seeks, more.stats.free_tuples);
      EXPECT_EQ(r_hits, 0u);
    }
  }
}

TEST(StatsTest, Idea4LandingOnTheLastGapsUpperEndCostsNoSeek) {
  // s(1,b) for b in {2,5,9}. Free tuples (1,2) (1,3) (1,5) (1,6) (1,9):
  // 1,3 and 1,6 fall into the gaps (2,5) and (5,9), and the frontier then
  // lands on each gap's upper end, where the cursor already sits.
  Relation s(2);
  for (Value b : {2, 5, 9}) s.Add({1, b});
  s.Build();
  const std::map<std::string, const Relation*> rels = {{"s", &s}};
  BoundQuery bq = Bind(MustParseQuery("s(a,b)"), rels, {"a", "b"});
  const ExecResult r = CreateEngine("ms")->Execute(bq, ExecOptions{});
  ASSERT_EQ(r.count, 3u);
  ASSERT_EQ(r.stats.free_tuples, 5u);
  EXPECT_EQ(r.stats.gap_cache_hits, 2u);  // at (1,5) and (1,9)
  EXPECT_EQ(r.stats.seeks, 4u);  // 2 for the first probe, 1 per gap
}

TEST(StatsTest, Idea6ReducesFreeTupleSearchWork) {
  // Low selectivity => repeated sub-path classes => complete nodes engage.
  Graph g = Rmat(8, 900, 0.57, 0.19, 0.19, 13);
  GraphRelations rels = MakeGraphRelations(g);
  rels.v1 = SampleNodes(g, 2, 1);
  rels.v2 = SampleNodes(g, 2, 2);
  BoundQuery bq = ThreePath(rels);
  ExecResult with = CreateEngine("ms")->Execute(bq, ExecOptions{});
  ExecResult without = CreateEngine("ms-noidea6")->Execute(bq, ExecOptions{});
  EXPECT_EQ(with.count, without.count);
  // Complete nodes skip ping-pong work; at minimum they never add seeks.
  EXPECT_LE(with.stats.seeks, without.stats.seeks);
}

TEST(StatsTest, Idea7KeepsCliqueConstraintCountLinearish) {
  // With the skeleton, constraints come only from the two skeleton atoms
  // (plus domain bounds); without it, the poset regime caches exact-prefix
  // specializations and inserts far more.
  Graph g = ErdosRenyi(300, 1200, 21);
  GraphRelations rels = MakeGraphRelations(g);
  Query q = MustParseQuery("edge_lt(a,b), edge_lt(b,c), edge_lt(a,c)");
  BoundQuery bq = Bind(q, rels.Map(), {"a", "b", "c"});
  ExecResult with = CreateEngine("ms")->Execute(bq, ExecOptions{});
  ExecResult without = CreateEngine("ms-noidea7")->Execute(bq, ExecOptions{});
  EXPECT_EQ(with.count, without.count);
  EXPECT_LT(with.stats.constraints_inserted,
            without.stats.constraints_inserted);
}

TEST(StatsTest, CountingMinesweeperDrainsClasses) {
  // #ms must produce the same count while reporting fewer free tuples
  // than plain ms once classes repeat (selectivity 2 on a small graph).
  Graph g = Rmat(7, 500, 0.57, 0.19, 0.19, 29);
  GraphRelations rels = MakeGraphRelations(g);
  rels.v1 = SampleNodes(g, 2, 1);
  rels.v2 = SampleNodes(g, 2, 2);
  BoundQuery bq = ThreePath(rels);
  ExecResult ms = CreateEngine("ms")->Execute(bq, ExecOptions{});
  ExecResult cms = CreateEngine("#ms")->Execute(bq, ExecOptions{});
  EXPECT_EQ(ms.count, cms.count);
  EXPECT_LE(cms.stats.free_tuples, ms.stats.free_tuples);
}

TEST(StatsTest, LftjSeeksScaleWithWork) {
  Graph small = ErdosRenyi(100, 300, 31);
  Graph large = ErdosRenyi(1000, 3000, 31);
  Query q = MustParseQuery("edge_lt(a,b), edge_lt(b,c), edge_lt(a,c)");
  GraphRelations rs = MakeGraphRelations(small);
  GraphRelations rl = MakeGraphRelations(large);
  ExecResult s = CreateEngine("lftj")->Execute(
      Bind(q, rs.Map(), {"a", "b", "c"}), ExecOptions{});
  ExecResult l = CreateEngine("lftj")->Execute(
      Bind(q, rl.Map(), {"a", "b", "c"}), ExecOptions{});
  EXPECT_GT(l.stats.seeks, s.stats.seeks);
}

// Count-mode LFTJ caches suffix counts only at depths whose adhesion is
// a strict subset of the prefix. On 3-path (c keyed on b, d on c) that
// skips re-solving repeated suffixes; on a clique every depth's
// adhesion is its whole prefix, so count mode runs the enumerating
// search seek for seek.
TEST(StatsTest, LftjSuffixCacheEngagesOnlyBelowAStrictAdhesion) {
  Graph g = Rmat(8, 900, 0.57, 0.19, 0.19, 13);
  GraphRelations rels = MakeGraphRelations(g);
  rels.v1 = SampleNodes(g, 2, 1);
  rels.v2 = SampleNodes(g, 2, 2);
  auto lftj = CreateEngine("lftj");
  ExecOptions collect;
  collect.collect_tuples = true;

  const BoundQuery path = ThreePath(rels);
  const ExecResult path_count = lftj->Execute(path, ExecOptions{});
  const ExecResult path_tuples = lftj->Execute(path, collect);
  ASSERT_TRUE(path_count.ok());
  EXPECT_EQ(path_count.count, path_tuples.tuples.size());
  EXPECT_LT(path_count.stats.seeks, path_tuples.stats.seeks);

  const BoundQuery clique =
      Bind(MustParseQuery("edge_lt(a,b), edge_lt(b,c), edge_lt(a,c)"),
           rels.Map(), {"a", "b", "c"});
  const ExecResult clique_count = lftj->Execute(clique, ExecOptions{});
  const ExecResult clique_tuples = lftj->Execute(clique, collect);
  ASSERT_TRUE(clique_count.ok());
  EXPECT_EQ(clique_count.count, clique_tuples.tuples.size());
  EXPECT_EQ(clique_count.stats.seeks, clique_tuples.stats.seeks);
}

// Count mode splits a suffix into the components its variables form
// given the bound ones and multiplies their counts. On 2-comb, c and d
// are independent once a is bound, so the search no longer enumerates
// |c's| x |d's|: it seeks about as little as the GAO (a,c,b,d), where
// the adhesion caches already factor c out. Shapes whose suffixes stay
// connected keep the search they had: the clique enumerates seek for
// seek, and 4-cycle's and 3-path's seeks are pinned at their values
// before the split.
TEST(StatsTest, LftjCountsIndependentComponentsApart) {
  Graph g = Rmat(8, 900, 0.57, 0.19, 0.19, 13);
  GraphRelations rels = MakeGraphRelations(g);
  rels.v1 = SampleNodes(g, 2, 1);
  rels.v2 = SampleNodes(g, 2, 2);
  auto lftj = CreateEngine("lftj");
  ExecOptions collect;
  collect.collect_tuples = true;
  auto seeks = [&](const char* text, const std::vector<std::string>& gao,
                   const ExecOptions& opts) {
    const ExecResult r =
        lftj->Execute(Bind(MustParseQuery(text), rels.Map(), gao), opts);
    EXPECT_TRUE(r.ok()) << text << " " << r.status.ToString();
    return r.stats.seeks;
  };
  const char* comb = "v1(c), v2(d), edge(a,b), edge(a,c), edge(b,d)";
  const uint64_t comb_abcd = seeks(comb, {"a", "b", "c", "d"}, {});
  const uint64_t comb_acbd = seeks(comb, {"a", "c", "b", "d"}, {});
  EXPECT_LE(comb_abcd, 2 * comb_acbd);
  EXPECT_LT(comb_abcd, seeks(comb, {"a", "b", "c", "d"}, collect) / 10);

  const char* clique = "edge_lt(a,b), edge_lt(b,c), edge_lt(a,c)";
  EXPECT_EQ(seeks(clique, {"a", "b", "c"}, {}),
            seeks(clique, {"a", "b", "c"}, collect));
  EXPECT_EQ(seeks("edge_lt(a,b), edge_lt(b,c), edge_lt(c,d), edge_lt(a,d)",
                  {"a", "b", "c", "d"}, {}),
            12803u);
  EXPECT_EQ(seeks("v1(a), v2(d), edge(a,b), edge(b,c), edge(c,d)",
                  {"a", "b", "c", "d"}, {}),
            4385u);
}

// The lftj-nocache ablation is the paper's LFTJ: its count mode runs
// the enumerating search, seek for seek.
TEST(StatsTest, LftjNocacheCountsByEnumerating) {
  Graph g = Rmat(8, 900, 0.57, 0.19, 0.19, 13);
  GraphRelations rels = MakeGraphRelations(g);
  rels.v1 = SampleNodes(g, 2, 1);
  rels.v2 = SampleNodes(g, 2, 2);
  auto nocache = CreateEngine("lftj-nocache");
  ExecOptions collect;
  collect.collect_tuples = true;
  for (const char* text : {"v1(c), v2(d), edge(a,b), edge(a,c), edge(b,d)",
                           "v1(a), v2(d), edge(a,b), edge(b,c), edge(c,d)"}) {
    const BoundQuery bq =
        Bind(MustParseQuery(text), rels.Map(), {"a", "b", "c", "d"});
    const ExecResult count = nocache->Execute(bq, ExecOptions{});
    const ExecResult tuples = nocache->Execute(bq, collect);
    ASSERT_TRUE(count.ok()) << text;
    ASSERT_TRUE(tuples.ok()) << text;
    EXPECT_EQ(count.count, tuples.tuples.size()) << text;
    EXPECT_EQ(count.stats.seeks, tuples.stats.seeks) << text;
  }
}

// The caches' tables are charged to the query's MemoryBudget. With
// every index catalog-resident they are the run's only charge, so a
// tiny budget must fail the run closed, never answer with a count.
TEST(StatsTest, LftjSuffixCacheIsChargedToTheQueryBudget) {
  Graph g = Rmat(8, 900, 0.57, 0.19, 0.19, 13);
  GraphRelations rels = MakeGraphRelations(g);
  rels.v1 = SampleNodes(g, 2, 1);
  rels.v2 = SampleNodes(g, 2, 2);
  IndexCatalog catalog;
  BoundQuery path = ThreePath(rels);
  path.catalog = &catalog;
  WarmQueryIndexes(path);
  auto lftj = CreateEngine("lftj");
  ExecOptions collect;
  collect.collect_tuples = true;
  const uint64_t expected = lftj->Execute(path, collect).tuples.size();

  MemoryBudget unlimited;
  ExecOptions opts;
  opts.budget = &unlimited;
  const ExecResult governed = lftj->Execute(path, opts);
  ASSERT_TRUE(governed.ok()) << governed.status.ToString();
  EXPECT_EQ(governed.count, expected);
  EXPECT_GT(governed.stats.peak_budget_bytes, 0u);
  EXPECT_EQ(unlimited.used(), 0u);  // released when the run ends

  MemoryBudget tiny(/*limit_bytes=*/64);
  opts.budget = &tiny;
  const ExecResult refused = lftj->Execute(path, opts);
  EXPECT_EQ(refused.status.code(), StatusCode::kBudgetExceeded)
      << refused.status.ToString();
}

// A stop fired mid-run cancels the run; nothing it cut short is kept,
// so the next run on the same scratch is exact.
TEST(StatsTest, LftjCancelledMidRunLeavesTheNextRunExact) {
  Graph g = ErdosRenyi(600, 6000, 41);
  GraphRelations rels = MakeGraphRelations(g);
  const BoundQuery cycle =
      Bind(MustParseQuery("edge(a,b), edge(b,c), edge(c,d), edge(a,d)"),
           rels.Map(), {"a", "b", "c", "d"});
  auto lftj = CreateEngine("lftj");
  ExecScratch scratch;
  ExecOptions opts;
  opts.scratch = &scratch;
  const ExecResult reference = lftj->Execute(cycle, opts);
  ASSERT_TRUE(reference.ok());

  StopToken stop;
  opts.stop = &stop;
  std::thread stopper([&stop] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    stop.RequestStop();
  });
  const ExecResult cancelled = lftj->Execute(cycle, opts);
  stopper.join();
  EXPECT_EQ(cancelled.status.code(), StatusCode::kCancelled);
  EXPECT_LT(cancelled.count, reference.count);

  opts.stop = nullptr;
  const ExecResult again = lftj->Execute(cycle, opts);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.count, reference.count);
}

TEST(StatsTest, PairwiseIntermediatesExplodeOnCliques) {
  // The asymptotic story of the whole paper, as a stats assertion: the
  // pairwise engine's intermediate volume grows superlinearly in edges on
  // the triangle query while LFTJ's seek count stays near-linear.
  Query q = MustParseQuery("edge_lt(a,b), edge_lt(b,c), edge_lt(a,c)");
  Graph g1 = ErdosRenyi(400, 1600, 37);
  Graph g2 = ErdosRenyi(1600, 6400, 37);
  GraphRelations r1 = MakeGraphRelations(g1);
  GraphRelations r2 = MakeGraphRelations(g2);
  ExecResult p1 = CreateEngine("psql")->Execute(
      Bind(q, r1.Map(), {"a", "b", "c"}), ExecOptions{});
  ExecResult p2 = CreateEngine("psql")->Execute(
      Bind(q, r2.Map(), {"a", "b", "c"}), ExecOptions{});
  const double edge_ratio = static_cast<double>(g2.num_edges()) /
                            static_cast<double>(g1.num_edges());
  const double inter_ratio =
      static_cast<double>(p2.stats.intermediate_tuples) /
      static_cast<double>(std::max<uint64_t>(p1.stats.intermediate_tuples, 1));
  EXPECT_GT(inter_ratio, edge_ratio);  // superlinear blowup
}

// A run without a catalog resolves its indexes in a catalog scoped to
// that run: one build per distinct (relation, permutation), like a cold
// shared catalog, and nothing survives into the next run.
TEST(StatsTest, NoCatalogRunBuildsOncePerDistinctIndex) {
  Graph g = Rmat(7, 400, 0.57, 0.19, 0.19, 13);
  GraphRelations rels = MakeGraphRelations(g);
  rels.v1 = SampleNodes(g, 5, 1);
  rels.v2 = SampleNodes(g, 5, 2);
  BoundQuery bq = ThreePath(rels);  // v1, v2, edge, edge, edge
  for (const char* name : {"lftj", "ms"}) {
    auto engine = CreateEngine(name);
    for (int run = 0; run < 2; ++run) {
      const ExecResult r = engine->Execute(bq, ExecOptions{});
      EXPECT_EQ(r.stats.index_builds, 3u) << name << " run=" << run;
      EXPECT_EQ(r.stats.index_cache_hits, 2u) << name << " run=" << run;
    }
    IndexCatalog catalog;
    BoundQuery cold_q = bq;
    cold_q.catalog = &catalog;
    const ExecResult cold = engine->Execute(cold_q, ExecOptions{});
    EXPECT_EQ(cold.stats.index_builds, 3u) << name;
    EXPECT_EQ(cold.stats.index_cache_hits, 2u) << name;
  }
}

// Yannakakis joins reduced copies of its relations and the hybrid binds
// each junction through a transient singleton. Neither may enter a
// shared catalog: on a warm one, both runs leave it exactly as found.
TEST(StatsTest, TransientRelationsNeverEnterTheSharedCatalog) {
  Graph g = Rmat(7, 420, 0.57, 0.19, 0.19, 31);
  GraphRelations rels = MakeGraphRelations(g);
  rels.v1 = SampleNodes(g, 3.0, 4);
  rels.v2 = SampleNodes(g, 3.0, 5);
  const std::pair<const char*, std::vector<std::string>> queries[] = {
      {"v1(c), v2(d), edge(a,b), edge(a,c), edge(b,d)",  // 2-comb
       {"a", "b", "c", "d"}},
      {"v1(a), v2(d), edge(a,b), edge(b,c), edge(c,d)",  // 3-path
       {"a", "b", "c", "d"}},
  };
  for (const auto& [text, gao] : queries) {
    IndexCatalog catalog;
    BoundQuery bq = Bind(MustParseQuery(text), rels.Map(), gao);
    bq.catalog = &catalog;
    WarmQueryIndexes(bq);
    const size_t size = catalog.size();
    const uint64_t builds = catalog.builds();
    for (const char* name : {"yannakakis", "hybrid"}) {
      const ExecResult r = CreateEngine(name)->Execute(bq, ExecOptions{});
      ASSERT_TRUE(r.ok()) << name << " " << text;
      EXPECT_GT(r.count, 0u) << name << " " << text;
      EXPECT_EQ(catalog.size(), size) << name << " " << text;
      EXPECT_EQ(catalog.builds(), builds) << name << " " << text;
    }
  }
}

TEST(StatsTest, WarmCatalogRunBuildsNothing) {
  Graph g = Rmat(7, 400, 0.57, 0.19, 0.19, 13);
  GraphRelations rels = MakeGraphRelations(g);
  rels.v1 = SampleNodes(g, 5, 1);
  rels.v2 = SampleNodes(g, 5, 2);
  // (The hybrid is excluded: it builds a transient singleton index per
  // junction value by design, so its warm runs legitimately report
  // builds.)
  for (const char* name : {"lftj", "ms"}) {
    IndexCatalog catalog;
    BoundQuery bq = ThreePath(rels);
    bq.catalog = &catalog;
    // Cold: `edge` appears three times under the same permutation, so
    // only 3 of the 5 atom indexes are distinct (v1, v2, edge).
    ExecResult cold = CreateEngine(name)->Execute(bq, ExecOptions{});
    EXPECT_GT(cold.stats.index_builds, 0u) << name;
    EXPECT_EQ(catalog.size(), cold.stats.index_builds) << name;
    // Warm: every index is resident — zero builds, all hits.
    ExecResult warm = CreateEngine(name)->Execute(bq, ExecOptions{});
    EXPECT_EQ(warm.count, cold.count) << name;
    EXPECT_EQ(warm.stats.index_builds, 0u) << name;
    EXPECT_GT(warm.stats.index_cache_hits, 0u) << name;
  }
}

// Every engine answers the same through a shared catalog, cold and
// warm, as without one; and a run without a catalog counts the builds
// and hits of a cold shared catalog, since its run-scoped catalog starts
// cold too.
TEST(StatsTest, CatalogRunMatchesNoCatalogRunForEveryEngine) {
  Graph g = Rmat(7, 420, 0.57, 0.19, 0.19, 31);
  GraphRelations rels = MakeGraphRelations(g);
  rels.v1 = SampleNodes(g, 3.0, 4);
  rels.v2 = SampleNodes(g, 3.0, 5);
  const std::pair<const char*, std::vector<std::string>> queries[] = {
      {"edge_lt(a,b), edge_lt(b,c), edge_lt(a,c)", {"a", "b", "c"}},
      {"v1(a), v2(d), edge(a,b), edge(b,c), edge(c,d)",
       {"a", "b", "c", "d"}},
  };
  for (const auto& [text, gao] : queries) {
    BoundQuery plain_q = Bind(MustParseQuery(text), rels.Map(), gao);
    for (const std::string& name : EngineNames()) {
      const ExecResult plain =
          CreateEngine(name)->Execute(plain_q, ExecOptions{});
      IndexCatalog catalog;
      BoundQuery catalog_q = plain_q;
      catalog_q.catalog = &catalog;
      // Twice: cold (building through the catalog) and warm (resident).
      const ExecResult cold =
          CreateEngine(name)->Execute(catalog_q, ExecOptions{});
      const ExecResult warm =
          CreateEngine(name)->Execute(catalog_q, ExecOptions{});
      EXPECT_EQ(cold.status.code(), plain.status.code())
          << name << " " << text;
      EXPECT_EQ(cold.count, plain.count) << name << " " << text;
      EXPECT_EQ(warm.count, plain.count) << name << " " << text;
      EXPECT_EQ(plain.stats.index_builds, cold.stats.index_builds)
          << name << " " << text;
      EXPECT_EQ(plain.stats.index_cache_hits, cold.stats.index_cache_hits)
          << name << " " << text;
    }
  }
}

TEST(StatsTest, CdsArenaCountersEngagePerEngine) {
  // The cds_* counters are a CDS property: every Minesweeper flavor
  // must report arena traffic, every CDS-free engine must report zeros.
  Graph g = Rmat(7, 400, 0.57, 0.19, 0.19, 13);
  GraphRelations rels = MakeGraphRelations(g);
  rels.v1 = SampleNodes(g, 5, 1);
  rels.v2 = SampleNodes(g, 5, 2);
  BoundQuery bq = ThreePath(rels);
  for (const std::string& name : EngineNames()) {
    const ExecResult r = CreateEngine(name)->Execute(bq, ExecOptions{});
    const bool uses_cds = name.find("ms") != std::string::npos ||
                          name == "hybrid";
    if (uses_cds) {
      EXPECT_GT(r.stats.cds_nodes_allocated, 0u) << name;
      EXPECT_GT(r.stats.cds_peak_arena_bytes, 0u) << name;
    } else {
      EXPECT_EQ(r.stats.cds_nodes_allocated, 0u) << name;
      EXPECT_EQ(r.stats.cds_nodes_recycled, 0u) << name;
      EXPECT_EQ(r.stats.cds_peak_arena_bytes, 0u) << name;
    }
  }
}

TEST(StatsTest, WarmScratchRunPerformsZeroCdsHeapAllocation) {
  // The PR 4 acceptance bar: re-running on a warm ExecScratch serves
  // every CDS node from recycled arena memory — cds_nodes_allocated is
  // exactly zero and the arena footprint stops growing.
  Graph g = Rmat(7, 400, 0.57, 0.19, 0.19, 13);
  GraphRelations rels = MakeGraphRelations(g);
  rels.v1 = SampleNodes(g, 5, 1);
  rels.v2 = SampleNodes(g, 5, 2);
  BoundQuery bq = ThreePath(rels);
  for (const char* name : {"ms", "#ms", "ms-noidea7"}) {
    auto engine = CreateEngine(name);
    ExecScratch scratch;
    ExecOptions opts;
    opts.scratch = &scratch;
    const ExecResult cold = engine->Execute(bq, opts);
    EXPECT_GT(cold.stats.cds_nodes_allocated, 0u) << name;
    const ExecResult warm = engine->Execute(bq, opts);
    EXPECT_EQ(warm.count, cold.count) << name;
    EXPECT_EQ(warm.stats.cds_nodes_allocated, 0u) << name;
    EXPECT_GT(warm.stats.cds_nodes_recycled, 0u) << name;
    EXPECT_EQ(warm.stats.cds_peak_arena_bytes,
              cold.stats.cds_peak_arena_bytes)
        << name;
  }
}

TEST(StatsTest, ScratchDoesNotChangeResultsOrWorkCounters) {
  // The arena is storage only: with and without a scratch, every
  // engine-visible behaviour (counts, seeks, inserts, free tuples) must
  // be identical, cold and warm.
  Graph g = Rmat(7, 420, 0.57, 0.19, 0.19, 31);
  GraphRelations rels = MakeGraphRelations(g);
  Query q = MustParseQuery("edge_lt(a,b), edge_lt(b,c), edge_lt(a,c)");
  BoundQuery bq = Bind(q, rels.Map(), {"a", "b", "c"});
  for (const char* name : {"ms", "ms-noidea7", "hybrid"}) {
    auto engine = CreateEngine(name);
    const ExecResult plain = engine->Execute(bq, ExecOptions{});
    ExecScratch scratch;
    ExecOptions opts;
    opts.scratch = &scratch;
    for (int run = 0; run < 2; ++run) {
      const ExecResult r = engine->Execute(bq, opts);
      EXPECT_EQ(r.count, plain.count) << name << " run=" << run;
      EXPECT_EQ(r.stats.seeks, plain.stats.seeks) << name << " run=" << run;
      EXPECT_EQ(r.stats.constraints_inserted,
                plain.stats.constraints_inserted)
          << name << " run=" << run;
      EXPECT_EQ(r.stats.free_tuples, plain.stats.free_tuples)
          << name << " run=" << run;
    }
  }
}

TEST(StatsTest, IndexCounterAccountingIsLayoutInvariant) {
  // Catalog behavior must be invariant under the index's internal
  // layout: for every registered engine, repeated cold runs report
  // identical output counts and identical index_builds /
  // index_cache_hits (the counters are a function of the query plan,
  // not of how an index stores its keys), and a warm run resolves
  // every index from cache.
  Graph g = Rmat(7, 420, 0.57, 0.19, 0.19, 31);
  GraphRelations rels = MakeGraphRelations(g);
  rels.v1 = SampleNodes(g, 3.0, 4);
  rels.v2 = SampleNodes(g, 3.0, 5);
  const std::pair<const char*, std::vector<std::string>> queries[] = {
      {"edge_lt(a,b), edge_lt(b,c), edge_lt(a,c)", {"a", "b", "c"}},
      {"v1(a), v2(d), edge(a,b), edge(b,c), edge(c,d)",
       {"a", "b", "c", "d"}},
  };
  for (const auto& [text, gao] : queries) {
    BoundQuery plain_q = Bind(MustParseQuery(text), rels.Map(), gao);
    for (const std::string& name : EngineNames()) {
      auto engine = CreateEngine(name);
      const ExecResult plain = engine->Execute(plain_q, ExecOptions{});
      IndexCatalog catalog_a, catalog_b;
      BoundQuery qa = plain_q, qb = plain_q;
      qa.catalog = &catalog_a;
      qb.catalog = &catalog_b;
      const ExecResult cold_a = engine->Execute(qa, ExecOptions{});
      const ExecResult cold_b = engine->Execute(qb, ExecOptions{});
      EXPECT_EQ(cold_a.count, plain.count) << name << " " << text;
      EXPECT_EQ(cold_b.count, plain.count) << name << " " << text;
      EXPECT_EQ(cold_a.stats.index_builds, cold_b.stats.index_builds)
          << name << " " << text;
      EXPECT_EQ(cold_a.stats.index_cache_hits, cold_b.stats.index_cache_hits)
          << name << " " << text;
      // A run without a catalog starts from a cold run-scoped one.
      EXPECT_EQ(plain.stats.index_builds, cold_a.stats.index_builds)
          << name << " " << text;
      EXPECT_EQ(plain.stats.index_cache_hits, cold_a.stats.index_cache_hits)
          << name << " " << text;
      // Warm rerun on catalog_a: every resolution is a cache hit. (The
      // hybrid is excluded: it builds a transient singleton index per
      // junction value by design, so its warm runs report builds.)
      const ExecResult warm = engine->Execute(qa, ExecOptions{});
      EXPECT_EQ(warm.count, plain.count) << name << " " << text;
      if (engine->catalog_warmup() != CatalogWarmup::kNone &&
          name != "hybrid") {
        EXPECT_EQ(warm.stats.index_builds, 0u) << name << " " << text;
        EXPECT_EQ(warm.stats.index_cache_hits,
                  cold_a.stats.index_builds + cold_a.stats.index_cache_hits)
            << name << " " << text;
      }
    }
  }
}

TEST(StatsTest, ParallelWarmAccountingMatchesSerialWarm) {
  // The hashed-key dedup inside WarmQueryIndexesParallel must keep the
  // per-atom build/hit accounting bit-identical to the serial
  // WarmQueryIndexes, cold and warm, on queries mixing repeated and
  // distinct (relation, permutation) keys.
  Graph g = Rmat(7, 420, 0.57, 0.19, 0.19, 31);
  GraphRelations rels = MakeGraphRelations(g);
  rels.v1 = SampleNodes(g, 3.0, 4);
  rels.v2 = SampleNodes(g, 3.0, 5);
  const std::pair<const char*, std::vector<std::string>> queries[] = {
      {"edge_lt(a,b), edge_lt(b,c), edge_lt(a,c)", {"a", "b", "c"}},
      {"v1(a), v2(d), edge(a,b), edge(b,c), edge(c,d)",
       {"a", "b", "c", "d"}},
      {"edge(a,b), edge(b,c), edge(c,a), edge(a,c)", {"a", "b", "c"}},
  };
  for (const auto& [text, gao] : queries) {
    BoundQuery bq = Bind(MustParseQuery(text), rels.Map(), gao);
    IndexCatalog serial_catalog, parallel_catalog;
    bq.catalog = &serial_catalog;
    const EngineStats serial_cold = WarmQueryIndexes(bq);
    const EngineStats serial_warm = WarmQueryIndexes(bq);
    bq.catalog = &parallel_catalog;
    const EngineStats parallel_cold = WarmQueryIndexesParallel(bq, 4);
    const EngineStats parallel_warm = WarmQueryIndexesParallel(bq, 4);
    EXPECT_EQ(parallel_cold.index_builds, serial_cold.index_builds) << text;
    EXPECT_EQ(parallel_cold.index_cache_hits, serial_cold.index_cache_hits)
        << text;
    EXPECT_EQ(parallel_warm.index_builds, serial_warm.index_builds) << text;
    EXPECT_EQ(parallel_warm.index_cache_hits, serial_warm.index_cache_hits)
        << text;
    EXPECT_EQ(parallel_catalog.builds(), serial_catalog.builds()) << text;
    EXPECT_EQ(parallel_catalog.size(), serial_catalog.size()) << text;
  }
}

}  // namespace
}  // namespace wcoj
