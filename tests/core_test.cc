#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/leapfrog.h"
#include "graph/generators.h"
#include "graph/sampling.h"
#include "parallel/partitioned_run.h"
#include "query/parser.h"
#include "tests/test_util.h"

namespace wcoj {
namespace {

TEST(LeapfrogJoinTest, IntersectsThreeSets) {
  Relation a = Relation::FromTuples(
      1, {{0}, {1}, {3}, {4}, {5}, {6}, {7}, {8}, {9}, {11}});
  Relation b = Relation::FromTuples(1, {{0}, {2}, {6}, {7}, {8}, {9}});
  Relation c = Relation::FromTuples(1, {{2}, {4}, {5}, {8}, {10}});
  TrieIndex ia(a), ib(b), ic(c);
  TrieIterator ta(&ia), tb(&ib), tc(&ic);
  ta.Open();
  tb.Open();
  tc.Open();
  LeapfrogJoin join({&ta, &tb, &tc});
  join.Init();
  std::vector<Value> out;
  while (!join.AtEnd()) {
    out.push_back(join.Key());
    join.Next();
  }
  EXPECT_EQ(out, (std::vector<Value>{8}));
}

TEST(LeapfrogJoinTest, EmptyInputYieldsNothing) {
  Relation a = Relation::FromTuples(1, {{1}, {2}});
  Relation b(1);
  b.Build();
  TrieIndex ia(a), ib(b);
  TrieIterator ta(&ia), tb(&ib);
  ta.Open();
  tb.Open();
  LeapfrogJoin join({&ta, &tb});
  join.Init();
  EXPECT_TRUE(join.AtEnd());
}

TEST(LeapfrogJoinTest, SeekAdvancesAllIterators) {
  Relation a = Relation::FromTuples(1, {{1}, {5}, {9}, {12}});
  Relation b = Relation::FromTuples(1, {{1}, {5}, {9}, {13}});
  TrieIndex ia(a), ib(b);
  TrieIterator ta(&ia), tb(&ib);
  ta.Open();
  tb.Open();
  LeapfrogJoin join({&ta, &tb});
  join.Init();
  EXPECT_EQ(join.Key(), 1);
  join.Seek(6);
  ASSERT_FALSE(join.AtEnd());
  EXPECT_EQ(join.Key(), 9);
  join.Next();
  EXPECT_TRUE(join.AtEnd());
}

// Known-count sanity: LFTJ and MS on a hand-built graph.
TEST(EngineTest, TriangleCountOnK4) {
  Graph g(4);
  for (int u = 0; u < 4; ++u) {
    for (int v = u + 1; v < 4; ++v) g.AddEdge(u, v);
  }
  g.Build();
  GraphRelations rels = MakeGraphRelations(g);
  Query q = MustParseQuery("edge_lt(a,b), edge_lt(b,c), edge_lt(a,c)");
  BoundQuery bq = Bind(q, rels.Map(), {"a", "b", "c"});
  for (const char* name : {"lftj", "ms", "#ms", "clique"}) {
    auto engine = CreateEngine(name);
    ExecResult r = engine->Execute(bq, ExecOptions{});
    EXPECT_EQ(r.count, 4u) << name;  // K4 has 4 triangles
  }
}

TEST(EngineTest, SymmetricTriangleWithFilters) {
  Graph g(5);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(0, 2);
  g.AddEdge(2, 3);
  g.AddEdge(3, 4);
  g.Build();
  GraphRelations rels = MakeGraphRelations(g);
  Query q = MustParseQuery("edge(a,b), edge(b,c), edge(a,c), a<b<c");
  BoundQuery bq = Bind(q, rels.Map(), {"a", "b", "c"});
  for (const char* name : {"lftj", "ms", "psql", "monetdb", "clique"}) {
    auto engine = CreateEngine(name);
    ExecResult r = engine->Execute(bq, ExecOptions{});
    EXPECT_EQ(r.count, 1u) << name;
  }
}

TEST(EngineTest, CollectedTuplesMatchAcrossEngines) {
  Graph g = ErdosRenyi(10, 22, 7);
  GraphRelations rels = MakeGraphRelations(g);
  Query q = MustParseQuery("edge_lt(a,b), edge_lt(b,c), edge_lt(a,c)");
  BoundQuery bq = Bind(q, rels.Map(), {"a", "b", "c"});
  ExecOptions opts;
  opts.collect_tuples = true;
  auto lftj = CreateEngine("lftj")->Execute(bq, opts);
  auto ms = CreateEngine("ms")->Execute(bq, opts);
  std::sort(lftj.tuples.begin(), lftj.tuples.end());
  std::sort(ms.tuples.begin(), ms.tuples.end());
  EXPECT_EQ(lftj.tuples, ms.tuples);
  std::vector<Tuple> oracle;
  BruteForceCount(bq, &oracle);
  std::sort(oracle.begin(), oracle.end());
  EXPECT_EQ(lftj.tuples, oracle);
}

// Far past what enumeration could reach: count-mode LFTJ computes each
// independent factor once, and must still be exact.
TEST(EngineTest, CrossProductCountIsExact) {
  Graph g = ErdosRenyi(400, 4000, 3);
  GraphRelations rels = MakeGraphRelations(g);
  Query q = MustParseQuery("edge(a,b), edge(c,d), edge(e,f)");
  BoundQuery bq = Bind(q, rels.Map(), {"a", "b", "c", "d", "e", "f"});
  const uint64_t e = rels.edge.size();
  ExecResult r = CreateEngine("lftj")->Execute(bq, ExecOptions{});
  ASSERT_TRUE(r.ok()) << r.status.ToString();
  EXPECT_EQ(r.count, e * e * e);
}

// A zero factor answers exactly 0 even where the other factors'
// product is past 2^64 - 1: four independent edges (|edge|^4 > 2^64)
// times an empty relation, counted first (the unary component is the
// smallest) and last (a binary one, bound last in the GAO).
TEST(EngineTest, ZeroFactorBeatsAnOverflowingProduct) {
  Graph g = ErdosRenyi(20000, 40000, 5);
  GraphRelations rels = MakeGraphRelations(g);
  ASSERT_GT(rels.edge.size(), 65536u);  // so |edge|^4 > 2^64
  Relation none1(1), none2(2);
  none1.Build();
  none2.Build();
  auto relations = rels.Map();
  relations["none1"] = &none1;
  relations["none2"] = &none2;
  const std::vector<std::string> edge_vars = {"a", "b", "c", "d",
                                              "e", "f", "g", "h"};
  auto lftj = CreateEngine("lftj");
  for (const char* text :
       {"edge(a,b), edge(c,d), edge(e,f), edge(g,h), none1(x)",
        "edge(a,b), edge(c,d), edge(e,f), edge(g,h), none2(x,y)"}) {
    const Query q = MustParseQuery(text);
    const BoundQuery last = Bind(q, relations, q.Variables());
    const ExecResult count = lftj->Execute(last, ExecOptions{});
    ASSERT_TRUE(count.ok()) << text << " " << count.status.ToString();
    EXPECT_EQ(count.count, 0u) << text;
    for (int threads = 1; threads <= 4; ++threads) {
      const ExecResult r = PartitionedExecute(*lftj, last, ExecOptions{},
                                              threads, /*granularity=*/4);
      ASSERT_TRUE(r.ok()) << text << " " << r.status.ToString();
      EXPECT_EQ(r.count, 0u) << threads << " threads on " << text;
    }
    // Enumeration only finishes with the empty relation bound first.
    std::vector<std::string> gao = q.Variables();
    std::rotate(gao.begin(), gao.begin() + edge_vars.size(), gao.end());
    ExecOptions collect;
    collect.collect_tuples = true;
    const ExecResult tuples =
        lftj->Execute(Bind(q, relations, gao), collect);
    ASSERT_TRUE(tuples.ok()) << text;
    EXPECT_TRUE(tuples.tuples.empty()) << text;
  }
  // Without the empty factor the same product fails closed.
  const Query four =
      MustParseQuery("edge(a,b), edge(c,d), edge(e,f), edge(g,h)");
  const ExecResult past = lftj->Execute(
      Bind(four, relations, edge_vars), ExecOptions{});
  EXPECT_EQ(past.status.code(), StatusCode::kResourceExhausted)
      << past.status.ToString();
}

TEST(EngineTest, DeadlineProducesTimeout) {
  Graph g = ErdosRenyi(400, 4000, 3);
  GraphRelations rels = MakeGraphRelations(g);
  Query q = MustParseQuery(
      "edge(a,b), edge(b,c), edge(c,d), edge(d,e), v1(a), v2(e)");
  BoundQuery bq = Bind(q, rels.Map(), {"a", "b", "c", "d", "e"});
  ExecOptions opts;
  opts.deadline = Deadline::AfterSeconds(0.0);
  for (const char* name : {"lftj", "ms", "psql", "monetdb"}) {
    ExecResult r = CreateEngine(name)->Execute(bq, opts);
    EXPECT_EQ(r.status.code(), StatusCode::kDeadlineExceeded)
        << name << " " << r.status.ToString();
  }
}

// ---------------------------------------------------------------------------
// Property sweep: every engine must agree with the brute-force oracle on
// every paper query shape across random graphs.

struct OracleCase {
  const char* query;
  std::vector<std::string> gao;
  int graph_nodes;
  int graph_edges;
  bool clique_supported;  // specialized engine can answer it
};

const OracleCase kOracleCases[] = {
    {"edge_lt(a,b), edge_lt(b,c), edge_lt(a,c)", {"a", "b", "c"}, 14, 34,
     true},
    {"edge(a,b), edge(b,c), edge(a,c), a<b<c", {"a", "b", "c"}, 14, 34, true},
    {"edge_lt(a,b), edge_lt(a,c), edge_lt(a,d), edge_lt(b,c), edge_lt(b,d), "
     "edge_lt(c,d)",
     {"a", "b", "c", "d"},
     12,
     34,
     true},
    {"edge_lt(a,b), edge_lt(b,c), edge_lt(c,d), edge_lt(a,d)",
     {"a", "b", "c", "d"},
     12,
     30,
     false},
    {"v1(a), v2(d), edge(a,b), edge(b,c), edge(c,d)",
     {"a", "b", "c", "d"},
     12,
     26,
     false},
    {"v1(a), v2(e), edge(a,b), edge(b,c), edge(c,d), edge(d,e)",
     {"a", "b", "c", "d", "e"},
     9,
     18,
     false},
    {"v1(b), v2(c), edge(a,b), edge(a,c)", {"a", "b", "c"}, 14, 30, false},
    {"v1(c), v2(d), edge(a,b), edge(a,c), edge(b,d)",
     {"a", "b", "c", "d"},
     12,
     26,
     false},
    {"v1(a), edge(a,b), edge(b,c), edge(c,d), edge(d,e), edge(c,e)",
     {"a", "b", "c", "d", "e"},
     9,
     20,
     false},
    // 2-tree, with v1/v2 standing in for v3/v4.
    {"v1(d), v2(e), v1(f), v2(g), edge(a,b), edge(a,c), edge(b,d), "
     "edge(b,e), edge(c,f), edge(c,g)",
     {"a", "b", "c", "d", "e", "f", "g"},
     8,
     14,
     false},
    // 3-lollipop.
    {"v1(a), edge(a,b), edge(b,c), edge(c,d), edge(d,e), edge(d,f), "
     "edge(d,g), edge(e,f), edge(e,g), edge(f,g)",
     {"a", "b", "c", "d", "e", "f", "g"},
     8,
     18,
     false},
    // Filters whose later variable comes first in the GAO: d<b is
    // enforced when d is bound, and puts b in depth 3's cache key.
    {"v1(a), v2(d), edge(a,b), edge(b,c), edge(c,d), d<b",
     {"a", "b", "c", "d"},
     12,
     26,
     false},
    {"edge(a,b), edge(b,c), edge(c,d), c<a",
     {"a", "b", "c", "d"},
     10,
     22,
     false},
    // Disconnected atoms: depth 2's suffix shares nothing with the prefix.
    {"v1(a), edge(a,b), edge(c,d), v2(d)",
     {"a", "b", "c", "d"},
     12,
     26,
     false},
    // Cross product: |edge|^3 answers.
    {"edge(a,b), edge(c,d), edge(e,f)",
     {"a", "b", "c", "d", "e", "f"},
     8,
     10,
     false},
    // 2-comb and 1-tree with the independent components bound in the
    // other GAO order: after a, {c} and {b,d} are counted apart.
    {"v1(c), v2(d), edge(a,b), edge(a,c), edge(b,d)",
     {"a", "c", "b", "d"},
     12,
     26,
     false},
    {"v1(b), v2(c), edge(a,b), edge(a,c)", {"a", "c", "b"}, 14, 30, false},
    // 2-comb whose c<d filter joins the components: no split below a.
    {"v1(c), v2(d), edge(a,b), edge(a,c), edge(b,d), c<d",
     {"a", "b", "c", "d"},
     12,
     26,
     false},
    // Components that split below the first level and again deeper:
    // after a, {b} and {c,d,e}; after c, {d} and {e}.
    {"edge(a,b), edge(a,c), edge(c,d), edge(c,e), v1(d), v2(e)",
     {"a", "b", "c", "d", "e"},
     10,
     20,
     false},
};

class EngineOracleTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(EngineOracleTest, AllEnginesMatchBruteForce) {
  const auto& [case_idx, seed] = GetParam();
  const OracleCase& c = kOracleCases[case_idx];
  Graph g = ErdosRenyi(c.graph_nodes, c.graph_edges, 500 + seed * 31);
  GraphRelations rels = MakeGraphRelations(g);
  rels.v1 = SampleNodes(g, 2.0, seed + 1);
  rels.v2 = SampleNodes(g, 2.0, seed + 2);
  Query q = MustParseQuery(c.query);
  BoundQuery bq = Bind(q, rels.Map(), c.gao);

  const uint64_t expected = BruteForceCount(bq);
  for (const char* name :
       {"lftj", "lftj-nocache", "ms", "#ms", "ms-noidea4", "ms-noidea6",
        "ms-noidea46", "ms-noidea7", "hybrid", "psql", "monetdb",
        "yannakakis"}) {
    auto engine = CreateEngine(name);
    ASSERT_NE(engine, nullptr) << name;
    ExecResult r = engine->Execute(bq, ExecOptions{});
    ASSERT_TRUE(r.ok()) << name << " on " << c.query << " "
                        << r.status.ToString();
    EXPECT_EQ(r.count, expected) << name << " on " << c.query;
  }
  if (c.clique_supported) {
    ExecResult r = CreateEngine("clique")->Execute(bq, ExecOptions{});
    ASSERT_TRUE(r.ok()) << r.status.ToString();
    EXPECT_EQ(r.count, expected) << "clique on " << c.query;
  }
  // Count-mode LFTJ multiplies independent components and answers from
  // its suffix caches; the enumerating (collect_tuples) run and every
  // var0 morsel split must land on the same number.
  auto lftj = CreateEngine("lftj");
  ExecOptions collect;
  collect.collect_tuples = true;
  const ExecResult tuples = lftj->Execute(bq, collect);
  ASSERT_TRUE(tuples.ok()) << c.query;
  EXPECT_EQ(tuples.count, expected) << c.query;
  EXPECT_EQ(tuples.tuples.size(), expected) << c.query;
  for (int threads = 1; threads <= 4; ++threads) {
    const ExecResult r = PartitionedExecute(*lftj, bq, ExecOptions{},
                                            threads, /*granularity=*/4);
    ASSERT_TRUE(r.ok()) << c.query;
    EXPECT_EQ(r.count, expected) << threads << " threads on " << c.query;
  }
}

INSTANTIATE_TEST_SUITE_P(
    QueriesBySeeds, EngineOracleTest,
    ::testing::Combine(
        ::testing::Range(0, static_cast<int>(std::size(kOracleCases))),
        ::testing::Range(0, 3)),
    [](const auto& info) {
      return "q" + std::to_string(std::get<0>(info.param)) + "_s" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace wcoj
