#include "metalog/catalog.h"

#include <gtest/gtest.h>

#include "metalog/parser.h"

namespace kgm::metalog {
namespace {

pg::PropertyGraph SampleGraph() {
  pg::PropertyGraph g;
  pg::NodeId a = g.AddNode("Person", {{"name", Value("ada")},
                                      {"age", Value(int64_t{36})}});
  pg::NodeId b = g.AddNode("Person", {{"name", Value("bob")}});
  pg::NodeId c = g.AddNode("Company", {{"name", Value("acme")}});
  g.AddEdge(a, c, "OWNS", {{"pct", Value(0.6)}});
  g.AddEdge(b, c, "OWNS", {{"pct", Value(0.4)}});
  g.AddEdge(a, b, "KNOWS");
  return g;
}

TEST(CatalogTest, FromGraphCollectsLabelsAndProps) {
  pg::PropertyGraph g = SampleGraph();
  GraphCatalog catalog = GraphCatalog::FromGraph(g);
  EXPECT_TRUE(catalog.HasNodeLabel("Person"));
  EXPECT_TRUE(catalog.HasNodeLabel("Company"));
  EXPECT_TRUE(catalog.HasEdgeLabel("OWNS"));
  EXPECT_TRUE(catalog.HasEdgeLabel("KNOWS"));
  EXPECT_EQ(catalog.NodeProps("Person"),
            (std::vector<std::string>{"age", "name"}));
  EXPECT_EQ(catalog.EdgeProps("OWNS"), (std::vector<std::string>{"pct"}));
  EXPECT_EQ(catalog.NodeArity("Person"), 3u);
  EXPECT_EQ(catalog.EdgeArity("OWNS"), 4u);
  EXPECT_EQ(catalog.NodePropColumn("Person", "age"), 1);
  EXPECT_EQ(catalog.NodePropColumn("Person", "name"), 2);
  EXPECT_EQ(catalog.EdgePropColumn("OWNS", "pct"), 3);
  EXPECT_EQ(catalog.NodePropColumn("Person", "missing"), -1);
}

TEST(CatalogTest, AbsorbProgramAddsIntensionalLabels) {
  GraphCatalog catalog;
  catalog.AddNodeLabel("Business", {"name"});
  auto program = ParseMetaProgram(
      "(x: Business) -> exists c (x)[c: CONTROLS](x).");
  ASSERT_TRUE(program.ok());
  ASSERT_TRUE(catalog.AbsorbProgram(*program).ok());
  EXPECT_TRUE(catalog.HasEdgeLabel("CONTROLS"));
  EXPECT_TRUE(catalog.EdgeProps("CONTROLS").empty());
}

TEST(CatalogTest, NodeEdgeLabelClashRejected) {
  GraphCatalog catalog;
  catalog.AddNodeLabel("OWNS");
  auto program =
      ParseMetaProgram("(x: Business)[: OWNS](y: Business) -> (x: Owner).");
  ASSERT_TRUE(program.ok());
  EXPECT_FALSE(catalog.AbsorbProgram(*program).ok());
}

TEST(EncodeTest, NodesAndEdgesBecomeFacts) {
  pg::PropertyGraph g = SampleGraph();
  GraphCatalog catalog = GraphCatalog::FromGraph(g);
  vadalog::FactDb db = EncodeGraph(g, catalog);
  const vadalog::Relation* person = db.Get("Person");
  ASSERT_NE(person, nullptr);
  EXPECT_EQ(person->size(), 2u);
  EXPECT_EQ(person->arity(), 3u);  // oid, age, name
  // bob has no age: null in the age column.
  bool found_bob = false;
  for (const auto& t : person->tuples()) {
    if (t[2] == Value("bob")) {
      found_bob = true;
      EXPECT_TRUE(t[1].is_null());
    }
  }
  EXPECT_TRUE(found_bob);
  const vadalog::Relation* owns = db.Get("OWNS");
  ASSERT_NE(owns, nullptr);
  EXPECT_EQ(owns->size(), 2u);
  EXPECT_EQ(owns->arity(), 4u);  // oid, from, to, pct
}

TEST(EncodeTest, MultiLabelNodeEncodedUnderEachLabel) {
  pg::PropertyGraph g;
  g.AddNode(std::vector<std::string>{"LegalPerson", "Business"},
            {{"name", Value("acme")}});
  GraphCatalog catalog = GraphCatalog::FromGraph(g);
  vadalog::FactDb db = EncodeGraph(g, catalog);
  EXPECT_EQ(db.Get("LegalPerson")->size(), 1u);
  EXPECT_EQ(db.Get("Business")->size(), 1u);
}

TEST(DecodeTest, NewEdgeMaterialized) {
  pg::PropertyGraph g = SampleGraph();
  GraphCatalog catalog = GraphCatalog::FromGraph(g);
  catalog.AddEdgeLabel("CONTROLS");
  vadalog::FactDb db = EncodeGraph(g, catalog);
  // Derive a CONTROLS edge 0 -> 2 with a fresh Skolem OID.
  Value oid = SkolemTable::Global().Intern("skCtrl", {Value(int64_t{0})});
  db.Add("CONTROLS",
         {oid, Value(int64_t{0}), Value(int64_t{2})});
  size_t edges_before = g.num_edges();
  auto stats = DecodeGraph(db, catalog, &g);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->new_edges, 1u);
  EXPECT_EQ(g.num_edges(), edges_before + 1);
  EXPECT_EQ(g.EdgesWithLabel("CONTROLS").size(), 1u);
}

TEST(DecodeTest, ExistingEdgeNotDuplicated) {
  pg::PropertyGraph g = SampleGraph();
  GraphCatalog catalog = GraphCatalog::FromGraph(g);
  vadalog::FactDb db = EncodeGraph(g, catalog);
  size_t edges_before = g.num_edges();
  auto stats = DecodeGraph(db, catalog, &g);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->new_edges, 0u);
  EXPECT_EQ(stats->new_nodes, 0u);
  EXPECT_EQ(g.num_edges(), edges_before);
}

TEST(DecodeTest, NewNodeAndPropertyMerge) {
  pg::PropertyGraph g = SampleGraph();
  GraphCatalog catalog = GraphCatalog::FromGraph(g);
  catalog.AddNodeLabel("Family", {"familyName"});
  catalog.AddNodeLabel("Company", {"name", "numberOfStakeholders"});
  vadalog::FactDb db = EncodeGraph(g, catalog);
  // New node with Skolem OID.
  Value fam = SkolemTable::Global().Intern("skFam", {Value("rossi")});
  db.Add("Family", {fam, Value("rossi")});
  // New derived property on the existing company node (id 2).
  db.Add("Company",
         {Value(int64_t{2}), Value(), Value(int64_t{2})});
  auto stats = DecodeGraph(db, catalog, &g);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->new_nodes, 1u);
  auto families = g.NodesWithLabel("Family");
  ASSERT_EQ(families.size(), 1u);
  EXPECT_EQ(*g.NodeProperty(families[0], "familyName"), Value("rossi"));
  EXPECT_EQ(*g.NodeProperty(2, "numberOfStakeholders"), Value(int64_t{2}));
  // The original name survives the merge.
  EXPECT_EQ(*g.NodeProperty(2, "name"), Value("acme"));
}

TEST(DecodeTest, UnresolvedEndpointRejected) {
  pg::PropertyGraph g = SampleGraph();
  GraphCatalog catalog = GraphCatalog::FromGraph(g);
  catalog.AddEdgeLabel("CONTROLS");
  vadalog::FactDb db = EncodeGraph(g, catalog);
  db.Add("CONTROLS", {Value(int64_t{999}), Value(int64_t{777}),
                      Value(int64_t{0})});
  auto stats = DecodeGraph(db, catalog, &g);
  EXPECT_FALSE(stats.ok());
}

TEST(EncodeTest, MarksEveryRelationAsInput) {
  pg::PropertyGraph g = SampleGraph();
  GraphCatalog catalog = GraphCatalog::FromGraph(g);
  vadalog::FactDb db = EncodeGraph(g, catalog);
  for (const std::string& pred : db.Predicates()) {
    EXPECT_EQ(db.Get(pred)->input_rows(), db.Get(pred)->size()) << pred;
  }
}

TEST(DecodeTest, EncodedRowsAreNotReplayed) {
  pg::PropertyGraph g = SampleGraph();
  GraphCatalog catalog = GraphCatalog::FromGraph(g);
  vadalog::FactDb db = EncodeGraph(g, catalog);
  // A change made after the encode is not reverted by the encoded rows.
  g.SetNodeProperty(2, "name", Value("renamed"));
  g.SetEdgeProperty(0, "pct", Value(0.9));
  auto stats = DecodeGraph(db, catalog, &g);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->new_nodes + stats->new_edges + stats->updated_nodes, 0u);
  EXPECT_EQ(*g.NodeProperty(2, "name"), Value("renamed"));
  EXPECT_EQ(*g.EdgeProperty(0, "pct"), Value(0.9));
}

TEST(DecodeTest, NodeArityMismatchIsAnError) {
  pg::PropertyGraph g = SampleGraph();
  GraphCatalog catalog = GraphCatalog::FromGraph(g);
  vadalog::FactDb db;
  // Company encodes as (oid, name); this relation has an extra column.
  db.Add("Company", {Value(int64_t{2}), Value("acme"), Value(int64_t{1})});
  auto stats = DecodeGraph(db, catalog, &g);
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(g.num_nodes(), 3u);
}

TEST(DecodeTest, EdgeArityMismatchIsAnError) {
  pg::PropertyGraph g = SampleGraph();
  GraphCatalog catalog = GraphCatalog::FromGraph(g);
  vadalog::FactDb db;
  // OWNS encodes as (oid, from, to, pct); this relation lacks pct.
  db.Add("OWNS", {Value(int64_t{7}), Value(int64_t{0}), Value(int64_t{2})});
  auto stats = DecodeGraph(db, catalog, &g);
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(g.num_edges(), 3u);
}

TEST(DecodeTest, EdgeIdentityIsPerLabel) {
  // Two edges of different labels share one (oid, from, to) triple.  A
  // derived row of the second label updates that label's edge instead of
  // creating a duplicate.
  pg::PropertyGraph g;
  pg::NodeId a = g.AddNode("Person");
  pg::NodeId b = g.AddNode("Person");
  Value oid = SkolemTable::Global().Intern("skLink", {Value(int64_t{1})});
  g.AddEdge(a, b, "KNOWS", {{kOidProperty, oid}});
  pg::EdgeId likes = g.AddEdge(a, b, "LIKES", {{kOidProperty, oid}});
  GraphCatalog catalog = GraphCatalog::FromGraph(g);
  catalog.AddEdgeLabel("LIKES", {"weight"});
  vadalog::FactDb db = EncodeGraph(g, catalog);
  db.Add("LIKES", {oid, Value(int64_t{0}), Value(int64_t{1}), Value(0.5)});
  auto stats = DecodeGraph(db, catalog, &g);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->new_edges, 0u);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_EQ(*g.EdgeProperty(likes, "weight"), Value(0.5));
}

TEST(DecodeTest, NodeOidResolvesToTheFirstNodeInIdOrder) {
  pg::PropertyGraph g;
  // Node 0 preserves chase OID 3, which is also node 3's id: node 0 wins.
  // Node 4 preserves OID 1, but node 1 comes first.
  g.AddNode("Company", {{kOidProperty, Value(int64_t{3})}});
  for (int i = 1; i < 4; ++i) g.AddNode("Company");
  g.AddNode("Company", {{kOidProperty, Value(int64_t{1})}});
  GraphCatalog catalog;
  catalog.AddNodeLabel("Company", {"name"});
  vadalog::FactDb db = EncodeGraph(g, catalog);
  db.Add("Company", {Value(int64_t{3}), Value("three")});
  db.Add("Company", {Value(int64_t{1}), Value("one")});
  // An integer OID no node carries makes a node, which later rows reuse.
  db.Add("Company", {Value(int64_t{99}), Value("new")});
  catalog.AddNodeLabel("Listed", {"name"});
  db.Add("Listed", {Value(int64_t{99}), Value()});
  auto stats = DecodeGraph(db, catalog, &g);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(*g.NodeProperty(0, "name"), Value("three"));
  EXPECT_EQ(g.NodeProperty(3, "name"), nullptr);
  EXPECT_EQ(*g.NodeProperty(1, "name"), Value("one"));
  EXPECT_EQ(g.NodeProperty(4, "name"), nullptr);
  EXPECT_EQ(stats->new_nodes, 1u);
  ASSERT_EQ(g.NodesWithLabel("Listed").size(), 1u);
  pg::NodeId fresh = g.NodesWithLabel("Listed")[0];
  EXPECT_EQ(*g.NodeProperty(fresh, "name"), Value("new"));
  EXPECT_TRUE(g.node(fresh).HasLabel("Company"));
}

TEST(CatalogTest, MergeCombinesCatalogs) {
  GraphCatalog a;
  a.AddNodeLabel("Person", {"name"});
  GraphCatalog b;
  b.AddNodeLabel("Person", {"age"});
  b.AddEdgeLabel("KNOWS");
  a.Merge(b);
  EXPECT_EQ(a.NodeProps("Person"), (std::vector<std::string>{"age", "name"}));
  EXPECT_TRUE(a.HasEdgeLabel("KNOWS"));
}

}  // namespace
}  // namespace kgm::metalog
