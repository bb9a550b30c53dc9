#include "metalog/mtv.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>

#include "finkg/company_kg.h"
#include "finkg/generator.h"
#include "instance/pipeline.h"
#include "metalog/parser.h"
#include "metalog/runner.h"
#include "vadalog/analysis.h"

namespace kgm::metalog {
namespace {

GraphCatalog CompanyCatalog() {
  GraphCatalog c;
  c.AddNodeLabel("Business", {"name"});
  c.AddEdgeLabel("OWNS", {"percentage"});
  c.AddEdgeLabel("CONTROLS");
  c.AddEdgeLabel("MAJORITY");
  return c;
}

MtvResult TranslateOrDie(const std::string& src, const GraphCatalog& catalog,
                         MtvOptions options = {}) {
  auto program = ParseMetaProgram(src);
  EXPECT_TRUE(program.ok()) << program.status().ToString();
  auto result = TranslateMetaProgram(*program, catalog, options);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

TEST(MtvTest, SimpleEdgePattern) {
  MtvResult r = TranslateOrDie(
      "(x: Business)[o: OWNS; percentage: w](y: Business), w > 0.5"
      " -> (x)[: MAJORITY](y).",
      CompanyCatalog());
  ASSERT_EQ(r.program.rules.size(), 1u);
  const vadalog::Rule& rule = r.program.rules[0];
  // Body: Business(x, _), OWNS(o, x, y, w), Business(y, _).
  ASSERT_EQ(rule.body.size(), 3u);
  EXPECT_EQ(rule.body[0].atom.ToString(), "Business(x,_)");
  EXPECT_EQ(rule.body[1].atom.predicate, "OWNS");
  EXPECT_EQ(rule.body[1].atom.args.size(), 4u);
  EXPECT_EQ(rule.body[1].atom.args[0].var, "o");
  EXPECT_EQ(rule.body[1].atom.args[1].var, "x");
  EXPECT_EQ(rule.body[1].atom.args[2].var, "y");
  EXPECT_EQ(rule.body[1].atom.args[3].var, "w");
  // Head: MAJORITY edge with an auto-existential OID.
  ASSERT_EQ(rule.head.size(), 1u);
  EXPECT_EQ(rule.head[0].predicate, "MAJORITY");
  ASSERT_EQ(rule.existentials.size(), 1u);
}

TEST(MtvTest, InverseEdgeSwapsEndpoints) {
  MtvResult r = TranslateOrDie(
      "(x: Business)[: OWNS]-(y: Business) -> (x)[: MAJORITY](y).",
      CompanyCatalog());
  const vadalog::Rule& rule = r.program.rules[0];
  // OWNS(_, y, x, _): traversed backwards.
  EXPECT_EQ(rule.body[1].atom.args[1].var, "y");
  EXPECT_EQ(rule.body[1].atom.args[2].var, "x");
}

TEST(MtvTest, ConcatenationIntroducesFreshIntermediates) {
  MtvResult r = TranslateOrDie(
      "(x: Business) [: OWNS] / [: OWNS] (y: Business)"
      " -> (x)[: MAJORITY](y).",
      CompanyCatalog());
  const vadalog::Rule& rule = r.program.rules[0];
  // Business(x), OWNS(x, m), OWNS(m, y), Business(y).
  ASSERT_EQ(rule.body.size(), 4u);
  const std::string mid = rule.body[1].atom.args[2].var;
  EXPECT_EQ(rule.body[2].atom.args[1].var, mid);
  EXPECT_NE(mid, "x");
  EXPECT_NE(mid, "y");
}

TEST(MtvTest, AlternationCreatesHelperPredicate) {
  GraphCatalog catalog = CompanyCatalog();
  catalog.AddEdgeLabel("HOLDS");
  MtvResult r = TranslateOrDie(
      "(x: Business) ([: OWNS] | [: HOLDS]) (y: Business)"
      " -> (x)[: MAJORITY](y).",
      catalog);
  ASSERT_EQ(r.helper_predicates.size(), 1u);
  const std::string& alt = r.helper_predicates[0];
  // Two branch rules plus the main rule.
  ASSERT_EQ(r.program.rules.size(), 3u);
  int branch_rules = 0;
  for (const auto& rule : r.program.rules) {
    if (!rule.head.empty() && rule.head[0].predicate == alt) ++branch_rules;
  }
  EXPECT_EQ(branch_rules, 2);
}

TEST(MtvTest, PlusCreatesTransitiveClosure) {
  MtvResult r = TranslateOrDie(
      "(x: Business) [: OWNS]+ (y: Business) -> (x)[: MAJORITY](y).",
      CompanyCatalog());
  ASSERT_EQ(r.helper_predicates.size(), 1u);
  // base + step + main = 3 rules.
  EXPECT_EQ(r.program.rules.size(), 3u);
  // The generated program must be piecewise linear (Section 4).
  EXPECT_TRUE(vadalog::IsPiecewiseLinear(r.program));
}

TEST(MtvTest, ReflexiveStarExpandsToTwoVariants) {
  MtvResult r = TranslateOrDie(
      "(x: Business) [: OWNS]* (y: Business) -> (x)[: MAJORITY](y).",
      CompanyCatalog());
  // closure base + step + zero-variant + closure-variant = 4 rules.
  EXPECT_EQ(r.program.rules.size(), 4u);
  // One of the main variants must unify x and y (no closure literal).
  bool found_zero = false;
  for (const auto& rule : r.program.rules) {
    if (rule.head.empty() || rule.head[0].predicate != "MAJORITY") continue;
    bool has_closure = false;
    for (const auto& lit : rule.body) {
      if (lit.atom.predicate.find("_closure") != std::string::npos) {
        has_closure = true;
      }
    }
    if (!has_closure) {
      found_zero = true;
      // Endpoints unified: head from == head to.
      EXPECT_EQ(rule.head[0].args[1].var, rule.head[0].args[2].var);
    } else {
      // The closure literal sits where the star does: directly after the
      // star's left node literal, before the right one.
      ASSERT_GE(rule.body.size(), 3u);
      EXPECT_EQ(rule.body[0].atom.predicate, "Business");
      EXPECT_EQ(rule.body[0].atom.args[0].var, "x");
      EXPECT_NE(rule.body[1].atom.predicate.find("_closure"),
                std::string::npos);
      EXPECT_EQ(rule.body[1].atom.args[0].var, "x");
      EXPECT_EQ(rule.body[2].atom.predicate, "Business");
    }
  }
  EXPECT_TRUE(found_zero);
}

// Two stars in a row: when the first path is empty and the second is not,
// the second closure starts at the unified node, never at a variable that
// no other literal binds.
TEST(MtvTest, ChainedStarsJoinAtTheUnifiedNode) {
  MtvResult r = TranslateOrDie(
      "(x: Business) [: OWNS]* (m: Business) [: OWNS]* (y: Business)"
      " -> (x)[: MAJORITY](y).",
      CompanyCatalog());
  size_t main_rules = 0;
  for (const auto& rule : r.program.rules) {
    if (rule.head.empty() || rule.head[0].predicate != "MAJORITY") continue;
    ++main_rules;
    std::set<std::string> nodes;
    for (const auto& lit : rule.body) {
      if (lit.atom.predicate == "Business") nodes.insert(lit.atom.args[0].var);
    }
    for (const auto& lit : rule.body) {
      if (lit.atom.predicate.find("_closure") == std::string::npos) continue;
      EXPECT_EQ(nodes.count(lit.atom.args[0].var), 1u) << rule.ToString();
      EXPECT_EQ(nodes.count(lit.atom.args[1].var), 1u) << rule.ToString();
    }
  }
  EXPECT_EQ(main_rules, 4u);
}

// The staged pipeline's node views walk the generalization hierarchy with
// a reflexive star.  Persons are loaded as PhysicalPerson instances, so the
// Person view needs the star's closure variant (PhysicalPerson ->
// Person) and Businesses need two steps (Business -> LegalPerson ->
// Person).  The staged run must derive exactly what direct MetaLog
// execution derives on the multi-label data graph.
TEST(MtvTest, StarClosureVariantStagedEqualsDirect) {
  for (uint64_t seed : {3u, 17u}) {
    finkg::GeneratorConfig config;
    config.num_companies = 40;
    config.num_persons = 40;
    config.seed = seed;
    finkg::ShareholdingNetwork net =
        finkg::ShareholdingNetwork::Generate(config);
    pg::PropertyGraph staged = net.ToOwnershipGraph(/*include_persons=*/true);
    pg::PropertyGraph direct = net.ToOwnershipGraph(/*include_persons=*/true);

    auto pipeline = instance::Materialize(finkg::CompanyKgSchema(),
                                          finkg::kCloseLinksProgram, &staged);
    ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();
    auto run = RunMetaLogSource(finkg::kCloseLinksProgram, &direct);
    ASSERT_TRUE(run.ok()) << run.status().ToString();

    auto links = [](const pg::PropertyGraph& g) {
      std::set<std::pair<std::string, std::string>> out;
      for (pg::EdgeId e : g.EdgesWithLabel("CLOSE_LINK")) {
        const Value* from = g.NodeProperty(g.edge(e).from, "fiscalCode");
        const Value* to = g.NodeProperty(g.edge(e).to, "fiscalCode");
        if (from != nullptr && to != nullptr) {
          out.emplace(from->AsString(), to->AsString());
        }
      }
      return out;
    };
    std::set<std::pair<std::string, std::string>> got = links(staged);
    EXPECT_EQ(got, links(direct)) << "seed " << seed;
    // The closure variant fired: some close link starts at a person.
    bool from_person = false;
    for (pg::EdgeId e : staged.EdgesWithLabel("CLOSE_LINK")) {
      if (staged.node(staged.edge(e).from).HasLabel("PhysicalPerson")) {
        from_person = true;
      }
    }
    EXPECT_TRUE(from_person) << "seed " << seed;
  }
}

TEST(MtvTest, NonReflexiveStarMatchesPaperTranslation) {
  MtvOptions options;
  options.reflexive_star = false;
  MtvResult r = TranslateOrDie(
      "(x: Business) [: OWNS]* (y: Business) -> (x)[: MAJORITY](y).",
      CompanyCatalog(), options);
  // Example 4.4 shape: base + step + single main rule.
  EXPECT_EQ(r.program.rules.size(), 3u);
}

TEST(MtvTest, SharedVariableBecomesClosureParameter) {
  GraphCatalog catalog;
  catalog.AddNodeLabel("SM_Node", {"schemaOID"});
  catalog.AddEdgeLabel("SM_CHILD", {"schemaOID"});
  catalog.AddEdgeLabel("SM_PARENT", {"schemaOID"});
  catalog.AddEdgeLabel("DESCFROM");
  MtvResult r = TranslateOrDie(
      "(x: SM_Node; schemaOID: s), s == 123,"
      " (x) ([: SM_CHILD; schemaOID: s]- / [: SM_PARENT; schemaOID: s])+"
      " (y: SM_Node; schemaOID: s)"
      " -> exists w (x)[w: DESCFROM](y).",
      catalog);
  ASSERT_EQ(r.helper_predicates.size(), 1u);
  // The closure predicate carries s as a parameter column: arity 3.
  for (const auto& rule : r.program.rules) {
    for (const auto& lit : rule.body) {
      if (lit.atom.predicate == r.helper_predicates[0]) {
        EXPECT_EQ(lit.atom.args.size(), 3u);
      }
    }
  }
}

TEST(MtvTest, HeadNodePropertyDefaultsToNull) {
  GraphCatalog catalog;
  catalog.AddNodeLabel("Business", {"name", "numberOfStakeholders"});
  MtvResult r = TranslateOrDie(
      "(x: Business; name: n) -> (x: Business; numberOfStakeholders: 0).",
      catalog);
  const vadalog::Rule& rule = r.program.rules[0];
  ASSERT_EQ(rule.head.size(), 1u);
  // Business(x, null, 0): name unmentioned -> null constant.
  EXPECT_EQ(rule.head[0].args.size(), 3u);
  EXPECT_TRUE(rule.head[0].args[1].constant.is_null());
  EXPECT_FALSE(rule.head[0].args[1].is_var());
}

TEST(MtvTest, SpreadExpandsToGetAssignments) {
  GraphCatalog catalog;
  catalog.AddNodeLabel("I_SM_Node", {"instanceOID"});
  catalog.AddNodeLabel("Business", {"legalName", "year"});
  MtvResult r = TranslateOrDie(
      "(i: I_SM_Node), p = pack(\"k\", 1)"
      " -> exists c (c: Business; *p).",
      catalog);
  const vadalog::Rule& rule = r.program.rules[0];
  // Two get() assignments (legalName, year) appended by the spread.
  ASSERT_EQ(rule.assignments.size(), 2u);
  EXPECT_NE(rule.assignments[0].expr->ToString().find("get"),
            std::string::npos);
}

TEST(MtvTest, UnknownLabelRejected) {
  GraphCatalog catalog;
  auto program = ParseMetaProgram("(x: Nope) -> (x: Nope).");
  ASSERT_TRUE(program.ok());
  EXPECT_FALSE(TranslateMetaProgram(*program, catalog).ok());
}

TEST(MtvTest, UnknownPropertyRejected) {
  auto program =
      ParseMetaProgram("(x: Business; bogus: b) -> (x)[: CONTROLS](x).");
  ASSERT_TRUE(program.ok());
  EXPECT_FALSE(TranslateMetaProgram(*program, CompanyCatalog()).ok());
}

TEST(MtvTest, UnlabeledEdgeRejected) {
  auto program = ParseMetaProgram("(x: Business)[e](y: Business) -> "
                                  "(x)[: CONTROLS](y).");
  ASSERT_TRUE(program.ok());
  EXPECT_FALSE(TranslateMetaProgram(*program, CompanyCatalog()).ok());
}

TEST(MtvTest, InputBindingsFollowExample44) {
  GraphCatalog catalog;
  catalog.AddNodeLabel("SM_Node", {"name"});
  catalog.AddEdgeLabel("SM_CHILD");
  catalog.AddEdgeLabel("SM_PARENT");
  catalog.AddEdgeLabel("DESCFROM");
  auto program = ParseMetaProgram(
      "(x: SM_Node) ([: SM_CHILD]- / [: SM_PARENT])* (y: SM_Node)"
      " -> exists w (x)[w: DESCFROM](y).").value();
  std::string cypher =
      GenerateInputBindings(program, catalog, BindingLanguage::kCypher);
  // One @input per body label, with a Cypher extraction query
  // (Example 4.4's annotations).
  EXPECT_NE(cypher.find("@input(SM_Node, \"MATCH (n:SM_Node) RETURN "
                        "id(n), n.name\")."),
            std::string::npos);
  EXPECT_NE(cypher.find("@input(SM_PARENT, \"MATCH (x)-[e:SM_PARENT]->(y) "
                        "RETURN id(e), id(x), id(y)\")."),
            std::string::npos);
  // No binding for the derived (head-only) DESCFROM label.
  EXPECT_EQ(cypher.find("DESCFROM"), std::string::npos);
  std::string sql =
      GenerateInputBindings(program, catalog, BindingLanguage::kSql);
  EXPECT_NE(sql.find("SELECT oid, name FROM SM_Node"), std::string::npos);
  EXPECT_NE(sql.find("SELECT oid, from_oid, to_oid FROM SM_CHILD"),
            std::string::npos);
}

TEST(MtvTest, Example41TranslatesToWardedProgram) {
  MtvResult r = TranslateOrDie(R"(
    (x: Business) -> exists c (x)[c: CONTROLS](x).
    (x: Business)[: CONTROLS](z: Business)
        [: OWNS; percentage: w](y: Business),
    v = msum(w, <z>), v > 0.5 -> exists c (x)[c: CONTROLS](y).
  )", CompanyCatalog());
  EXPECT_EQ(r.program.rules.size(), 2u);
  auto report = vadalog::CheckWardedness(r.program);
  EXPECT_TRUE(report.warded) << [&] {
    std::string s;
    for (const auto& v : report.violations) s += v + "\n";
    return s;
  }();
}

}  // namespace
}  // namespace kgm::metalog
