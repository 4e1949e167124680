// Tests for spmd/: clause plans, iteration spaces, programs.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "spmd/clause_plan.hpp"
#include "spmd/plan_cache.hpp"
#include "spmd/program.hpp"
#include "support/error.hpp"

namespace vcal::spmd {
namespace {

using decomp::ArrayDesc;
using decomp::Decomp1D;
using decomp::DecompND;

ArrayTable one_d_arrays(i64 n, i64 procs) {
  ArrayTable t;
  t.emplace("A", ArrayDesc::distributed(
                     "A", {0}, {n - 1}, DecompND({Decomp1D::block(n, procs)})));
  t.emplace("B", ArrayDesc::distributed(
                     "B", {0}, {n - 1},
                     DecompND({Decomp1D::scatter(n, procs)})));
  t.emplace("C", ArrayDesc::replicated("C", {0}, {n - 1}, procs));
  return t;
}

prog::Clause simple_clause(i64 lo, i64 hi) {
  // A[i] := B[i+1] * 2
  prog::Clause c;
  c.loops = {{"i", lo, hi}};
  c.lhs_array = "A";
  c.lhs_subs = {{0, fn::var()}};
  c.refs.push_back({"B", {{0, fn::add(fn::var(), fn::cnst(1))}}});
  c.rhs = prog::mul(prog::ref(0), prog::number(2.0));
  return c;
}

TEST(IterationSpace, ProductEnumeration) {
  using gen::Method;
  using gen::Schedule;
  IterationSpace space({
      Schedule::closed_form(Method::Replicated, {{0, 3, 1}}),
      Schedule::closed_form(Method::Replicated, {{5, 2, 10}}),
  });
  EXPECT_EQ(space.count(), 6);
  std::vector<std::vector<i64>> got;
  space.for_each([&](const std::vector<i64>& v) { got.push_back(v); });
  std::vector<std::vector<i64>> expect = {{0, 5},  {0, 15}, {1, 5},
                                          {1, 15}, {2, 5},  {2, 15}};
  EXPECT_EQ(got, expect);
}

TEST(IterationSpace, EmptyDimensionShortCircuits) {
  using gen::Method;
  using gen::Schedule;
  IterationSpace space({
      Schedule::closed_form(Method::Replicated, {{0, 3, 1}}),
      Schedule::empty(Method::BlockBounds),
  });
  EXPECT_EQ(space.count(), 0);
  int called = 0;
  space.for_each([&](const std::vector<i64>&) { ++called; });
  EXPECT_EQ(called, 0);
}

TEST(ClausePlan, ModifySpacesPartitionTheLoopRange) {
  ArrayTable arrays = one_d_arrays(32, 4);
  ClausePlan plan = ClausePlan::build(simple_clause(0, 30), arrays);
  std::set<i64> seen;
  for (i64 p = 0; p < 4; ++p) {
    plan.modify_space(p).for_each([&](const std::vector<i64>& v) {
      EXPECT_TRUE(seen.insert(v[0]).second) << "duplicate i=" << v[0];
      EXPECT_EQ(plan.lhs_owner(v), p);
    });
  }
  EXPECT_EQ(seen.size(), 31u);
}

TEST(ClausePlan, ResideSpacesCoverTheReads) {
  ArrayTable arrays = one_d_arrays(32, 4);
  ClausePlan plan = ClausePlan::build(simple_clause(0, 30), arrays);
  // Reside spaces for ref 0 (B[i+1]) must cover exactly i = 0..30 with
  // owner_B(i+1) == p.
  std::set<i64> seen;
  for (i64 p = 0; p < 4; ++p) {
    plan.reside_space(p, 0).for_each([&](const std::vector<i64>& v) {
      EXPECT_TRUE(seen.insert(v[0]).second);
      EXPECT_EQ(plan.ref_owner(0, v), p);
    });
  }
  EXPECT_EQ(seen.size(), 31u);
}

TEST(ClausePlan, ReplicatedLhsIteratesEverywhere) {
  ArrayTable arrays = one_d_arrays(32, 4);
  prog::Clause c = simple_clause(0, 30);
  c.lhs_array = "C";
  ClausePlan plan = ClausePlan::build(c, arrays);
  EXPECT_TRUE(plan.lhs_replicated());
  for (i64 p = 0; p < 4; ++p)
    EXPECT_EQ(plan.modify_space(p).count(), 31);
}

TEST(ClausePlan, ReplicatedRefNeedsNoComm) {
  ArrayTable arrays = one_d_arrays(32, 4);
  prog::Clause c = simple_clause(0, 30);
  c.refs[0].array = "C";
  ClausePlan plan = ClausePlan::build(c, arrays);
  EXPECT_FALSE(plan.ref_needs_comm(0));
  EXPECT_THROW(plan.reside_space(0, 0), InternalError);
}

TEST(ClausePlan, MessageTagsAreUniquePerRefAndIndex) {
  ArrayTable arrays = one_d_arrays(32, 4);
  prog::Clause c = simple_clause(0, 30);
  c.refs.push_back({"B", {{0, fn::var()}}});
  c.rhs = prog::add(prog::ref(0), prog::ref(1));
  ClausePlan plan = ClausePlan::build(c, arrays);
  std::set<i64> tags;
  for (i64 i = 0; i <= 30; ++i) {
    EXPECT_TRUE(tags.insert(plan.message_tag(0, {i})).second);
    EXPECT_TRUE(tags.insert(plan.message_tag(1, {i})).second);
  }
}

TEST(ClausePlan, TwoDimensionalOwnership) {
  ArrayTable arrays;
  arrays.emplace("M", ArrayDesc::distributed(
                          "M", {0, 0}, {7, 7},
                          DecompND({Decomp1D::block(8, 2),
                                    Decomp1D::scatter(8, 2)})));
  // M[i, j] := M[i, j] * 0 + 1 — self-referencing identity-shape clause.
  prog::Clause c;
  c.loops = {{"i", 0, 7}, {"j", 0, 7}};
  c.lhs_array = "M";
  c.lhs_subs = {{0, fn::var()}, {1, fn::var()}};
  c.refs.push_back({"M", {{0, fn::var()}, {1, fn::var()}}});
  c.rhs = prog::add(prog::mul(prog::ref(0), prog::number(0.0)),
                    prog::number(1.0));
  ClausePlan plan = ClausePlan::build(c, arrays);
  std::set<std::pair<i64, i64>> seen;
  for (i64 p = 0; p < 4; ++p) {
    plan.modify_space(p).for_each([&](const std::vector<i64>& v) {
      EXPECT_TRUE(seen.insert({v[0], v[1]}).second);
      EXPECT_EQ(plan.lhs_owner(v), p);
    });
  }
  EXPECT_EQ(seen.size(), 64u);
}

TEST(ClausePlan, DiagonalIntersectsPerDimensionSchedules) {
  // M[i, i] := 1: the loop variable constrains both grid dimensions; the
  // plan must intersect the two schedules so each rank touches exactly
  // the diagonal cells it owns.
  ArrayTable arrays;
  arrays.emplace("M", ArrayDesc::distributed(
                          "M", {0, 0}, {7, 7},
                          DecompND({Decomp1D::block(8, 2),
                                    Decomp1D::scatter(8, 2)})));
  prog::Clause c;
  c.loops = {{"i", 0, 7}};
  c.lhs_array = "M";
  c.lhs_subs = {{0, fn::var()}, {0, fn::var()}};
  c.rhs = prog::number(1.0);
  ClausePlan plan = ClausePlan::build(c, arrays);
  std::set<i64> seen;
  for (i64 p = 0; p < 4; ++p) {
    plan.modify_space(p).for_each([&](const std::vector<i64>& v) {
      EXPECT_TRUE(seen.insert(v[0]).second);
      EXPECT_EQ(plan.lhs_owner(v), p);
    });
  }
  EXPECT_EQ(seen.size(), 8u);  // every diagonal element exactly once
}

TEST(ClausePlan, ConstantSubscriptPinsOwnership) {
  ArrayTable arrays;
  arrays.emplace("M", ArrayDesc::distributed(
                          "M", {0, 0}, {7, 7},
                          DecompND({Decomp1D::block(8, 2),
                                    Decomp1D::block(8, 2)})));
  // M[3, j] := 1 — row 3 lives on grid row 0.
  prog::Clause c;
  c.loops = {{"j", 0, 7}};
  c.lhs_array = "M";
  c.lhs_subs = {{-1, fn::cnst(3)}, {0, fn::var()}};
  c.rhs = prog::number(1.0);
  ClausePlan plan = ClausePlan::build(c, arrays);
  i64 total = 0;
  for (i64 p = 0; p < 4; ++p) total += plan.modify_space(p).count();
  EXPECT_EQ(total, 8);
  // Ranks on grid row 1 own nothing.
  EXPECT_EQ(plan.modify_space(2).count(), 0);
  EXPECT_EQ(plan.modify_space(3).count(), 0);
}

TEST(ClausePlan, RejectsBadShapes) {
  ArrayTable arrays = one_d_arrays(32, 4);
  // Unknown array.
  prog::Clause c = simple_clause(0, 30);
  c.lhs_array = "Z";
  EXPECT_THROW(ClausePlan::build(c, arrays), SemanticError);

  // Arity mismatch.
  c = simple_clause(0, 30);
  c.lhs_subs.push_back({0, fn::var()});
  EXPECT_THROW(ClausePlan::build(c, arrays), SemanticError);

  ArrayTable arrays2;
  arrays2.emplace("M", ArrayDesc::distributed(
                           "M", {0, 0}, {7, 7},
                           DecompND({Decomp1D::block(8, 2),
                                     Decomp1D::block(8, 2)})));

  // LHS constant subscript out of bounds: translate rejects it, so here
  // it is a broken invariant.
  prog::Clause c3;
  c3.loops = {{"j", 0, 7}};
  c3.lhs_array = "M";
  c3.lhs_subs = {{-1, fn::cnst(99)}, {0, fn::var()}};
  c3.rhs = prog::number(0.0);
  EXPECT_THROW(ClausePlan::build(c3, arrays2), InternalError);

  // Processor count mismatch between clause arrays.
  ArrayTable arrays3 = one_d_arrays(32, 4);
  arrays3.erase("B");
  arrays3.emplace("B", ArrayDesc::distributed(
                           "B", {0}, {31},
                           DecompND({Decomp1D::scatter(32, 2)})));
  EXPECT_THROW(ClausePlan::build(simple_clause(0, 30), arrays3),
               SemanticError);
}

TEST(Program, ValidateCatchesIllegalRedistribution) {
  Program p;
  p.procs = 4;
  p.arrays = one_d_arrays(32, 4);

  // Bounds change.
  RedistStep bad1{"A", decomp::ArrayDesc::distributed(
                           "A", {0}, {15},
                           DecompND({Decomp1D::scatter(16, 4)}))};
  p.steps.emplace_back(bad1);
  EXPECT_THROW(p.validate(), SemanticError);
  p.steps.clear();

  // Replicated target.
  RedistStep bad2{"A", decomp::ArrayDesc::replicated("A", {0}, {31}, 4)};
  p.steps.emplace_back(bad2);
  EXPECT_THROW(p.validate(), SemanticError);
  p.steps.clear();

  // Fine: block -> scatter.
  RedistStep ok{"A", decomp::ArrayDesc::distributed(
                         "A", {0}, {31},
                         DecompND({Decomp1D::scatter(32, 4)}))};
  p.steps.emplace_back(ok);
  EXPECT_NO_THROW(p.validate());
}

TEST(Program, ValidateCatchesUndeclaredArrays) {
  Program p;
  p.procs = 4;
  p.arrays = one_d_arrays(32, 4);
  prog::Clause c = simple_clause(0, 30);
  c.refs[0].array = "Ghost";
  p.steps.emplace_back(c);
  EXPECT_THROW(p.validate(), SemanticError);
}

TEST(Program, StrAndClauseCount) {
  Program p;
  p.procs = 4;
  p.arrays = one_d_arrays(32, 4);
  p.steps.emplace_back(simple_clause(0, 30));
  p.steps.emplace_back(RedistStep{
      "A", decomp::ArrayDesc::distributed(
               "A", {0}, {31}, DecompND({Decomp1D::scatter(32, 4)}))});
  EXPECT_EQ(p.clause_count(), 1);
  EXPECT_NE(p.str().find("program on 4 processors"), std::string::npos);
  EXPECT_NE(p.str().find("redistribute"), std::string::npos);
}

TEST(PlanCache, HitsOnRepeatedClause) {
  ArrayTable arrays = one_d_arrays(32, 4);
  prog::Clause c = simple_clause(0, 30);
  PlanCache cache;

  const ClausePlan& first = cache.get(c, arrays);
  EXPECT_EQ(cache.misses(), 1);
  EXPECT_EQ(cache.hits(), 0);
  const ClausePlan& again = cache.get(c, arrays);
  EXPECT_EQ(cache.misses(), 1);
  EXPECT_EQ(cache.hits(), 1);
  EXPECT_EQ(&first, &again);  // literally the same plan object
  EXPECT_EQ(cache.size(), 1);
}

TEST(PlanCache, DistinctClausesGetDistinctEntries) {
  ArrayTable arrays = one_d_arrays(32, 4);
  PlanCache cache;
  cache.get(simple_clause(0, 30), arrays);
  cache.get(simple_clause(0, 15), arrays);  // different bounds
  EXPECT_EQ(cache.misses(), 2);
  EXPECT_EQ(cache.size(), 2);
}

TEST(PlanCache, RedistributedLayoutBuildsAgainstTheNewLayout) {
  ArrayTable arrays = one_d_arrays(32, 4);
  prog::Clause c = simple_clause(0, 30);
  PlanCache cache;

  const ClausePlan& block = cache.get(c, arrays);
  EXPECT_EQ(block.modify_space(0).count(), 8);  // 0..7

  // Redistribute A to scatter; a plan for the old layout would keep
  // block ownership.
  arrays.insert_or_assign(
      "A", decomp::ArrayDesc::distributed(
               "A", {0}, {31}, DecompND({Decomp1D::scatter(32, 4)})));
  const ClausePlan& after = cache.get(c, arrays);
  EXPECT_EQ(cache.misses(), 2);
  EXPECT_EQ(after.modify_space(0).count(), 8);  // scatter: 0,4,...,28
  EXPECT_NE(after.modify_space(0).dim(0).str(),
            block.modify_space(0).dim(0).str());
  cache.get(c, arrays);  // same layout again: a hit
  EXPECT_EQ(cache.hits(), 1);
}

TEST(PlanCache, TwoLayoutsOfOneClauseCoexist) {
  // block -> scatter -> block: both entries stay, and returning to a
  // layout finds its original plan (and what rides in its entry).
  const ArrayTable block_arrays = one_d_arrays(32, 4);
  ArrayTable scatter_arrays = block_arrays;
  scatter_arrays.insert_or_assign(
      "A", decomp::ArrayDesc::distributed(
               "A", {0}, {31}, DecompND({Decomp1D::scatter(32, 4)})));
  prog::Clause c = simple_clause(0, 30);
  PlanCache cache;
  const ClausePlan& block = cache.get(c, block_arrays);
  const ClausePlan& scatter = cache.get(c, scatter_arrays);
  EXPECT_NE(&block, &scatter);
  EXPECT_EQ(&cache.get(c, block_arrays), &block);
  EXPECT_EQ(&cache.get(c, scatter_arrays), &scatter);
  EXPECT_EQ(cache.misses(), 2);
  EXPECT_EQ(cache.hits(), 2);
  EXPECT_EQ(cache.size(), 2);
  // A block, A scatter and B scatter; C is never touched.
  EXPECT_EQ(cache.layouts(), 3);

  // The same through a machine's lookup: a relayout switches entries
  // without rebuilding either.
  PlanLookup lookup(cache);
  PlanCache::Entry& e_block = lookup.get(c, block_arrays, {});
  EXPECT_EQ(&e_block.plan, &block);
  lookup.relayout(scatter_arrays.at("A"));
  EXPECT_EQ(&lookup.get(c, scatter_arrays, {}).plan, &scatter);
  lookup.relayout(block_arrays.at("A"));
  EXPECT_EQ(&lookup.get(c, block_arrays, {}), &e_block);
  EXPECT_EQ(cache.misses(), 2);
  EXPECT_EQ(cache.hits(), 5);
}

TEST(PlanCache, LayoutIdsAreExact) {
  PlanCache cache;
  const ArrayTable arrays = one_d_arrays(32, 4);
  const ArrayDesc& a = arrays.at("A");
  EXPECT_EQ(cache.intern(a), cache.intern(arrays.at("A")));
  // Same shape and decomposition under another name, and the same array
  // with a halo, are different layouts.
  const LayoutId base = cache.intern(a);
  EXPECT_NE(cache.intern(ArrayDesc::distributed(
                "Z", {0}, {31}, DecompND({Decomp1D::block(32, 4)}))),
            base);
  EXPECT_NE(cache.intern(a.with_halo(1)), base);
  EXPECT_EQ(cache.layouts(), 3);
}

}  // namespace
}  // namespace vcal::spmd
