// Tests for rt/: stores, the three executors, and their agreement.
#include <gtest/gtest.h>

#include <numeric>

#include "decomp/redistribute.hpp"
#include "rt/dist_machine.hpp"
#include "rt/rank_step.hpp"
#include "rt/seq_executor.hpp"
#include "rt/shared_machine.hpp"
#include "rt/store.hpp"
#include "support/error.hpp"
#include "support/format.hpp"

namespace vcal::rt {
namespace {

using decomp::ArrayDesc;
using decomp::Decomp1D;
using decomp::DecompND;
using spmd::Program;
using spmd::RedistStep;

std::vector<double> iota(i64 n, double base = 0.0) {
  std::vector<double> v(static_cast<std::size_t>(n));
  for (i64 i = 0; i < n; ++i) v[static_cast<std::size_t>(i)] =
      base + static_cast<double>(i);
  return v;
}

Program shift_program(i64 n, i64 procs, Decomp1D::Kind kind_a,
                      Decomp1D::Kind kind_b, i64 b = 2) {
  auto mk = [&](const std::string& name, Decomp1D::Kind k) {
    Decomp1D d = k == Decomp1D::Kind::Block
                     ? Decomp1D::block(n, procs)
                 : k == Decomp1D::Kind::Scatter
                     ? Decomp1D::scatter(n, procs)
                     : Decomp1D::block_scatter(n, procs, b);
    return ArrayDesc::distributed(name, {0}, {n - 1}, DecompND({d}));
  };
  Program p;
  p.procs = procs;
  p.arrays.emplace("A", mk("A", kind_a));
  p.arrays.emplace("B", mk("B", kind_b));

  // A[i] := B[i+1] * 2 + 1 for i in 0 : n-2
  prog::Clause c;
  c.loops = {{"i", 0, n - 2}};
  c.lhs_array = "A";
  c.lhs_subs = {{0, fn::var()}};
  c.refs.push_back({"B", {{0, fn::add(fn::var(), fn::cnst(1))}}});
  c.rhs = prog::add(prog::mul(prog::ref(0), prog::number(2.0)),
                    prog::number(1.0));
  p.steps.emplace_back(std::move(c));
  return p;
}

TEST(DenseStore, ReadWriteAndBounds) {
  DenseStore s;
  ArrayDesc a = ArrayDesc::replicated("A", {5}, {9}, 1);
  s.declare(a);
  s.write(a, {7}, 3.5);
  EXPECT_DOUBLE_EQ(s.read(a, {7}), 3.5);
  EXPECT_DOUBLE_EQ(s.read(a, {5}), 0.0);
  EXPECT_THROW(s.read(a, {4}), RuntimeFault);
  EXPECT_THROW(s.write(a, {10}, 1.0), RuntimeFault);
  EXPECT_THROW(s.dense("nope"), InternalError);
}

TEST(DistStore, LoadGatherRoundTrip) {
  for (auto kind : {0, 1, 2}) {
    Decomp1D d = kind == 0   ? Decomp1D::block(23, 4)
                 : kind == 1 ? Decomp1D::scatter(23, 4)
                             : Decomp1D::block_scatter(23, 4, 3);
    ArrayDesc a = ArrayDesc::distributed("A", {0}, {22}, DecompND({d}));
    DistStore s(4);
    s.load(a, iota(23, 100.0));
    EXPECT_EQ(s.gather(a), iota(23, 100.0));
  }
}

TEST(DistStore, ReplicatedLoadCopiesEverywhere) {
  ArrayDesc a = ArrayDesc::replicated("R", {0}, {9}, 3);
  DistStore s(3);
  s.load(a, iota(10));
  for (i64 p = 0; p < 3; ++p)
    EXPECT_DOUBLE_EQ(s.read_local("R", p, 7), 7.0);
}

TEST(DistStore, LocalBoundsChecked) {
  ArrayDesc a = ArrayDesc::distributed(
      "A", {0}, {9}, DecompND({Decomp1D::block(10, 2)}));
  DistStore s(2);
  s.declare(a);
  EXPECT_THROW(s.read_local("A", 0, 99), RuntimeFault);
  EXPECT_THROW(s.write_local("A", 1, -1, 0.0), RuntimeFault);
}

TEST(SeqExecutor, ComputesTheShift) {
  Program p = shift_program(10, 2, Decomp1D::Kind::Block,
                            Decomp1D::Kind::Block);
  SeqExecutor seq(p);
  seq.load("B", iota(10));
  seq.run();
  const auto& a = seq.result("A");
  for (i64 i = 0; i <= 8; ++i)
    EXPECT_DOUBLE_EQ(a[static_cast<std::size_t>(i)],
                     2.0 * static_cast<double>(i + 1) + 1.0);
  EXPECT_DOUBLE_EQ(a[9], 0.0);  // untouched
}

TEST(SeqExecutor, ParallelClauseHasCopyInSemantics) {
  // A[i] := A[i+1] over the whole range: with copy-in, every element
  // takes its right neighbour's ORIGINAL value.
  Program p;
  p.procs = 1;
  p.arrays.emplace("A", ArrayDesc::replicated("A", {0}, {9}, 1));
  prog::Clause c;
  c.loops = {{"i", 0, 8}};
  c.lhs_array = "A";
  c.lhs_subs = {{0, fn::var()}};
  c.refs.push_back({"A", {{0, fn::add(fn::var(), fn::cnst(1))}}});
  c.rhs = prog::ref(0);
  p.steps.emplace_back(c);
  SeqExecutor seq(p);
  seq.load("A", iota(10));
  seq.run();
  for (i64 i = 0; i <= 8; ++i)
    EXPECT_DOUBLE_EQ(seq.result("A")[static_cast<std::size_t>(i)],
                     static_cast<double>(i + 1));
}

TEST(SeqExecutor, SequentialClauseChainsValues) {
  // Under '•' the same clause becomes a rightward recurrence: A[i] takes
  // A[i+1]'s *updated* value... (downward index order would; with
  // ascending order each A[i] still reads the original A[i+1] except the
  // propagation case below). Use A[i] := A[i-1] instead: ascending order
  // propagates A[0] all the way right.
  Program p;
  p.procs = 1;
  p.arrays.emplace("A", ArrayDesc::replicated("A", {0}, {9}, 1));
  prog::Clause c;
  c.loops = {{"i", 1, 9}};
  c.ord = prog::Ordering::Seq;
  c.lhs_array = "A";
  c.lhs_subs = {{0, fn::var()}};
  c.refs.push_back({"A", {{0, fn::sub(fn::var(), fn::cnst(1))}}});
  c.rhs = prog::ref(0);
  p.steps.emplace_back(c);
  SeqExecutor seq(p);
  seq.load("A", iota(10, 5.0));  // A[0] = 5
  seq.run();
  for (i64 i = 0; i <= 9; ++i)
    EXPECT_DOUBLE_EQ(seq.result("A")[static_cast<std::size_t>(i)], 5.0);
}

class MachineAgreement
    : public ::testing::TestWithParam<
          std::tuple<i64, Decomp1D::Kind, Decomp1D::Kind>> {};

TEST_P(MachineAgreement, AllThreeExecutorsAgree) {
  auto [procs, ka, kb] = GetParam();
  Program p = shift_program(29, procs, ka, kb);
  std::vector<double> input = iota(29, 3.0);

  SeqExecutor seq(p);
  seq.load("B", input);
  seq.run();

  SharedMachine shm(p);
  shm.load("B", input);
  shm.run();

  DistMachine dist(p);
  dist.load("B", input);
  dist.run();

  EXPECT_EQ(shm.result("A"), seq.result("A"));
  EXPECT_EQ(dist.gather("A"), seq.result("A"));
  EXPECT_EQ(shm.stats().barriers, 1);
}

INSTANTIATE_TEST_SUITE_P(
    Decomps, MachineAgreement,
    ::testing::Combine(
        ::testing::Values<i64>(1, 2, 3, 4, 7),
        ::testing::Values(Decomp1D::Kind::Block, Decomp1D::Kind::Scatter,
                          Decomp1D::Kind::BlockScatter),
        ::testing::Values(Decomp1D::Kind::Block, Decomp1D::Kind::Scatter,
                          Decomp1D::Kind::BlockScatter)));

TEST(DistMachine, MessageCountMatchesRemoteReads) {
  Program p = shift_program(32, 4, Decomp1D::Kind::Block,
                            Decomp1D::Kind::Scatter);
  DistMachine dist(p);
  dist.load("B", iota(32));
  dist.run();
  const DistStats& s = dist.stats();
  EXPECT_EQ(s.messages, s.remote_reads);
  EXPECT_EQ(s.local_reads + s.remote_reads, 31);
  EXPECT_GT(s.messages, 0);
}

TEST(DistMachine, AlignedAccessNeedsNoMessages) {
  // A[i] := B[i] with identical decompositions: everything is local.
  Program p = shift_program(32, 4, Decomp1D::Kind::Block,
                            Decomp1D::Kind::Block);
  auto& clause = std::get<prog::Clause>(p.steps[0]);
  clause.refs[0].subs[0].expr = fn::var();  // B[i]
  DistMachine dist(p);
  dist.load("B", iota(32));
  dist.run();
  EXPECT_EQ(dist.stats().messages, 0);
  EXPECT_EQ(dist.stats().local_reads, 31);
}

TEST(DistMachine, GuardsReceiveBeforeDiscarding) {
  // Guarded clause: values still flow (sends are unconditional) and the
  // pairing invariant holds; only the writes are filtered.
  Program p = shift_program(24, 3, Decomp1D::Kind::Scatter,
                            Decomp1D::Kind::Block);
  auto& clause = std::get<prog::Clause>(p.steps[0]);
  clause.refs.push_back({"B", {{0, fn::var()}}});
  prog::Guard g;
  g.cmp = prog::Guard::Cmp::GT;
  g.lhs = prog::ref(1);
  g.rhs = prog::number(10.0);
  clause.guard = g;

  SeqExecutor seq(p);
  seq.load("B", iota(24));
  seq.run();
  DistMachine dist(p);
  dist.load("B", iota(24));
  dist.run();
  EXPECT_EQ(dist.gather("A"), seq.result("A"));
}

TEST(DistMachine, SelfReferenceUsesSnapshot) {
  // A[i] := A[i+1] distributed: senders must ship pre-update values.
  Program p;
  p.procs = 4;
  p.arrays.emplace("A", ArrayDesc::distributed(
                            "A", {0}, {15},
                            DecompND({Decomp1D::block(16, 4)})));
  prog::Clause c;
  c.loops = {{"i", 0, 14}};
  c.lhs_array = "A";
  c.lhs_subs = {{0, fn::var()}};
  c.refs.push_back({"A", {{0, fn::add(fn::var(), fn::cnst(1))}}});
  c.rhs = prog::ref(0);
  p.steps.emplace_back(c);

  SeqExecutor seq(p);
  seq.load("A", iota(16));
  seq.run();
  DistMachine dist(p);
  dist.load("A", iota(16));
  dist.run();
  SharedMachine shm(p);
  shm.load("A", iota(16));
  shm.run();
  EXPECT_EQ(dist.gather("A"), seq.result("A"));
  EXPECT_EQ(shm.result("A"), seq.result("A"));
}

TEST(DistMachine, ReplicatedInputIsFreeToRead) {
  Program p;
  p.procs = 4;
  p.arrays.emplace("A", ArrayDesc::distributed(
                            "A", {0}, {15},
                            DecompND({Decomp1D::scatter(16, 4)})));
  p.arrays.emplace("C", ArrayDesc::replicated("C", {0}, {15}, 4));
  prog::Clause c;
  c.loops = {{"i", 0, 15}};
  c.lhs_array = "A";
  c.lhs_subs = {{0, fn::var()}};
  c.refs.push_back({"C", {{0, fn::var()}}});
  c.rhs = prog::ref(0);
  p.steps.emplace_back(c);
  DistMachine dist(p);
  dist.load("C", iota(16));
  dist.run();
  EXPECT_EQ(dist.stats().messages, 0);
  EXPECT_EQ(dist.gather("A"), iota(16));
}

TEST(DistMachine, ReplicatedTargetBroadcasts) {
  // C[i] := A[i] with C replicated: every rank needs every element.
  Program p;
  p.procs = 4;
  p.arrays.emplace("A", ArrayDesc::distributed(
                            "A", {0}, {15},
                            DecompND({Decomp1D::scatter(16, 4)})));
  p.arrays.emplace("C", ArrayDesc::replicated("C", {0}, {15}, 4));
  prog::Clause c;
  c.loops = {{"i", 0, 15}};
  c.lhs_array = "C";
  c.lhs_subs = {{0, fn::var()}};
  c.refs.push_back({"A", {{0, fn::var()}}});
  c.rhs = prog::ref(0);
  p.steps.emplace_back(c);
  DistMachine dist(p);
  dist.load("A", iota(16));
  dist.run();
  // Each of 16 elements broadcast to 3 other ranks.
  EXPECT_EQ(dist.stats().messages, 16 * 3);
  EXPECT_EQ(dist.gather("C"), iota(16));
}

TEST(DistMachine, RedistributionPreservesValuesAndCounts) {
  Program p;
  p.procs = 4;
  p.arrays.emplace("A", ArrayDesc::distributed(
                            "A", {0}, {31},
                            DecompND({Decomp1D::block(32, 4)})));
  RedistStep step{"A", ArrayDesc::distributed(
                           "A", {0}, {31},
                           DecompND({Decomp1D::scatter(32, 4)}))};
  p.steps.emplace_back(step);
  DistMachine dist(p);
  dist.load("A", iota(32, 42.0));
  dist.run();
  EXPECT_EQ(dist.gather("A"), iota(32, 42.0));
  // Stationary elements: owner unchanged between block(8) and scatter.
  i64 stationary = 0;
  for (i64 i = 0; i < 32; ++i)
    if (i / 8 == i % 4) ++stationary;
  EXPECT_EQ(dist.stats().messages, 32 - stationary);
}

TEST(DistMachine, ComputeAfterRedistributionUsesNewLayout) {
  Program p = shift_program(32, 4, Decomp1D::Kind::Block,
                            Decomp1D::Kind::Block);
  // Redistribute B to scatter *before* the clause runs.
  RedistStep step{"B", ArrayDesc::distributed(
                           "B", {0}, {31},
                           DecompND({Decomp1D::scatter(32, 4)}))};
  p.steps.insert(p.steps.begin(), step);
  SeqExecutor seq(p);
  seq.load("B", iota(32));
  seq.run();
  DistMachine dist(p);
  dist.load("B", iota(32));
  dist.run();
  EXPECT_EQ(dist.gather("A"), seq.result("A"));
  EXPECT_EQ(dist.stats().steps, 2);
}

TEST(DistMachine, RejectsSequentialClauses) {
  Program p = shift_program(16, 2, Decomp1D::Kind::Block,
                            Decomp1D::Kind::Block);
  std::get<prog::Clause>(p.steps[0]).ord = prog::Ordering::Seq;
  DistMachine dist(p);
  EXPECT_THROW(dist.run(), CodegenError);
}

TEST(SharedMachine, RuntimeVsOptimizedSameResultDifferentTests) {
  Program p = shift_program(64, 4, Decomp1D::Kind::Scatter,
                            Decomp1D::Kind::Scatter);
  gen::BuildOptions naive;
  naive.force_runtime_resolution = true;

  SharedMachine opt(p);
  opt.load("B", iota(64));
  opt.run();
  SharedMachine base(p, naive);
  base.load("B", iota(64));
  base.run();

  EXPECT_EQ(opt.result("A"), base.result("A"));
  EXPECT_EQ(opt.stats().tests, 0);
  EXPECT_EQ(base.stats().tests, 63 * 4);  // every rank scans 0:62
  EXPECT_LT(opt.stats().sim_time, base.stats().sim_time);
}

// ---- Overlapped decompositions (Section 5 extension) -----------------

TEST(Halo, NeighbourAccessesBecomeHaloReads) {
  // A[i] := B[i-1] + B[i+1] with B block + halo 1: every remote neighbour
  // read is served by the halo; per-element messages drop to zero and
  // only bulk halo exchanges remain.
  Program p;
  p.procs = 4;
  p.arrays.emplace("A", ArrayDesc::distributed(
                            "A", {0}, {31},
                            DecompND({Decomp1D::block(32, 4)})));
  p.arrays.emplace("B", ArrayDesc::distributed(
                            "B", {0}, {31},
                            DecompND({Decomp1D::block(32, 4)}))
                            .with_halo(1));
  prog::Clause c;
  c.loops = {{"i", 1, 30}};
  c.lhs_array = "A";
  c.lhs_subs = {{0, fn::var()}};
  c.refs.push_back({"B", {{0, fn::sub(fn::var(), fn::cnst(1))}}});
  c.refs.push_back({"B", {{0, fn::add(fn::var(), fn::cnst(1))}}});
  c.rhs = prog::add(prog::ref(0), prog::ref(1));
  p.steps.emplace_back(c);

  SeqExecutor seq(p);
  seq.load("B", iota(32));
  seq.run();
  DistMachine dist(p);
  dist.load("B", iota(32));
  dist.run();
  EXPECT_EQ(dist.gather("A"), seq.result("A"));
  EXPECT_EQ(dist.stats().messages, 0);
  // 3 interior boundaries, 2 directions each = 6 bulk exchanges.
  EXPECT_EQ(dist.stats().halo_messages, 6);
  EXPECT_EQ(dist.stats().halo_values, 6);
  EXPECT_GT(dist.stats().halo_reads, 0);
}

TEST(Halo, WideHaloSpansMultipleOwners) {
  // halo 3 > block size 2: the halo of rank p reaches two neighbours.
  Program p;
  p.procs = 4;
  p.arrays.emplace("A", ArrayDesc::distributed(
                            "A", {0}, {7},
                            DecompND({Decomp1D::block(8, 4)})));
  p.arrays.emplace("B", ArrayDesc::distributed(
                            "B", {0}, {7},
                            DecompND({Decomp1D::block(8, 4)}))
                            .with_halo(3));
  prog::Clause c;
  c.loops = {{"i", 0, 4}};
  c.lhs_array = "A";
  c.lhs_subs = {{0, fn::var()}};
  c.refs.push_back({"B", {{0, fn::add(fn::var(), fn::cnst(3))}}});
  c.rhs = prog::ref(0);
  p.steps.emplace_back(c);

  SeqExecutor seq(p);
  seq.load("B", iota(8));
  seq.run();
  DistMachine dist(p);
  dist.load("B", iota(8));
  dist.run();
  EXPECT_EQ(dist.gather("A"), seq.result("A"));
  EXPECT_EQ(dist.stats().messages, 0);  // halo 3 covers the +3 shift
}

TEST(Halo, SelfReferenceGetsPreClauseValuesInTheHalo) {
  // A[i] := A[i+1] with A halo'd: halo copies must carry the snapshot.
  Program p;
  p.procs = 4;
  p.arrays.emplace("A", ArrayDesc::distributed(
                            "A", {0}, {15},
                            DecompND({Decomp1D::block(16, 4)}))
                            .with_halo(1));
  prog::Clause c;
  c.loops = {{"i", 0, 14}};
  c.lhs_array = "A";
  c.lhs_subs = {{0, fn::var()}};
  c.refs.push_back({"A", {{0, fn::add(fn::var(), fn::cnst(1))}}});
  c.rhs = prog::ref(0);
  p.steps.emplace_back(c);

  SeqExecutor seq(p);
  seq.load("A", iota(16));
  seq.run();
  DistMachine dist(p);
  dist.load("A", iota(16));
  dist.run();
  EXPECT_EQ(dist.gather("A"), seq.result("A"));
  EXPECT_EQ(dist.stats().messages, 0);
}

TEST(Halo, FarAccessesStillUseMessages) {
  // A[i] := B[i+8] with halo 1: the access is far outside the halo, so
  // regular messages flow; the result is still correct.
  Program p;
  p.procs = 4;
  p.arrays.emplace("A", ArrayDesc::distributed(
                            "A", {0}, {31},
                            DecompND({Decomp1D::block(32, 4)})));
  p.arrays.emplace("B", ArrayDesc::distributed(
                            "B", {0}, {31},
                            DecompND({Decomp1D::block(32, 4)}))
                            .with_halo(1));
  prog::Clause c;
  c.loops = {{"i", 0, 23}};
  c.lhs_array = "A";
  c.lhs_subs = {{0, fn::var()}};
  c.refs.push_back({"B", {{0, fn::add(fn::var(), fn::cnst(8))}}});
  c.rhs = prog::ref(0);
  p.steps.emplace_back(c);

  SeqExecutor seq(p);
  seq.load("B", iota(32));
  seq.run();
  DistMachine dist(p);
  dist.load("B", iota(32));
  dist.run();
  EXPECT_EQ(dist.gather("A"), seq.result("A"));
  EXPECT_GT(dist.stats().messages, 0);
}

TEST(Halo, DescriptorValidation) {
  ArrayDesc block = ArrayDesc::distributed(
      "A", {0}, {31}, DecompND({Decomp1D::block(32, 4)}));
  EXPECT_NO_THROW(block.with_halo(2));
  EXPECT_EQ(block.with_halo(2).halo(), 2);
  EXPECT_EQ(block.halo(), 0);

  ArrayDesc scatter = ArrayDesc::distributed(
      "A", {0}, {31}, DecompND({Decomp1D::scatter(32, 4)}));
  EXPECT_THROW(scatter.with_halo(1), SemanticError);
  EXPECT_THROW(ArrayDesc::replicated("R", {0}, {9}, 4).with_halo(1),
               SemanticError);

  // Halo ranges, program-level, clamped at the ends.
  ArrayDesc h = block.with_halo(2);
  EXPECT_EQ(h.halo_range(0, -1), (std::pair<i64, i64>{0, -1}));  // empty
  EXPECT_EQ(h.halo_range(0, 1), (std::pair<i64, i64>{8, 9}));
  EXPECT_EQ(h.halo_range(1, -1), (std::pair<i64, i64>{6, 7}));
  EXPECT_EQ(h.halo_range(3, 1), (std::pair<i64, i64>{0, -1}));  // empty
  EXPECT_TRUE(h.in_halo(1, {6}));
  EXPECT_FALSE(h.in_halo(1, {5}));
  EXPECT_TRUE(h.in_halo(0, {9}));
  EXPECT_FALSE(h.in_halo(0, {10}));

  // Dense halo rows: the left range, then the right one.
  EXPECT_EQ(h.halo_capacity(0), 2);
  EXPECT_EQ(h.halo_capacity(1), 4);
  EXPECT_EQ(block.halo_capacity(1), 0);
  EXPECT_EQ(h.halo_slot(0, 8), 0);
  EXPECT_EQ(h.halo_slot(0, 9), 1);
  EXPECT_EQ(h.halo_slot(0, 7), -1);  // rank 0's own element
  EXPECT_EQ(h.halo_slot(1, 6), 0);
  EXPECT_EQ(h.halo_slot(1, 7), 1);
  EXPECT_EQ(h.halo_slot(1, 16), 2);
  EXPECT_EQ(h.halo_slot(1, 17), 3);
  EXPECT_EQ(h.halo_slot(1, 18), -1);
}

// ---- Barrier elision (footnote 1) ------------------------------------

TEST(BarrierElision, AlignedChainDropsBarriers) {
  // B[i] := A[i]; C[i] := B[i]; all block-aligned: every dependence is
  // processor-local, so both inter-clause barriers can go.
  Program p;
  p.procs = 4;
  for (const char* name : {"A", "B", "C"})
    p.arrays.emplace(name, ArrayDesc::distributed(
                               name, {0}, {31},
                               DecompND({Decomp1D::block(32, 4)})));
  auto copy_clause = [](const char* dst, const char* src) {
    prog::Clause c;
    c.loops = {{"i", 0, 31}};
    c.lhs_array = dst;
    c.lhs_subs = {{0, fn::var()}};
    c.refs.push_back({src, {{0, fn::var()}}});
    c.rhs = prog::mul(prog::ref(0), prog::number(2.0));
    return c;
  };
  p.steps.emplace_back(copy_clause("B", "A"));
  p.steps.emplace_back(copy_clause("C", "B"));
  p.steps.emplace_back(copy_clause("A", "C"));

  SharedMachine plain(p);
  plain.load("A", iota(32));
  plain.run();
  EXPECT_EQ(plain.stats().barriers, 3);
  EXPECT_EQ(plain.stats().barriers_elided, 0);

  SharedMachine elided(p, {}, {}, /*elide_barriers=*/true);
  elided.load("A", iota(32));
  elided.run();
  EXPECT_EQ(elided.stats().barriers, 1);  // only the final one
  EXPECT_EQ(elided.stats().barriers_elided, 2);
  EXPECT_EQ(elided.result("A"), plain.result("A"));
  EXPECT_LT(elided.stats().sim_time, plain.stats().sim_time);
}

TEST(BarrierElision, CrossProcessorFlowKeepsTheBarrier) {
  // B[i] := A[i]; C[i] := B[i+1]: the shifted read crosses block
  // boundaries, so the barrier between the clauses must stay.
  Program p;
  p.procs = 4;
  for (const char* name : {"A", "B", "C"})
    p.arrays.emplace(name, ArrayDesc::distributed(
                               name, {0}, {31},
                               DecompND({Decomp1D::block(32, 4)})));
  prog::Clause c1;
  c1.loops = {{"i", 0, 31}};
  c1.lhs_array = "B";
  c1.lhs_subs = {{0, fn::var()}};
  c1.refs.push_back({"A", {{0, fn::var()}}});
  c1.rhs = prog::ref(0);
  prog::Clause c2;
  c2.loops = {{"i", 0, 30}};
  c2.lhs_array = "C";
  c2.lhs_subs = {{0, fn::var()}};
  c2.refs.push_back({"B", {{0, fn::add(fn::var(), fn::cnst(1))}}});
  c2.rhs = prog::ref(0);
  p.steps.emplace_back(c1);
  p.steps.emplace_back(c2);

  SharedMachine m(p, {}, {}, /*elide_barriers=*/true);
  m.load("A", iota(32));
  m.run();
  EXPECT_EQ(m.stats().barriers, 2);
  EXPECT_EQ(m.stats().barriers_elided, 0);
}

TEST(BarrierElision, MismatchedLayoutsKeepTheBarrier) {
  // Identical subscripts but different decompositions: writer and reader
  // of the same element sit on different processors.
  Program p;
  p.procs = 4;
  p.arrays.emplace("A", ArrayDesc::distributed(
                            "A", {0}, {31},
                            DecompND({Decomp1D::block(32, 4)})));
  p.arrays.emplace("B", ArrayDesc::distributed(
                            "B", {0}, {31},
                            DecompND({Decomp1D::scatter(32, 4)})));
  p.arrays.emplace("C", ArrayDesc::distributed(
                            "C", {0}, {31},
                            DecompND({Decomp1D::block(32, 4)})));
  prog::Clause c1;
  c1.loops = {{"i", 0, 31}};
  c1.lhs_array = "B";
  c1.lhs_subs = {{0, fn::var()}};
  c1.refs.push_back({"A", {{0, fn::var()}}});
  c1.rhs = prog::ref(0);
  prog::Clause c2 = c1;
  c2.lhs_array = "C";
  c2.refs[0].array = "B";
  p.steps.emplace_back(c1);
  p.steps.emplace_back(c2);

  SharedMachine m(p, {}, {}, /*elide_barriers=*/true);
  m.load("A", iota(32));
  m.run();
  EXPECT_EQ(m.stats().barriers, 2);
  EXPECT_EQ(m.stats().barriers_elided, 0);
}

TEST(BarrierElision, IndependentClausesElide) {
  // Disjoint arrays: no dependence at all.
  Program p;
  p.procs = 4;
  for (const char* name : {"A", "B", "C", "D"})
    p.arrays.emplace(name, ArrayDesc::distributed(
                               name, {0}, {31},
                               DecompND({Decomp1D::scatter(32, 4)})));
  auto clause = [](const char* dst, const char* src) {
    prog::Clause c;
    c.loops = {{"i", 0, 31}};
    c.lhs_array = dst;
    c.lhs_subs = {{0, fn::var()}};
    c.refs.push_back({src, {{0, fn::var()}}});
    c.rhs = prog::ref(0);
    return c;
  };
  p.steps.emplace_back(clause("B", "A"));
  p.steps.emplace_back(clause("D", "C"));
  SharedMachine m(p, {}, {}, /*elide_barriers=*/true);
  m.run();
  EXPECT_EQ(m.stats().barriers, 1);
  EXPECT_EQ(m.stats().barriers_elided, 1);
}

TEST(CostModel, RankTimeComposition) {
  // Aggregated model: elements ride at per_value; latency is paid once
  // per bulk message carrying them.
  CostModel cm;
  RankCounters c;
  c.sends = 2;
  c.receives = 1;
  c.bulk_sends = 1;
  c.bulk_receives = 1;
  c.iterations = 10;
  c.tests = 4;
  EXPECT_DOUBLE_EQ(c.time(cm), 3 * cm.per_value +
                                   2 * cm.per_bulk_message +
                                   10 * cm.per_iteration +
                                   4 * cm.per_test);
}

TEST(CostModel, AggregationBeatsPerElementMessaging) {
  // The model can show the win: 100 elements in one bulk message cost
  // far less than 100 one-element messages.
  CostModel cm;
  EXPECT_LT(cm.bulk_cost(1, 100), cm.message_cost(100));
}

// ---- Fast-path execution engine --------------------------------------

namespace {

void expect_same_counters(const RankCounters& a, const RankCounters& b,
                          const std::string& where) {
  EXPECT_EQ(a.sends, b.sends) << where;
  EXPECT_EQ(a.receives, b.receives) << where;
  EXPECT_EQ(a.iterations, b.iterations) << where;
  EXPECT_EQ(a.tests, b.tests) << where;
  EXPECT_EQ(a.local_reads, b.local_reads) << where;
  EXPECT_EQ(a.remote_reads, b.remote_reads) << where;
  EXPECT_EQ(a.bulk_sends, b.bulk_sends) << where;
  EXPECT_EQ(a.bulk_receives, b.bulk_receives) << where;
  EXPECT_EQ(a.halo_bulk, b.halo_bulk) << where;
  EXPECT_EQ(a.halo_values, b.halo_values) << where;
  EXPECT_EQ(a.halo_reads, b.halo_reads) << where;
}

void expect_same_stats(const DistStats& a, const DistStats& b,
                       const std::string& where) {
  EXPECT_EQ(a.messages, b.messages) << where;
  EXPECT_EQ(a.bulk_messages, b.bulk_messages) << where;
  EXPECT_EQ(a.redist_messages, b.redist_messages) << where;
  EXPECT_EQ(a.local_reads, b.local_reads) << where;
  EXPECT_EQ(a.remote_reads, b.remote_reads) << where;
  EXPECT_EQ(a.iterations, b.iterations) << where;
  EXPECT_EQ(a.tests, b.tests) << where;
  EXPECT_EQ(a.halo_messages, b.halo_messages) << where;
  EXPECT_EQ(a.halo_values, b.halo_values) << where;
  EXPECT_EQ(a.halo_reads, b.halo_reads) << where;
  EXPECT_EQ(a.steps, b.steps) << where;
  EXPECT_DOUBLE_EQ(a.sim_time, b.sim_time) << where;
}

}  // namespace

TEST(Engine, ThreadPoolSizeDoesNotChangeObservables) {
  // DESIGN.md §5 invariant 4, strengthened: not just results but every
  // deterministic statistic must be bit-identical between the serial
  // engine and a pool of N lanes, over the full example matrix.
  for (i64 procs : {1, 2, 3, 4, 7}) {
    for (auto ka : {Decomp1D::Kind::Block, Decomp1D::Kind::Scatter,
                    Decomp1D::Kind::BlockScatter}) {
      for (auto kb : {Decomp1D::Kind::Block, Decomp1D::Kind::Scatter,
                      Decomp1D::Kind::BlockScatter}) {
        Program p = shift_program(29, procs, ka, kb);
        std::vector<double> in = iota(29, 3.0);

        EngineOptions serial;
        serial.threads = 1;
        DistMachine one(p, {}, {}, serial);
        one.load("B", in);
        one.run();

        EngineOptions pooled;
        pooled.threads = 4;
        DistMachine many(p, {}, {}, pooled);
        many.load("B", in);
        many.run();

        std::string where = cat("procs=", procs, " ka=", (int)ka,
                                " kb=", (int)kb);
        EXPECT_EQ(many.gather("A"), one.gather("A")) << where;
        expect_same_stats(many.stats(), one.stats(), where);
        EXPECT_EQ(many.message_matrix(), one.message_matrix()) << where;
        ASSERT_EQ(many.last_step_counters().size(),
                  one.last_step_counters().size());
        for (std::size_t r = 0; r < one.last_step_counters().size(); ++r)
          expect_same_counters(many.last_step_counters()[r],
                               one.last_step_counters()[r],
                               cat(where, " rank=", r));
      }
    }
  }
}

TEST(Engine, PlanCacheSurvivesRepeatsAndInvalidatesOnRedistribute) {
  // clause; clause again; redistribute B; same clause again — the new
  // layout of B must get a plan of its own while the identical
  // pre-redistribution repeat hits. The block plan would misroute every
  // send after the redistribute.
  Program p = shift_program(32, 4, Decomp1D::Kind::Block,
                            Decomp1D::Kind::Block);
  prog::Clause c = std::get<prog::Clause>(p.steps[0]);
  p.steps.emplace_back(c);  // repeat: cache hit
  p.steps.emplace_back(RedistStep{
      "B", ArrayDesc::distributed("B", {0}, {31},
                                  DecompND({Decomp1D::scatter(32, 4)}))});
  p.steps.emplace_back(c);

  SeqExecutor seq(p, /*reference=*/true);
  seq.load("B", iota(32));
  seq.run();
  DistMachine dist(p);
  dist.load("B", iota(32));
  dist.run();
  EXPECT_EQ(dist.gather("A"), seq.result("A"));
  EXPECT_EQ(dist.gather("B"), seq.result("B"));

  // Block/block: only A[7], A[15], A[23] read across a rank boundary (3
  // messages per clause). The redistribute moves the 24 elements whose
  // block and scatter owners differ. Block A against scatter B then
  // leaves 8 of the 31 reads local (i+1 ≡ i div 8 mod 4): 23 messages.
  EXPECT_EQ(dist.stats().remote_reads, 3 + 3 + 23);
  EXPECT_EQ(dist.stats().redist_messages, 24);
  EXPECT_EQ(dist.stats().messages, 3 + 3 + 24 + 23);
  EXPECT_EQ(dist.stats().steps, 4);

  EXPECT_EQ(dist.plan_cache().misses(), 2);  // one per layout of B
  EXPECT_EQ(dist.plan_cache().hits(), 1);    // the repeat
  EXPECT_EQ(dist.plan_cache().layouts(), 3);  // A, B block, B scatter
}

TEST(Engine, BulkMessagesBoundedByRankPairs) {
  // Aggregation collapses per-element sends: however large n is, one
  // clause step moves at most P*(P-1) bulk messages, while the element
  // count (messages) still equals every remote read.
  const i64 n = 512, procs = 4;
  Program p = shift_program(n, procs, Decomp1D::Kind::Block,
                            Decomp1D::Kind::Scatter);
  DistMachine dist(p);
  dist.load("B", iota(n));
  dist.run();
  EXPECT_GT(dist.stats().messages, procs * (procs - 1));  // n-ish, large
  EXPECT_LE(dist.stats().bulk_messages, procs * (procs - 1));
  EXPECT_GT(dist.stats().bulk_messages, 0);
  EXPECT_EQ(dist.stats().messages, dist.stats().remote_reads);

  // Per-rank composition: every rank's element sends ride in at most
  // P-1 bulk messages.
  for (const RankCounters& c : dist.last_step_counters()) {
    EXPECT_LE(c.bulk_sends, procs - 1);
    EXPECT_LE(c.bulk_receives, procs - 1);
    EXPECT_EQ(c.sends > 0, c.bulk_sends > 0);
  }
}

TEST(Engine, SharedMachineMatchesAcrossPoolSizes) {
  Program p = shift_program(29, 4, Decomp1D::Kind::Scatter,
                            Decomp1D::Kind::Block);
  std::vector<double> in = iota(29, 3.0);

  EngineOptions serial;
  serial.threads = 1;
  SharedMachine one(p, {}, {}, false, serial);
  one.load("B", in);
  one.run();

  EngineOptions pooled;
  pooled.threads = 4;
  SharedMachine many(p, {}, {}, false, pooled);
  many.load("B", in);
  many.run();

  EXPECT_EQ(many.result("A"), one.result("A"));
  EXPECT_EQ(many.stats().iterations, one.stats().iterations);
  EXPECT_EQ(many.stats().tests, one.stats().tests);
  EXPECT_EQ(many.stats().barriers, one.stats().barriers);
  EXPECT_DOUBLE_EQ(many.stats().sim_time, one.stats().sim_time);
}

TEST(Engine, FullOptionMatrixIsBitIdentical) {
  // Regression net over the engine-option space: threads in {serial,
  // shared pool, 4 lanes} x {scheduled, tagged reference} must agree
  // with the serial baseline on results, statistics, and the message
  // matrix — on both a plain communicating clause and a
  // redistribute-mid-program sequence that moves clauses to another
  // layout's plan.
  auto scenarios = [] {
    std::vector<Program> ps;
    ps.push_back(shift_program(29, 4, Decomp1D::Kind::Block,
                               Decomp1D::Kind::Scatter));
    Program redist = shift_program(32, 4, Decomp1D::Kind::Block,
                                   Decomp1D::Kind::Block);
    prog::Clause c = std::get<prog::Clause>(redist.steps[0]);
    redist.steps.emplace_back(RedistStep{
        "B", ArrayDesc::distributed(
                 "B", {0}, {31}, DecompND({Decomp1D::scatter(32, 4)}))});
    redist.steps.emplace_back(c);
    ps.push_back(std::move(redist));
    return ps;
  }();

  for (std::size_t s = 0; s < scenarios.size(); ++s) {
    const Program& p = scenarios[s];
    i64 n = p.arrays.at("B").total();

    EngineOptions serial;
    serial.threads = 1;
    DistMachine base(p, {}, {}, serial);
    base.load("B", iota(n));
    base.run();

    for (int threads : {0, 1, 4}) {
      for (bool tagged : {false, true}) {
        EngineOptions e;
        e.threads = threads;
        DistMachine m(p, {}, {}, e);
        m.load("B", iota(n));
        if (tagged)
          for (const FaultPlan& f : reorder_every_step(p)) m.inject(f);
        m.run();
        std::string where =
            cat("scenario=", s, " threads=", threads, " tagged=", tagged);
        EXPECT_EQ(m.gather("A"), base.gather("A")) << where;
        EXPECT_EQ(m.gather("B"), base.gather("B")) << where;
        expect_same_stats(m.stats(), base.stats(), where);
        EXPECT_EQ(m.message_matrix(), base.message_matrix()) << where;
      }
    }
  }
}

TEST(Engine, RedistributionTrafficAccountedSeparately) {
  // Element moves performed by a redistribution count as messages but
  // not as remote reads; the conservation identity the oracle enforces
  // is messages == remote_reads + redist_messages.
  Program p = shift_program(32, 4, Decomp1D::Kind::Block,
                            Decomp1D::Kind::Scatter);
  p.steps.emplace_back(RedistStep{
      "B", ArrayDesc::distributed(
               "B", {0}, {31}, DecompND({Decomp1D::block(32, 4)}))});
  DistMachine dist(p);
  dist.load("B", iota(32));
  dist.run();
  EXPECT_GT(dist.stats().redist_messages, 0);
  EXPECT_EQ(dist.stats().messages,
            dist.stats().remote_reads + dist.stats().redist_messages);
}

TEST(Engine, PooledEngineStillRejectsSequentialClauses) {
  // Errors raised inside pooled rank loops (or before them) must reach
  // the caller exactly as the serial engine's would.
  Program p = shift_program(16, 2, Decomp1D::Kind::Block,
                            Decomp1D::Kind::Block);
  std::get<prog::Clause>(p.steps[0]).ord = prog::Ordering::Seq;
  EngineOptions pooled;
  pooled.threads = 4;
  DistMachine dist(p, {}, {}, pooled);
  EXPECT_THROW(dist.run(), CodegenError);
}

// ---- Closed-form layout maps against their per-element references ----

// Every distributed layout kind over awkward 1-D shapes: ragged last
// blocks (13 over 4), idle ranks (5 over 4: block leaves rank 3 empty,
// blockscatter(3) ranks 2 and 3), and nonzero bases. Each inner vector
// shares one index space, so any two of its layouts redistribute.
std::vector<std::vector<ArrayDesc>> layout_groups() {
  std::vector<std::vector<ArrayDesc>> groups;
  for (auto [lo, n] : {std::pair<i64, i64>{3, 13}, {-2, 5}, {0, 16}}) {
    auto mk = [&, lo = lo, n = n](Decomp1D d) {
      return ArrayDesc::distributed("A", {lo}, {lo + n - 1}, DecompND({d}));
    };
    groups.push_back({mk(Decomp1D::block(n, 4)), mk(Decomp1D::scatter(n, 4)),
                      mk(Decomp1D::block_scatter(n, 4, 3)),
                      mk(Decomp1D::block_scatter(n, 4, 2))});
  }
  // 2-D, 7 x 9 on a 2 x 2 grid or with one undistributed dimension.
  auto mk2 = [](Decomp1D d0, Decomp1D d1) {
    return ArrayDesc::distributed("M", {-1, 2}, {5, 10}, DecompND({d0, d1}));
  };
  groups.push_back(
      {mk2(Decomp1D::block(7, 2), Decomp1D::scatter(9, 2)),
       mk2(Decomp1D::scatter(7, 2), Decomp1D::block(9, 2)),
       mk2(Decomp1D::block_scatter(7, 2, 2), Decomp1D::block(9, 2)),
       mk2(Decomp1D::block(7, 4), Decomp1D::block(9, 1)),
       mk2(Decomp1D::block(7, 1), Decomp1D::block_scatter(9, 4, 2))});
  return groups;
}

// locate against the per-dimension reference: Decomp1D::proc/local
// folded through the processor grid and the owner's local shape
// (DecompND::owner/local_linear), and the dense image for replicated
// arrays. owner() and local_linear() are locate's two halves.
TEST(ArrayDesc, LocateMatchesOwnerAndLocalLinear) {
  std::vector<ArrayDesc> all = {
      ArrayDesc::replicated("R", {3}, {15}, 4),
      ArrayDesc::replicated("R", {-1, 2}, {5, 10}, 4)};
  for (const auto& group : layout_groups())
    all.insert(all.end(), group.begin(), group.end());
  for (const ArrayDesc& a : all)
    decomp::for_each_index(a, [&](const std::vector<i64>& idx) {
      const decomp::Location at = a.locate(idx);
      i64 owner = 0, local = a.dense_linear(idx);
      if (!a.is_replicated()) {
        std::vector<i64> norm = idx;
        for (int d = 0; d < a.ndims(); ++d)
          norm[static_cast<std::size_t>(d)] -= a.lo(d);
        owner = a.decomp().owner(norm);
        local = a.decomp().local_linear(norm);
      }
      EXPECT_EQ(at.owner, owner) << a.str();
      EXPECT_EQ(at.local, local) << a.str();
      EXPECT_EQ(a.owner(idx), owner) << a.str();
      EXPECT_EQ(a.local_linear(idx), local) << a.str();
    });
}

// Decomp1D cursors stepped from every index of every dimension, along
// strides of both signs up to beyond a whole cycle (b*P), against locate
// at each index they reach. The layouts include idle ranks (5 elements
// as block or blockscatter(3) over 4) and arrays whose first index is
// not 0, whose program-level starts are normalized as the inspector
// normalizes them.
TEST(Decomp1D, CursorSteppingMatchesLocate) {
  std::vector<ArrayDesc> all;
  for (const auto& group : layout_groups())
    all.insert(all.end(), group.begin(), group.end());
  all.push_back(ArrayDesc::distributed("R", {4}, {10},
                                       DecompND({Decomp1D::replicated(7, 1)})));
  for (const ArrayDesc& a : all)
    for (int d = 0; d < a.ndims(); ++d) {
      const Decomp1D& dim = a.decomp().dim(d);
      const i64 b = dim.block_size(), cycle = b * dim.procs();
      for (i64 s : {i64{1}, i64{-1}, i64{2}, i64{-3}, b, -b - 1, cycle, -cycle,
                    cycle + 1, -cycle - 2, 2 * cycle + 3}) {
        const decomp::Step step = dim.step(s);
        for (i64 g = a.lo(d); g <= a.hi(d); ++g) {
          decomp::Cursor c = dim.cursor(g - a.lo(d));
          for (i64 i = g - a.lo(d); in_range(i, 0, dim.n() - 1); i += s) {
            const decomp::Location l = dim.locate(i);
            ASSERT_EQ(c.owner, l.owner)
                << a.str() << " dim " << d << " from " << g << " by " << s;
            ASSERT_EQ(c.local, l.local)
                << a.str() << " dim " << d << " from " << g << " by " << s;
            ASSERT_EQ(c.offset, i % b) << a.str();
            c.advance(step);
          }
        }
      }
    }
}

TEST(LocalRuns, ClosedFormOffsetsMatchDecompGlobal) {
  for (const auto& group : layout_groups())
    for (const ArrayDesc& a : group)
      for (i64 p = 0; p < a.procs(); ++p) {
        // Runs cover every local slot once, in slot order.
        std::vector<i64> dense;
        for_each_local_run(a, p, [&](i64 local, i64 at, i64 len) {
          EXPECT_EQ(local, static_cast<i64>(dense.size())) << a.str();
          for (i64 k = 0; k < len; ++k) dense.push_back(at + k);
        });
        ASSERT_EQ(static_cast<i64>(dense.size()), a.local_capacity(p));
        // global_from_local maps each slot through Decomp1D::global.
        for (i64 l = 0; l < a.local_capacity(p); ++l)
          EXPECT_EQ(dense[static_cast<std::size_t>(l)],
                    a.dense_linear(a.global_from_local(p, l)))
              << a.str() << " rank " << p << " slot " << l;
      }
}

std::string counters_str(const RankCounters& c) {
  return cat(c.sends, ",", c.receives, ",", c.iterations, ",", c.tests, ",",
             c.local_reads, ",", c.remote_reads, ",", c.bulk_sends, ",",
             c.bulk_receives, ",", c.halo_bulk, ",", c.halo_values, ",",
             c.halo_reads);
}

// What decomp::plan_redistribution, the per-element reference, says a
// redistribution from `from` to `to` charges: per-rank counters, the
// message matrix and the message count.
struct PlannedMove {
  std::vector<std::string> counters;
  std::vector<std::vector<i64>> matrix;
  i64 messages = 0;
};

PlannedMove plan_move(const ArrayDesc& from, const ArrayDesc& to) {
  const i64 procs = from.procs();
  const auto up = static_cast<std::size_t>(procs);
  const decomp::RedistPlan plan = decomp::plan_redistribution(from, to);
  std::vector<RankCounters> c(up);
  PlannedMove out;
  out.matrix.assign(up, std::vector<i64>(up, 0));
  decomp::for_each_index(from, [&](const std::vector<i64>& idx) {
    ++c[static_cast<std::size_t>(from.owner(idx))].iterations;
  });
  for (const decomp::Move& m : plan.moves) {
    ++c[static_cast<std::size_t>(m.src_rank)].sends;
    ++c[static_cast<std::size_t>(m.dst_rank)].receives;
    ++out.matrix[static_cast<std::size_t>(m.src_rank)]
                [static_cast<std::size_t>(m.dst_rank)];
  }
  for (std::size_t s = 0; s < up; ++s)
    for (std::size_t d = 0; d < up; ++d)
      if (out.matrix[s][d] > 0) {
        ++c[s].bulk_sends;
        ++c[d].bulk_receives;
      }
  for (const RankCounters& rc : c) out.counters.push_back(counters_str(rc));
  out.messages = plan.total_messages();
  return out;
}

// The rank-local mover on plain rows: every element lands at the local
// slot the target layout's owner()/local_linear() name, and the
// counters, matrix rows and message count agree with the plan.
TEST(Redistribution, MoverMatchesReferencePlan) {
  for (const auto& group : layout_groups())
    for (const ArrayDesc& from : group)
      for (const ArrayDesc& to : group) {
        SCOPED_TRACE(from.str() + " -> " + to.str());
        const i64 procs = from.procs();
        const auto up = static_cast<std::size_t>(procs);
        std::vector<std::vector<double>> old_rows(up), want(up), fresh(up);
        for (i64 p = 0; p < procs; ++p) {
          old_rows[static_cast<std::size_t>(p)].assign(
              static_cast<std::size_t>(from.local_capacity(p)), -1.0);
          want[static_cast<std::size_t>(p)].assign(
              static_cast<std::size_t>(to.local_capacity(p)), 0.0);
        }
        decomp::for_each_index(from, [&](const std::vector<i64>& idx) {
          const auto v = static_cast<double>(from.dense_linear(idx));
          old_rows[static_cast<std::size_t>(from.owner(idx))]
                  [static_cast<std::size_t>(from.local_linear(idx))] = v;
          want[static_cast<std::size_t>(to.owner(idx))]
              [static_cast<std::size_t>(to.local_linear(idx))] = v;
        });
        std::vector<std::vector<double>> bufs(up * up);
        std::vector<RankCounters> got(up);
        std::vector<std::vector<i64>> matrix(up, std::vector<i64>(up, 0));
        for (i64 p = 0; p < procs; ++p) {
          const auto u = static_cast<std::size_t>(p);
          redist_pack_rank(from, to, RankSite{p}, old_rows[u], fresh[u],
                           bufs.data() + p * procs, got[u],
                           matrix[u].data());
        }
        for (i64 p = 0; p < procs; ++p) {
          const auto u = static_cast<std::size_t>(p);
          redist_unpack_rank(from, to, RankSite{p}, bufs.data() + p, procs,
                             fresh[u], got[u]);
        }
        const PlannedMove planned = plan_move(from, to);
        EXPECT_EQ(fresh, want);
        for (std::size_t p = 0; p < up; ++p)
          EXPECT_EQ(counters_str(got[p]), planned.counters[p])
              << "rank " << p;
        EXPECT_EQ(matrix, planned.matrix);
        EXPECT_EQ(redist_moves(from, to), planned.messages);
      }
}

// The same pairs through DistMachine's pool at one and four threads.
TEST(DistMachine, RedistributionMatchesReferencePlanOnEveryLayoutPair) {
  for (const auto& group : layout_groups())
    for (const ArrayDesc& from : group)
      for (const ArrayDesc& to : group) {
        SCOPED_TRACE(from.str() + " -> " + to.str());
        Program p;
        p.procs = from.procs();
        p.arrays.emplace(from.name(), from);
        p.steps.emplace_back(RedistStep{from.name(), to});
        const PlannedMove planned = plan_move(from, to);
        const std::vector<double> input = iota(from.total(), 0.5);
        for (int threads : {1, 4}) {
          EngineOptions e;
          e.threads = threads;
          DistMachine m(p, {}, {}, e);
          m.load(from.name(), input);
          m.run();
          EXPECT_EQ(m.gather(from.name()), input) << threads;
          std::vector<std::string> got;
          for (const RankCounters& c : m.last_step_counters())
            got.push_back(counters_str(c));
          EXPECT_EQ(got, planned.counters) << threads;
          EXPECT_EQ(m.message_matrix(), planned.matrix) << threads;
          EXPECT_EQ(m.stats().redist_messages, planned.messages) << threads;
        }
      }
}

}  // namespace
}  // namespace vcal::rt
