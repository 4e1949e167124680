// Tests for lang/: lexer, parser, sema, and translation to clauses.
#include <gtest/gtest.h>

#include "fn/classify.hpp"
#include "lang/lexer.hpp"
#include "lang/parser.hpp"
#include "lang/sema.hpp"
#include "lang/translate.hpp"
#include "rt/dist_machine.hpp"
#include "rt/seq_executor.hpp"
#include "support/error.hpp"
#include "support/format.hpp"

namespace vcal::lang {
namespace {

TEST(Lexer, TokenStream) {
  auto toks = lex("forall i in 0:9 | A[i] > 0 do A[i] := B[i+1]; od");
  std::vector<Tok> kinds;
  for (const Token& t : toks) kinds.push_back(t.kind);
  std::vector<Tok> expect = {
      Tok::KwForall, Tok::Ident, Tok::KwIn, Tok::Int, Tok::Colon, Tok::Int,
      Tok::Bar, Tok::Ident, Tok::LBracket, Tok::Ident, Tok::RBracket,
      Tok::Gt, Tok::Int, Tok::KwDo, Tok::Ident, Tok::LBracket, Tok::Ident,
      Tok::RBracket, Tok::Assign, Tok::Ident, Tok::LBracket, Tok::Ident,
      Tok::Plus, Tok::Int, Tok::RBracket, Tok::Semicolon, Tok::KwOd,
      Tok::End};
  EXPECT_EQ(kinds, expect);
}

TEST(Lexer, NumbersCommentsPositions) {
  auto toks = lex("# comment line\n12 3.5 x\n<= <> :=");
  EXPECT_EQ(toks[0].kind, Tok::Int);
  EXPECT_EQ(toks[0].int_value, 12);
  EXPECT_EQ(toks[0].line, 2);
  EXPECT_EQ(toks[1].kind, Tok::Real);
  EXPECT_DOUBLE_EQ(toks[1].real_value, 3.5);
  EXPECT_EQ(toks[2].kind, Tok::Ident);
  EXPECT_EQ(toks[3].kind, Tok::Le);
  EXPECT_EQ(toks[4].kind, Tok::Ne);
  EXPECT_EQ(toks[5].kind, Tok::Assign);
  EXPECT_EQ(toks[3].line, 3);
}

TEST(Lexer, RejectsUnknownCharacters) {
  try {
    lex("a @ b");
    FAIL();
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 1);
    EXPECT_EQ(e.col(), 3);
  }
}

TEST(Parser, DeclarationsAndLoop) {
  AProgram p = parse(R"(
    processors 4;
    array A[0:99];
    array B[0:99, -1:8];
    distribute A block;
    distribute B (scatter, *);
    forall i in 0:98 do
      A[i] := B[i+1, 0]*2 + 1;
    od
  )");
  EXPECT_EQ(p.procs, 4);
  ASSERT_EQ(p.arrays.size(), 2u);
  EXPECT_EQ(p.arrays[1].bounds.size(), 2u);
  ASSERT_EQ(p.distributes.size(), 2u);
  EXPECT_EQ(p.distributes[1].spec.dims[0].kind, ADistDim::Kind::Scatter);
  EXPECT_EQ(p.distributes[1].spec.dims[1].kind, ADistDim::Kind::Star);
  ASSERT_EQ(p.stmts.size(), 1u);
  const ALoop& loop = std::get<ALoop>(p.stmts[0]);
  EXPECT_TRUE(loop.parallel);
  EXPECT_EQ(loop.body.size(), 1u);
  EXPECT_EQ(to_string(loop.body[0].value), "B[i + 1, 0]*2 + 1");
}

TEST(Parser, GuardForBlockscatterRedistribute) {
  AProgram p = parse(R"(
    processors 2;
    array A[0:9];
    distribute A blockscatter(3);
    for i in 1:9 | A[i] > 0 do A[i] := A[i-1]; od
    redistribute A scatter;
  )");
  EXPECT_EQ(p.distributes[0].spec.dims[0].kind,
            ADistDim::Kind::BlockScatter);
  EXPECT_EQ(p.distributes[0].spec.dims[0].block, 3);
  const ALoop& loop = std::get<ALoop>(p.stmts[0]);
  EXPECT_FALSE(loop.parallel);
  ASSERT_TRUE(loop.guard.has_value());
  EXPECT_EQ(loop.guard->cmp, prog::Guard::Cmp::GT);
  EXPECT_TRUE(std::holds_alternative<ARedistribute>(p.stmts[1]));
}

TEST(Parser, ReportsPositions) {
  try {
    parse("array A[0:9]\narray B[0:9];");  // missing ';'
    FAIL();
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 2);
  }
  EXPECT_THROW(parse("forall i in 0:9 do od"), ParseError);  // empty body
  EXPECT_THROW(parse("distribute A banana;"), ParseError);
}

TEST(Sema, ConstantFolding) {
  AProgram p = parse("array A[2*3 : 10+5];");
  auto table = analyze_decls(p);
  const auto& a = table.at("A");
  EXPECT_EQ(a.lo(0), 6);
  EXPECT_EQ(a.hi(0), 15);
}

TEST(Sema, DefaultIsReplicated) {
  AProgram p = parse("processors 4; array A[0:9];");
  auto table = analyze_decls(p);
  EXPECT_TRUE(table.at("A").is_replicated());
  EXPECT_EQ(table.at("A").procs(), 4);
}

TEST(Sema, TwoDimensionalGridFactorization) {
  AProgram p = parse(R"(
    processors 8;
    array M[0:15, 0:15];
    distribute M (block, scatter);
  )");
  auto table = analyze_decls(p);
  const auto& g = table.at("M").decomp().grid();
  EXPECT_EQ(g.size(), 8);
  EXPECT_EQ(g.extent(0), 4);
  EXPECT_EQ(g.extent(1), 2);
}

TEST(Sema, OverlapSpec) {
  AProgram p = parse(R"(
    processors 4;
    array U[0:63];
    distribute U block overlap(2);
  )");
  auto table = analyze_decls(p);
  EXPECT_EQ(table.at("U").halo(), 2);
  // Overlap demands 1-D block.
  EXPECT_THROW(analyze_decls(parse(R"(
    processors 4;
    array U[0:63];
    distribute U scatter overlap(2);
  )")),
               SemanticError);
}

TEST(Sema, Rejections) {
  EXPECT_THROW(analyze_decls(parse("array A[9:0];")), SemanticError);
  EXPECT_THROW(analyze_decls(parse("array A[0:9]; array A[0:9];")),
               SemanticError);
  EXPECT_THROW(analyze_decls(parse("distribute A block;")), SemanticError);
  EXPECT_THROW(
      analyze_decls(parse("array A[0:9]; distribute A (block, block);")),
      SemanticError);
  EXPECT_THROW(analyze_decls(parse(
                   "processors 4; array A[0:9]; distribute A *;")),
               SemanticError);
}

TEST(Sema, ThreeDimensionalGrid) {
  auto table = analyze_decls(parse(R"(
    processors 12;
    array M[0:7, 0:7, 0:7];
    distribute M (block, scatter, block);
  )"));
  const auto& g = table.at("M").decomp().grid();
  EXPECT_EQ(g.size(), 12);
  // Balanced factorization, extents non-increasing: 3x2x2.
  EXPECT_EQ(g.extent(0), 3);
  EXPECT_EQ(g.extent(1), 2);
  EXPECT_EQ(g.extent(2), 2);
}

TEST(Translate, Figure1Program) {
  spmd::Program p = compile(R"(
    processors 4;
    array A[0:9];
    array B[0:9];
    distribute A block;
    distribute B block;
    forall i in 1:9 | A[i] > 0 do
      A[i] := B[i-1];
    od
  )");
  ASSERT_EQ(p.steps.size(), 1u);
  const prog::Clause& c = std::get<prog::Clause>(p.steps[0]);
  EXPECT_EQ(c.lhs_array, "A");
  ASSERT_TRUE(c.guard.has_value());
  ASSERT_EQ(c.refs.size(), 2u);  // B[i-1] and the guard's A[i]
  EXPECT_EQ(c.ord, prog::Ordering::Par);
  EXPECT_TRUE(contains(c.str(), "A[i] > 0"));
}

TEST(Translate, DeduplicatesIdenticalReads) {
  spmd::Program p = compile(R"(
    array A[0:9];
    array B[0:9];
    forall i in 0:9 do A[i] := B[i]*B[i] + B[i]; od
  )");
  const prog::Clause& c = std::get<prog::Clause>(p.steps[0]);
  EXPECT_EQ(c.refs.size(), 1u);
}

TEST(Translate, LoopVariableAsValue) {
  spmd::Program p = compile(R"(
    array A[0:9];
    forall i in 0:9 do A[i] := i*2; od
  )");
  rt::SeqExecutor seq(p);
  seq.run();
  for (i64 i = 0; i < 10; ++i)
    EXPECT_DOUBLE_EQ(seq.result("A")[static_cast<std::size_t>(i)],
                     2.0 * static_cast<double>(i));
}

TEST(Translate, BareAssignmentBecomesDegenerateClause) {
  spmd::Program p = compile("array A[0:9]; A[3] := 7;");
  const prog::Clause& c = std::get<prog::Clause>(p.steps[0]);
  EXPECT_EQ(c.loops.size(), 1u);
  EXPECT_EQ(c.lhs_subs[0].loop_index, -1);
  rt::SeqExecutor seq(p);
  seq.run();
  EXPECT_DOUBLE_EQ(seq.result("A")[3], 7.0);
}

TEST(Translate, MultipleAssignsShareTheLoopHead) {
  spmd::Program p = compile(R"(
    array A[0:9]; array B[0:9];
    forall i in 0:9 do
      A[i] := i;
      B[i] := i + 1;
    od
  )");
  EXPECT_EQ(p.steps.size(), 2u);
}

TEST(Translate, RedistributeStatement) {
  spmd::Program p = compile(R"(
    processors 4;
    array A[0:31];
    distribute A block;
    redistribute A scatter;
  )");
  const auto& step = std::get<spmd::RedistStep>(p.steps[0]);
  EXPECT_EQ(step.array, "A");
  EXPECT_FALSE(step.new_desc.is_replicated());
}

TEST(Translate, Rejections) {
  // Mixed loop variables in one subscript.
  EXPECT_THROW(compile(R"(
    array M[0:9, 0:9];
    forall i in 0:9, j in 0:9 do M[i+j, j] := 1; od
  )"),
               SemanticError);
  // Indirect addressing.
  EXPECT_THROW(compile(R"(
    array A[0:9]; array X[0:9];
    forall i in 0:9 do A[X[i]] := 1; od
  )"),
               SemanticError);
  // Unknown variable as value.
  EXPECT_THROW(compile("array A[0:9]; forall i in 0:9 do A[i] := q; od"),
               SemanticError);
  // div on values.
  EXPECT_THROW(
      compile("array A[0:9]; forall i in 0:9 do A[i] := A[i] div 2; od"),
      SemanticError);
  // '/' in subscripts.
  EXPECT_THROW(
      compile("array A[0:9]; forall i in 0:9 do A[i/2] := 0; od"),
      SemanticError);
  // Duplicate loop variable.
  EXPECT_THROW(compile(R"(
    array A[0:9];
    forall i in 0:4, i in 0:4 do A[i] := 0; od
  )"),
               SemanticError);
  // Empty loop range.
  EXPECT_THROW(compile("array A[0:9]; forall i in 5:2 do A[i] := 0; od"),
               SemanticError);
}

TEST(Translate, SubscriptOverflowOverTheLoopRangeIsASemanticError) {
  // Each subscript overflows i64 at some loop value, in the tree or in
  // the closed form kernels evaluate; sema names the subscript, its
  // array and the range, at the subscript's position.
  for (const char* sub :
       {"(i*4611686018427387904) mod 8", "(i + 9223372036854775807) mod 8",
        "i - 9223372036854775807 - 2", "-(i - 9223372036854775807 - 1)"}) {
    std::string src = cat("array A[0:7]; array B[0:7];\n",
                          "forall i in 0:7 do A[i] := B[", sub, "]; od\n");
    try {
      compile(src);
      ADD_FAILURE() << sub << " compiled";
    } catch (const SemanticError& e) {
      std::string msg = e.what();
      EXPECT_NE(msg.find("' of B overflows i64 for i in 0:7"),
                std::string::npos)
          << msg;
      EXPECT_NE(msg.find("(at 2:"), std::string::npos) << msg;
    }
  }
  // Over 0:2 the tree 2^62*(i - 1) stays in range, but the kernel's
  // closed form 2^62*i + (-2^62) does not at i = 2.
  EXPECT_THROW(compile("array A[0:7]; array B[0:7];\nforall i in 0:2 do "
                       "A[i] := B[(4611686018427387904*(i - 1)) mod 8]; "
                       "od\n"),
               SemanticError);
  // Negating a closed form whose constant is i64 min: the tree stays in
  // range over 5:7, the coefficient negation does not.
  EXPECT_THROW(compile("array A[0:7]; array B[0:7];\nforall i in 5:7 do "
                       "A[i] := B[-(i - 9223372036854775807 - 1)]; od\n"),
               SemanticError);
  // The LHS and constant subscripts are checked too.
  EXPECT_THROW(compile("array A[0:7];\nforall i in 0:7 do "
                       "A[(i*3074457345618258603) mod 8] := 0; od\n"),
               SemanticError);
  EXPECT_THROW(compile("array A[0:7]; array B[0:7];\nforall i in 0:7 do "
                       "A[i] := B[9223372036854775807 + 1 - i]; od\n"),
               SemanticError);
  // Large values that stay in range over the loop compile: the bound
  // is the range, not the constants.
  EXPECT_NO_THROW(compile("array A[0:7]; array B[0:7];\nforall i in 0:1 do "
                          "A[i] := B[(i*4611686018427387904) mod 8]; od\n"));
  EXPECT_NO_THROW(compile("array A[0:7]; array B[0:7];\nforall i in 0:7 do "
                          "A[i] := B[(i + 9223372036854775800) mod 8]; od\n"));
}

TEST(Translate, ConstantZeroDivisorInSubscriptIsASemanticError) {
  for (const char* op : {"mod", "div"}) {
    std::string src = cat("array A[0:9]; array B[0:9];\n",
                          "forall i in 0:9 do A[i] := B[i ", op, " 0]; od\n");
    try {
      compile(src);
      ADD_FAILURE() << op << " 0 compiled";
    } catch (const SemanticError& e) {
      std::string msg = e.what();
      EXPECT_NE(msg.find(cat("'", op, "' by constant zero")),
                std::string::npos)
          << msg;
      EXPECT_NE(msg.find("(at 2:"), std::string::npos) << msg;
    }
    // A folded zero (1 - 1) is rejected the same way, on the LHS too.
    EXPECT_THROW(compile(cat("array A[0:9];\nforall i in 0:9 do A[i ", op,
                             " (1 - 1)] := 0; od\n")),
                 SemanticError)
        << op;
  }
}

TEST(Translate, ConstantSubscriptOutsideTheBoundsIsASemanticError) {
  const std::string decls =
      "processors 4; array A[0:7]; array B[0:7]; array M[1:4, 0:3];\n"
      "view R[0:7] = B[v - 9];\n"
      "distribute A block; distribute B scatter; distribute M (block, *);\n";
  struct Case {
    const char* stmt;
    const char* msg;
  };
  const Case cases[] = {
      {"forall i in 0:7 do A[i] := B[-1]; od",
       "constant subscript -1 of B dimension 0 is outside its bounds 0:7 "
       "(at 4:30)"},
      {"forall i in 0:7 do A[8] := B[i]; od",
       "constant subscript 8 of A dimension 0 is outside its bounds 0:7 "
       "(at 4:22)"},
      {"forall j in 0:3 do M[0, j] := 1; od",
       "constant subscript 0 of M dimension 0 is outside its bounds 1:4 "
       "(at 4:22)"},
      {"forall j in 0:3 do M[j + 1, 2 + 2] := 1; od",
       "constant subscript 4 of M dimension 1 is outside its bounds 0:3 "
       "(at 4:31)"},
      {"A[0] := R[3];",
       "constant subscript -6 of B dimension 0 is outside its bounds 0:7"},
  };
  for (const Case& c : cases) {
    try {
      compile(decls + c.stmt + "\n");
      ADD_FAILURE() << c.stmt << " compiled";
    } catch (const SemanticError& e) {
      EXPECT_NE(std::string(e.what()).find(c.msg), std::string::npos)
          << c.stmt << ": " << e.what();
    }
  }
  // Constants inside the bounds compile.
  EXPECT_NO_THROW(compile(decls + "forall i in 0:7 do A[i] := B[7]; od\n"));
  EXPECT_NO_THROW(compile(decls + "forall j in 0:3 do M[4, j] := 1; od\n"));
}

TEST(Views, RotateViewLowersToBaseAccess) {
  // A view is pure aliasing: R[i] reads/writes A[(i+6) mod 20].
  spmd::Program p = compile(R"(
    processors 4;
    array A[0:19]; array B[0:19];
    view R[0:19] = A[(v + 6) mod 20];
    distribute A scatter; distribute B block;
    forall i in 0:19 do B[i] := R[i]; od
  )");
  const prog::Clause& c = std::get<prog::Clause>(p.steps[0]);
  ASSERT_EQ(c.refs.size(), 1u);
  EXPECT_EQ(c.refs[0].array, "A");  // the view dissolved
  EXPECT_EQ(fn::classify(c.refs[0].subs[0].expr).cls(),
            fn::FnClass::AffineMod);

  rt::SeqExecutor seq(p);
  std::vector<double> a(20);
  for (i64 i = 0; i < 20; ++i) a[static_cast<std::size_t>(i)] = i;
  seq.load("A", a);
  seq.run();
  for (i64 i = 0; i < 20; ++i)
    EXPECT_DOUBLE_EQ(seq.result("B")[static_cast<std::size_t>(i)],
                     static_cast<double>((i + 6) % 20));
}

TEST(Views, WriteThroughView) {
  spmd::Program p = compile(R"(
    array A[0:9];
    view Odd[0:4] = A[2*k + 1];
    forall i in 0:4 do Odd[i] := 7; od
  )");
  rt::SeqExecutor seq(p);
  seq.run();
  for (i64 i = 0; i < 10; ++i)
    EXPECT_DOUBLE_EQ(seq.result("A")[static_cast<std::size_t>(i)],
                     i % 2 == 1 ? 7.0 : 0.0);
}

TEST(Views, ViewOverViewComposes) {
  // Shift of a stride: S[i] = E[i+1] = A[2(i+1)] — contraction in action.
  spmd::Program p = compile(R"(
    array A[0:19];
    view E[0:9] = A[2*k];
    view S[0:8] = E[j + 1];
    forall i in 0:8 do S[i] := i; od
  )");
  rt::SeqExecutor seq(p);
  seq.run();
  for (i64 i = 0; i <= 8; ++i)
    EXPECT_DOUBLE_EQ(
        seq.result("A")[static_cast<std::size_t>(2 * (i + 1))],
        static_cast<double>(i));
}

TEST(Views, DiagonalOfAMatrix) {
  // A 1-D view into a 2-D base: the diagonal.
  spmd::Program p = compile(R"(
    processors 4;
    array M[0:7, 0:7];
    distribute M (block, block);
    view Diag[0:7] = M[t, t];
    forall i in 0:7 do Diag[i] := 1; od
  )");
  rt::SeqExecutor seq(p);
  seq.run();
  rt::DistMachine dist(p);
  dist.run();
  EXPECT_EQ(dist.gather("M"), seq.result("M"));
  for (i64 i = 0; i < 8; ++i)
    for (i64 j = 0; j < 8; ++j)
      EXPECT_DOUBLE_EQ(
          seq.result("M")[static_cast<std::size_t>(i * 8 + j)],
          i == j ? 1.0 : 0.0);
}

TEST(Views, Rejections) {
  // Name collision.
  EXPECT_THROW(compile("array A[0:9]; view A[0:9] = A[v];"),
               SemanticError);
  // No parameter variable.
  EXPECT_THROW(compile("array A[0:9]; view V[0:0] = A[5];"),
               SemanticError);
  // Two parameter variables.
  EXPECT_THROW(compile("array M[0:9,0:9]; view V[0:9] = M[a, b];"),
               SemanticError);
  // Undeclared base.
  EXPECT_THROW(compile("view V[0:9] = Z[v];"), SemanticError);
  // Arity mismatch against the base.
  EXPECT_THROW(compile("array M[0:9,0:9]; view V[0:9] = M[v];"),
               SemanticError);
  // Views cannot be distributed (they are not arrays).
  EXPECT_THROW(compile(R"(
    array A[0:9];
    view V[0:9] = A[v];
    distribute V block;
  )"),
               SemanticError);
}

TEST(Translate, SubscriptClassificationFlowsThrough) {
  // The rotate subscript must arrive as an affine-mod plan downstream.
  spmd::Program p = compile(R"(
    processors 4;
    array A[0:19]; array B[0:19];
    distribute A scatter;
    distribute B scatter;
    forall i in 0:19 do A[i] := B[(i+6) mod 20]; od
  )");
  const prog::Clause& c = std::get<prog::Clause>(p.steps[0]);
  fn::IndexFn g = fn::classify(c.refs[0].subs[0].expr);
  EXPECT_EQ(g.cls(), fn::FnClass::AffineMod);
}

}  // namespace
}  // namespace vcal::lang
