//===- tests/ParserTest.cpp - stencil DSL front-end tests --------------------===//
//
// Part of the YaskSite reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "frontend/Parser.h"

#include <gtest/gtest.h>

using namespace ys;

namespace {

const char *HeatSource = R"(
# 7-point heat kernel
stencil heat3d {
  grid u, unew;
  param alpha = 0.1;
  unew[x,y,z] = (1 - 6*alpha) * u[x,y,z]
              + alpha * (u[x+1,y,z] + u[x-1,y,z]
                       + u[x,y+1,z] + u[x,y-1,z]
                       + u[x,y,z+1] + u[x,y,z-1]);
}
)";

} // namespace

//===----------------------------------------------------------------------===//
// Lexer
//===----------------------------------------------------------------------===//

TEST(Lexer, TokenizesKeywordsAndPunctuation) {
  Lexer L("stencil s { grid u; }");
  std::vector<Token> Toks;
  ASSERT_TRUE(L.lexAll(Toks));
  ASSERT_EQ(Toks.size(), 8u); // incl. EOF.
  EXPECT_EQ(Toks[0].Kind, TokenKind::KwStencil);
  EXPECT_EQ(Toks[1].Kind, TokenKind::Identifier);
  EXPECT_EQ(Toks[2].Kind, TokenKind::LBrace);
  EXPECT_EQ(Toks[3].Kind, TokenKind::KwGrid);
  EXPECT_EQ(Toks[6].Kind, TokenKind::RBrace);
  EXPECT_EQ(Toks[7].Kind, TokenKind::EndOfFile);
}

TEST(Lexer, NumbersIntegerFloatExponent) {
  Lexer L("1 2.5 0.125 1e3 2.5e-2");
  std::vector<Token> Toks;
  ASSERT_TRUE(L.lexAll(Toks));
  ASSERT_EQ(Toks.size(), 6u);
  EXPECT_DOUBLE_EQ(Toks[0].NumberValue, 1.0);
  EXPECT_DOUBLE_EQ(Toks[1].NumberValue, 2.5);
  EXPECT_DOUBLE_EQ(Toks[2].NumberValue, 0.125);
  EXPECT_DOUBLE_EQ(Toks[3].NumberValue, 1000.0);
  EXPECT_DOUBLE_EQ(Toks[4].NumberValue, 0.025);
}

TEST(Lexer, CommentsBothStyles) {
  Lexer L("a # to end of line\nb // c-style\nc");
  std::vector<Token> Toks;
  ASSERT_TRUE(L.lexAll(Toks));
  ASSERT_EQ(Toks.size(), 4u);
  EXPECT_EQ(Toks[0].Text, "a");
  EXPECT_EQ(Toks[1].Text, "b");
  EXPECT_EQ(Toks[2].Text, "c");
}

TEST(Lexer, TracksLocations) {
  Lexer L("a\n  b");
  std::vector<Token> Toks;
  ASSERT_TRUE(L.lexAll(Toks));
  EXPECT_EQ(Toks[0].Loc.Line, 1u);
  EXPECT_EQ(Toks[0].Loc.Col, 1u);
  EXPECT_EQ(Toks[1].Loc.Line, 2u);
  EXPECT_EQ(Toks[1].Loc.Col, 3u);
}

TEST(Lexer, RejectsInvalidCharacter) {
  Lexer L("a $ b");
  std::vector<Token> Toks;
  EXPECT_FALSE(L.lexAll(Toks));
  EXPECT_NE(L.errorMessage().find("unexpected character"),
            std::string::npos);
  EXPECT_NE(L.errorMessage().find("1:3"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Parser: valid inputs
//===----------------------------------------------------------------------===//

TEST(Parser, ParsesHeatKernel) {
  auto DefOr = Parser::parseSingle(HeatSource);
  ASSERT_TRUE(static_cast<bool>(DefOr)) << DefOr.takeError().message();
  EXPECT_EQ(DefOr->Name, "heat3d");
  ASSERT_EQ(DefOr->GridNames.size(), 2u);
  EXPECT_DOUBLE_EQ(DefOr->Params.at("alpha"), 0.1);
  EXPECT_EQ(DefOr->Bundle.numEquations(), 1u);
}

TEST(Parser, HeatKernelLowersToSevenPoints) {
  auto DefOr = Parser::parseSingle(HeatSource);
  ASSERT_TRUE(static_cast<bool>(DefOr));
  auto SpecOr = DefOr->singleSpec();
  ASSERT_TRUE(static_cast<bool>(SpecOr)) << SpecOr.takeError().message();
  EXPECT_EQ(SpecOr->numPoints(), 7u);
  EXPECT_EQ(SpecOr->radius(), 1);
  EXPECT_EQ(SpecOr->shape(), StencilShape::Star);
  // Center coefficient is 1 - 6*alpha = 0.4.
  for (const StencilPoint &P : SpecOr->points())
    if (P.Dx == 0 && P.Dy == 0 && P.Dz == 0) {
      EXPECT_NEAR(P.Coeff, 0.4, 1e-12);
    }
}

TEST(Parser, ParamArithmeticFoldsIntoCoefficients) {
  auto DefOr = Parser::parseSingle(R"(
    stencil scaled {
      grid u, v;
      param c = 2;
      v[x,y,z] = c * c * u[x+1,y,z] - c * u[x,y,z];
    }
  )");
  ASSERT_TRUE(static_cast<bool>(DefOr)) << DefOr.takeError().message();
  auto SpecOr = DefOr->singleSpec();
  ASSERT_TRUE(static_cast<bool>(SpecOr));
  for (const StencilPoint &P : SpecOr->points()) {
    if (P.Dx == 1)
      EXPECT_DOUBLE_EQ(P.Coeff, 4.0);
    else
      EXPECT_DOUBLE_EQ(P.Coeff, -2.0);
  }
}

TEST(Parser, NegativeParamAndUnaryMinus) {
  auto DefOr = Parser::parseSingle(R"(
    stencil neg {
      grid u, v;
      param w = -0.5;
      v[x,y,z] = -u[x,y,z] + w * u[x-1,y,z];
    }
  )");
  ASSERT_TRUE(static_cast<bool>(DefOr)) << DefOr.takeError().message();
  auto SpecOr = DefOr->singleSpec();
  ASSERT_TRUE(static_cast<bool>(SpecOr));
  for (const StencilPoint &P : SpecOr->points())
    EXPECT_LT(P.Coeff, 0.0);
}

TEST(Parser, MultiEquationBundle) {
  auto DefOr = Parser::parseSingle(R"(
    stencil twostage {
      grid u, k1, k2;
      k1[x,y,z] = u[x+1,y,z] - u[x-1,y,z];
      k2[x,y,z] = k1[x+1,y,z] - k1[x-1,y,z];
    }
  )");
  ASSERT_TRUE(static_cast<bool>(DefOr)) << DefOr.takeError().message();
  EXPECT_EQ(DefOr->Bundle.numEquations(), 2u);
  EXPECT_TRUE(DefOr->Bundle.dependsOn(1, 0));
  EXPECT_EQ(DefOr->Bundle.chainedHalo(), 2);
  // singleSpec refuses multi-equation definitions.
  EXPECT_FALSE(static_cast<bool>(DefOr->singleSpec()));
}

TEST(Parser, MultipleDefinitionsInOneFile) {
  auto AllOr = Parser::parse(R"(
    stencil a { grid u, v; v[x,y,z] = u[x,y,z]; }
    stencil b { grid u, v; v[x,y,z] = u[x+1,y,z]; }
  )");
  ASSERT_TRUE(static_cast<bool>(AllOr));
  ASSERT_EQ(AllOr->size(), 2u);
  EXPECT_EQ((*AllOr)[0].Name, "a");
  EXPECT_EQ((*AllOr)[1].Name, "b");
}

TEST(Parser, MultiGridReads) {
  auto DefOr = Parser::parseSingle(R"(
    stencil axpy {
      grid y, k, out;
      out[x,y,z] = y[x,y,z] + 0.5 * k[x,y,z];
    }
  )");
  ASSERT_TRUE(static_cast<bool>(DefOr)) << DefOr.takeError().message();
  auto SpecOr = DefOr->singleSpec();
  ASSERT_TRUE(static_cast<bool>(SpecOr));
  EXPECT_EQ(SpecOr->numInputGrids(), 2u);
}

//===----------------------------------------------------------------------===//
// Parser: diagnostics
//===----------------------------------------------------------------------===//

namespace {

std::string parseError(const std::string &Source) {
  auto R = Parser::parse(Source);
  if (R)
    return std::string();
  return R.takeError().message();
}

} // namespace

/// Out-of-namespace alias usable by tests appended below.
static std::string parseErrorPublic(const std::string &Source) {
  return parseError(Source);
}

TEST(Parser, DiagnosesUnknownGrid) {
  std::string E = parseError(
      "stencil s { grid u, v; v[x,y,z] = w[x,y,z]; }");
  EXPECT_NE(E.find("unknown grid 'w'"), std::string::npos);
}

TEST(Parser, DiagnosesUnknownParam) {
  std::string E = parseError(
      "stencil s { grid u, v; v[x,y,z] = beta * u[x,y,z]; }");
  EXPECT_NE(E.find("unknown identifier 'beta'"), std::string::npos);
}

TEST(Parser, DiagnosesAxisOrder) {
  std::string E = parseError(
      "stencil s { grid u, v; v[x,y,z] = u[y,x,z]; }");
  EXPECT_NE(E.find("expected axis 'x'"), std::string::npos);
}

TEST(Parser, DiagnosesLhsOffsets) {
  std::string E = parseError(
      "stencil s { grid u, v; v[x+1,y,z] = u[x,y,z]; }");
  EXPECT_NE(E.find("left-hand-side"), std::string::npos);
}

TEST(Parser, DiagnosesNonlinearEquation) {
  std::string E = parseError(
      "stencil s { grid u, v; v[x,y,z] = u[x,y,z] * u[x+1,y,z]; }");
  EXPECT_NE(E.find("not a linear"), std::string::npos);
}

TEST(Parser, DiagnosesMissingSemicolon) {
  std::string E = parseError(
      "stencil s { grid u, v; v[x,y,z] = u[x,y,z] }");
  EXPECT_NE(E.find("expected ';'"), std::string::npos);
}

TEST(Parser, DiagnosesUnterminatedDefinition) {
  std::string E = parseError("stencil s { grid u, v;");
  EXPECT_NE(E.find("unterminated"), std::string::npos);
}

TEST(Parser, DiagnosesDuplicateGrid) {
  std::string E = parseError("stencil s { grid u, u; }");
  EXPECT_NE(E.find("already declared"), std::string::npos);
}

TEST(Parser, DiagnosesFractionalOffset) {
  std::string E = parseError(
      "stencil s { grid u, v; v[x,y,z] = u[x+1.5,y,z]; }");
  EXPECT_NE(E.find("offsets must be integers"), std::string::npos);
}

TEST(Parser, DiagnosesSelfReferenceWithOffset) {
  // In-place stencil: u reads itself at an offset -> bundle validation.
  std::string E = parseError(
      "stencil s { grid u; u[x,y,z] = u[x+1,y,z]; }");
  EXPECT_NE(E.find("in-place"), std::string::npos);
}

TEST(Parser, DiagnosesEmptyInput) {
  std::string E = parseError("   # just a comment\n");
  EXPECT_NE(E.find("no stencil definitions"), std::string::npos);
}

TEST(Parser, ErrorsCarryLocations) {
  std::string E = parseError("stencil s {\n  grid u, v;\n  v[x,y,z] = "
                             "w[x,y,z];\n}");
  EXPECT_NE(E.find("3:"), std::string::npos); // Error on line 3.
}

//===----------------------------------------------------------------------===//
// Round-trip: parsed stencils drive the executor.
//===----------------------------------------------------------------------===//

#include "codegen/KernelExecutor.h"
#include "verify/ReferenceInterpreter.h"

TEST(Parser, ParsedSpecExecutesLikeBuiltin) {
  auto DefOr = Parser::parseSingle(R"(
    stencil star {
      grid u, v;
      v[x,y,z] = -6 * u[x,y,z]
               + u[x+1,y,z] + u[x-1,y,z]
               + u[x,y+1,z] + u[x,y-1,z]
               + u[x,y,z+1] + u[x,y,z-1];
    }
  )");
  ASSERT_TRUE(static_cast<bool>(DefOr));
  auto SpecOr = DefOr->singleSpec();
  ASSERT_TRUE(static_cast<bool>(SpecOr));

  StencilSpec Builtin = StencilSpec::star3d(1, -6.0, 1.0);
  GridDims Dims{10, 10, 10};
  Grid In(Dims, 1), OutParsed(Dims, 1), OutBuiltin(Dims, 1);
  Rng R(3);
  In.fillRandom(R);
  ReferenceInterpreter(*SpecOr).runSweep({&In}, OutParsed);
  ReferenceInterpreter(Builtin).runSweep({&In}, OutBuiltin);
  EXPECT_LT(Grid::maxAbsDiffInterior(OutParsed, OutBuiltin), 1e-12);
}

TEST(Parser, DivisionInEquations) {
  auto DefOr = Parser::parseSingle(R"(
    stencil avg {
      grid u, v;
      v[x,y,z] = (u[x+1,y,z] + u[x-1,y,z] + 2 * u[x,y,z]) / 4;
    }
  )");
  ASSERT_TRUE(static_cast<bool>(DefOr)) << DefOr.takeError().message();
  auto SpecOr = DefOr->singleSpec();
  ASSERT_TRUE(static_cast<bool>(SpecOr));
  for (const StencilPoint &P : SpecOr->points()) {
    if (P.Dx == 0)
      EXPECT_DOUBLE_EQ(P.Coeff, 0.5);
    else
      EXPECT_DOUBLE_EQ(P.Coeff, 0.25);
  }
}

TEST(Parser, DivisionByGridDiagnosed) {
  std::string E = parseErrorPublic(
      "stencil s { grid u, v; v[x,y,z] = u[x,y,z] / u[x+1,y,z]; }");
  EXPECT_NE(E.find("division"), std::string::npos);
}

TEST(Parser, CommentSlashSlashStillWorksWithDivision) {
  auto DefOr = Parser::parseSingle(
      "stencil s { grid u, v; // comment\n"
      "  v[x,y,z] = u[x,y,z] / 2; }");
  ASSERT_TRUE(static_cast<bool>(DefOr)) << DefOr.takeError().message();
}
