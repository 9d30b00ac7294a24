//===- tests/TraceTest.cpp - Structured-trace and JSON helper tests --------===//
//
// Part of the YaskSite reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Trace.h"

#include "codegen/KernelExecutor.h"
#include "support/Json.h"
#include "tuner/MeasureHarness.h"
#include "tuner/OnlineTuner.h"

#include <cstdio>
#include <fstream>

#include <gtest/gtest.h>

using namespace ys;

namespace {

std::vector<std::string> readLines(const std::string &Path) {
  std::vector<std::string> Lines;
  std::ifstream In(Path);
  std::string Line;
  while (std::getline(In, Line))
    if (!Line.empty())
      Lines.push_back(Line);
  return Lines;
}

/// Fresh trace file in TempDir (removes any leftover — openFile appends).
std::string traceFile(const char *Name) {
  std::string Path = testing::TempDir() + "/" + Name;
  std::remove(Path.c_str());
  return Path;
}

size_t countPhase(const std::vector<std::string> &Lines,
                  const std::string &Phase) {
  size_t N = 0;
  for (const std::string &L : Lines)
    if (jsonStringField(L, "phase") == Phase)
      ++N;
  return N;
}

/// RAII guard: whatever a test does, the process-global trace sink is
/// closed again before the next test runs.
struct TraceSession {
  explicit TraceSession(const std::string &Path) { Trace::openFile(Path); }
  ~TraceSession() { Trace::close(); }
};

} // namespace

TEST(Json, EscapeUnescapeRoundTrip) {
  std::string Nasty = "a \"quoted\" \\ back\\slash\nnewline\ttab";
  std::string Escaped = jsonEscape(Nasty);
  EXPECT_EQ(Escaped.find('\n'), std::string::npos);
  EXPECT_EQ(jsonUnescape(Escaped), Nasty);
  EXPECT_EQ(jsonEscape(""), "");
}

TEST(Json, ObjectWriterAndFieldExtraction) {
  std::string Obj = JsonObjectWriter()
                        .field("name", "star3d \"r2\"")
                        .field("mlups", 1234.5)
                        .field("steps", (long)-3)
                        .field("runs", (unsigned long long)7)
                        .str();
  EXPECT_TRUE(jsonLooksWellFormed(Obj));
  EXPECT_EQ(jsonStringField(Obj, "name"), "star3d \"r2\"");
  EXPECT_EQ(jsonNumberField(Obj, "mlups"), 1234.5);
  EXPECT_EQ(jsonNumberField(Obj, "steps"), -3.0);
  EXPECT_EQ(jsonNumberField(Obj, "runs"), 7.0);
  // Absent key / wrong kind.
  EXPECT_FALSE(jsonStringField(Obj, "missing").has_value());
  EXPECT_FALSE(jsonNumberField(Obj, "name").has_value());
  EXPECT_FALSE(jsonStringField(Obj, "mlups").has_value());
}

TEST(Json, BoolFieldsWriteBareTokensAndReadBack) {
  std::string Obj = JsonObjectWriter()
                        .field("ok", true)
                        .field("bad", false)
                        .field("name", "true")
                        .str();
  EXPECT_TRUE(jsonLooksWellFormed(Obj));
  EXPECT_NE(Obj.find("\"ok\":true"), std::string::npos);
  EXPECT_NE(Obj.find("\"bad\":false"), std::string::npos);
  EXPECT_EQ(jsonBoolField(Obj, "ok"), true);
  EXPECT_EQ(jsonBoolField(Obj, "bad"), false);
  // Quoted "true" is a string, not a bool; absent keys stay absent.
  EXPECT_FALSE(jsonBoolField(Obj, "name").has_value());
  EXPECT_FALSE(jsonBoolField(Obj, "missing").has_value());
}

TEST(Json, WellFormedRejectsBrokenLines) {
  EXPECT_TRUE(jsonLooksWellFormed("{}"));
  EXPECT_TRUE(jsonLooksWellFormed("{\"a\":\"b{not nesting}\"}"));
  EXPECT_FALSE(jsonLooksWellFormed(""));
  EXPECT_FALSE(jsonLooksWellFormed("not json"));
  EXPECT_FALSE(jsonLooksWellFormed("{\"a\":1"));       // Unterminated.
  EXPECT_FALSE(jsonLooksWellFormed("{\"a\":\"b}"));    // Unbalanced quote.
  EXPECT_FALSE(jsonLooksWellFormed("{\"a\":{\"b\":1}}")); // Nested.
}

TEST(Trace, DisabledByDefaultAndNoOpSafe) {
  ASSERT_FALSE(Trace::enabled());
  // Every entry point must be a harmless no-op when disabled.
  TraceRecord Rec("noop");
  Rec.field("x", 1.0).field("y", "z");
  Rec.emit();
  { TraceScope Scope("noop_scope"); }
  Trace::addCounter("nope", 5);
  Trace::emitLine("{\"phase\":\"ignored\"}");
  EXPECT_EQ(Trace::now(), 0.0);
  Trace::close(); // Safe when nothing is open.
}

TEST(Trace, RecordsScopesAndCountersAreWellFormedJsonLines) {
  std::string Path = traceFile("ys_trace_unit.jsonl");
  {
    TraceSession Session(Path);
    ASSERT_TRUE(Trace::enabled());

    TraceRecord Rec("unit_test");
    Rec.field("label", "first \"record\"")
        .field("value", 2.5)
        .field("count", 3);
    Rec.emit();

    { TraceScope Scope("unit_scope"); Scope.field("tag", "scoped"); }

    Trace::addCounter("widgets", 2);
    Trace::addCounter("widgets", 3);
    Trace::addCounter("gadgets");
  } // close() flushes the counters record.
  EXPECT_FALSE(Trace::enabled());

  std::vector<std::string> Lines = readLines(Path);
  ASSERT_EQ(Lines.size(), 3u);
  for (const std::string &L : Lines) {
    EXPECT_TRUE(jsonLooksWellFormed(L)) << L;
    EXPECT_TRUE(jsonNumberField(L, "ts").has_value()) << L;
  }

  EXPECT_EQ(jsonStringField(Lines[0], "phase"), "unit_test");
  EXPECT_EQ(jsonStringField(Lines[0], "label"), "first \"record\"");
  EXPECT_EQ(jsonNumberField(Lines[0], "value"), 2.5);
  EXPECT_EQ(jsonNumberField(Lines[0], "count"), 3.0);

  EXPECT_EQ(jsonStringField(Lines[1], "phase"), "unit_scope");
  EXPECT_EQ(jsonStringField(Lines[1], "tag"), "scoped");
  ASSERT_TRUE(jsonNumberField(Lines[1], "seconds").has_value());
  EXPECT_GE(*jsonNumberField(Lines[1], "seconds"), 0.0);

  EXPECT_EQ(jsonStringField(Lines[2], "phase"), "counters");
  EXPECT_EQ(jsonNumberField(Lines[2], "widgets"), 5.0);
  EXPECT_EQ(jsonNumberField(Lines[2], "gadgets"), 1.0);

  std::remove(Path.c_str());
}

TEST(Trace, ReopeningStartsANewEpoch) {
  std::string A = traceFile("ys_trace_a.jsonl");
  std::string B = traceFile("ys_trace_b.jsonl");
  ASSERT_TRUE(Trace::openFile(A));
  TraceRecord R1("one");
  R1.emit();
  ASSERT_TRUE(Trace::openFile(B)); // Implicitly closes A.
  TraceRecord R2("two");
  R2.emit();
  Trace::close();
  EXPECT_EQ(readLines(A).size(), 1u);
  EXPECT_EQ(readLines(B).size(), 1u);
  std::remove(A.c_str());
  std::remove(B.c_str());
}

TEST(Trace, MeasureHarnessEmitsMeasureRecords) {
  std::string Path = traceFile("ys_trace_measure.jsonl");
  {
    TraceSession Session(Path);
    MeasureHarness H(StencilSpec::heat3d(), {16, 16, 16}, /*Repeats=*/2,
                     /*SweepsPerRepeat=*/1);
    KernelConfig C;
    C.Block.Y = 8;
    H.measure(C);
  }
  std::vector<std::string> Lines = readLines(Path);
  ASSERT_EQ(countPhase(Lines, "measure"), 1u);
  for (const std::string &L : Lines) {
    EXPECT_TRUE(jsonLooksWellFormed(L)) << L;
    if (jsonStringField(L, "phase") != "measure")
      continue;
    EXPECT_TRUE(jsonStringField(L, "config").has_value());
    EXPECT_EQ(jsonStringField(L, "stencil"), "heat3d");
    EXPECT_EQ(jsonNumberField(L, "cached"), 0.0);
    ASSERT_TRUE(jsonNumberField(L, "mlups").has_value());
    EXPECT_GT(*jsonNumberField(L, "mlups"), 0.0);
    ASSERT_TRUE(jsonNumberField(L, "min_seconds").has_value());
    EXPECT_GT(*jsonNumberField(L, "min_seconds"), 0.0);
  }
  std::remove(Path.c_str());
}

TEST(Trace, KernelStepsRecordsCopyBackSeconds) {
  // An odd step count ends in Scratch and copies back into U; an even one
  // does not.  The kernel_steps record says how long that copy took.
  std::string Path = traceFile("ys_trace_copy_back.jsonl");
  {
    TraceSession Session(Path);
    StencilSpec S = StencilSpec::heat3d();
    GridDims Dims{64, 32, 32};
    Grid U(Dims, 1, Fold{8, 1, 1}), Scratch(Dims, 1, Fold{8, 1, 1});
    Rng R(7);
    U.fillRandom(R);
    Scratch.copyHaloFrom(U);
    KernelConfig C;
    C.VectorFold = {8, 1, 1};
    KernelExecutor Exec(S, C);
    Exec.runTimeSteps(U, Scratch, 3);
    Exec.runTimeSteps(U, Scratch, 2);
  }
  std::vector<std::string> Lines = readLines(Path);
  std::vector<double> CopyBack;
  for (const std::string &L : Lines) {
    EXPECT_TRUE(jsonLooksWellFormed(L)) << L;
    if (jsonStringField(L, "phase") != "kernel_steps")
      continue;
    std::optional<double> Sec = jsonNumberField(L, "copy_back_s");
    ASSERT_TRUE(Sec.has_value()) << L;
    CopyBack.push_back(*Sec);
  }
  ASSERT_EQ(CopyBack.size(), 2u);
  EXPECT_GT(CopyBack[0], 0.0); // 3 steps: copied back.
  EXPECT_EQ(CopyBack[1], 0.0); // 2 steps: result already in U.
  std::remove(Path.c_str());
}

TEST(Trace, OnlineTunerEmitsTrialAndSummaryRecords) {
  std::string Path = traceFile("ys_trace_online.jsonl");
  {
    TraceSession Session(Path);
    StencilSpec S = StencilSpec::heat3d();
    GridDims Dims{12, 12, 12};
    Grid U(Dims, 1), Scratch(Dims, 1);
    Rng R(7);
    U.fillRandom(R);
    KernelConfig A;
    KernelConfig B;
    B.Block.Y = 4;
    OnlineTuner Tuner(S, {A, B}, 2);
    Tuner.run(U, Scratch, 16);
  }
  std::vector<std::string> Lines = readLines(Path);
  for (const std::string &L : Lines)
    EXPECT_TRUE(jsonLooksWellFormed(L)) << L;
  EXPECT_EQ(countPhase(Lines, "online_trial"), 2u);
  EXPECT_EQ(countPhase(Lines, "online_warmup"), 1u);
  ASSERT_EQ(countPhase(Lines, "online_summary"), 1u);
  // kernel_steps records come from KernelExecutor::runTimeSteps (warm-up
  // and production both route through it).
  EXPECT_GE(countPhase(Lines, "kernel_steps"), 1u);
  for (const std::string &L : Lines) {
    std::optional<std::string> Phase = jsonStringField(L, "phase");
    if (Phase == "online_trial") {
      EXPECT_EQ(jsonNumberField(L, "cached"), 0.0);
      ASSERT_TRUE(jsonNumberField(L, "seconds_per_step").has_value());
      EXPECT_GT(*jsonNumberField(L, "seconds_per_step"), 0.0);
    } else if (Phase == "online_summary") {
      EXPECT_EQ(jsonStringField(L, "stencil"), "heat3d");
      EXPECT_EQ(jsonNumberField(L, "trials"), 2.0);
      EXPECT_EQ(jsonNumberField(L, "cached_trials"), 0.0);
    }
  }
  std::remove(Path.c_str());
}
