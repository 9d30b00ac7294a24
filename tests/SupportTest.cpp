//===- tests/SupportTest.cpp - support library tests ----------------------===//
//
// Part of the YaskSite reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/AlignedBuffer.h"
#include "support/Error.h"
#include "support/Random.h"
#include "support/StringUtils.h"
#include "support/Table.h"
#include "support/ThreadPool.h"
#include "support/Timer.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <numeric>
#include <set>

using namespace ys;

//===----------------------------------------------------------------------===//
// StringUtils
//===----------------------------------------------------------------------===//

TEST(StringUtils, FormatBasic) {
  EXPECT_EQ(format("x=%d y=%s", 42, "abc"), "x=42 y=abc");
  EXPECT_EQ(format("%.2f", 1.2345), "1.23");
  EXPECT_EQ(format("empty"), "empty");
}

TEST(StringUtils, FormatLongStrings) {
  std::string Long(500, 'a');
  EXPECT_EQ(format("%s!", Long.c_str()), Long + "!");
}

TEST(StringUtils, Join) {
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(join({"a"}, ","), "a");
  EXPECT_EQ(join({"a", "b", "c"}, " | "), "a | b | c");
}

TEST(StringUtils, HumanBytes) {
  EXPECT_EQ(humanBytes(512), "512 B");
  EXPECT_EQ(humanBytes(32ull * 1024), "32.0 KiB");
  EXPECT_EQ(humanBytes(27ull * 1024 * 1024 + 512 * 1024), "27.5 MiB");
  EXPECT_EQ(humanBytes(3ull * 1024 * 1024 * 1024), "3.0 GiB");
}

TEST(StringUtils, TrimmedDouble) {
  EXPECT_EQ(trimmedDouble(1.5, 3), "1.5");
  EXPECT_EQ(trimmedDouble(2.0, 3), "2");
  EXPECT_EQ(trimmedDouble(0.125, 6), "0.125");
  EXPECT_EQ(trimmedDouble(-0.5, 2), "-0.5");
}

TEST(StringUtils, RoundTripDouble) {
  // Shortest representation for exactly representable values...
  EXPECT_EQ(roundTripDouble(0.5), "0.5");
  EXPECT_EQ(roundTripDouble(2.0), "2");
  EXPECT_EQ(roundTripDouble(-0.25), "-0.25");
  // ...and exact round-trip for everything else, digits as needed.
  const double Cases[] = {1.0 / 3.0,  1e-12,     0.1, -2.0 / 7.0,
                          1.0 + 1e-15, 6.283185307179586};
  for (double V : Cases) {
    SCOPED_TRACE(V);
    std::string S = roundTripDouble(V);
    EXPECT_EQ(std::strtod(S.c_str(), nullptr), V) << S;
  }
}

TEST(StringUtils, FingerprintRaw64) {
  // 16 hex digits, deterministic, and content-sensitive.  The empty-input
  // value is pinned: it is the offset basis every existing on-disk
  // tuning-cache and JIT-object key was derived from, so changing the
  // hash constants would silently orphan all cached state.  (The basis is
  // a historical variant, not the canonical FNV-1a one — kept for
  // exactly that compatibility reason.)
  EXPECT_EQ(fingerprintRaw64("").size(), 16u);
  EXPECT_EQ(fingerprintRaw64("abc"), fingerprintRaw64("abc"));
  EXPECT_NE(fingerprintRaw64("abc"), fingerprintRaw64("abd"));
  EXPECT_EQ(fingerprintRaw64(""), "14650fb0739d0383");
}

TEST(StringUtils, StartsWith) {
  EXPECT_TRUE(startsWith("heat3d-r1", "heat"));
  EXPECT_FALSE(startsWith("heat", "heat3d"));
  EXPECT_TRUE(startsWith("", ""));
}

TEST(StringUtils, Split) {
  std::vector<std::string> Parts = split("a,b,,c", ',');
  ASSERT_EQ(Parts.size(), 4u);
  EXPECT_EQ(Parts[0], "a");
  EXPECT_EQ(Parts[2], "");
  EXPECT_EQ(Parts[3], "c");
  EXPECT_EQ(split("abc", ',').size(), 1u);
}

TEST(StringUtils, ToLower) {
  EXPECT_EQ(toLower("CascadeLakeSP"), "cascadelakesp");
  EXPECT_EQ(toLower("already"), "already");
}

//===----------------------------------------------------------------------===//
// Table
//===----------------------------------------------------------------------===//

TEST(Table, RendersAlignedColumns) {
  Table T({"name", "value"});
  T.addRow({"a", "1"});
  T.addRow({"long-name", "22"});
  std::string Out = T.render();
  EXPECT_NE(Out.find("| name      | value |"), std::string::npos);
  EXPECT_NE(Out.find("| long-name | 22    |"), std::string::npos);
}

TEST(Table, PadsShortRows) {
  Table T({"a", "b", "c"});
  T.addRow({"x"});
  std::string Out = T.render();
  EXPECT_NE(Out.find("| x | "), std::string::npos);
  EXPECT_EQ(T.numRows(), 1u);
}

TEST(Table, SeparatorRow) {
  Table T({"h"});
  T.addRow({"1"});
  T.addSeparator();
  T.addRow({"2"});
  std::string Out = T.render();
  // Header rule + one separator = at least two rule lines.
  size_t First = Out.find("|--");
  ASSERT_NE(First, std::string::npos);
  EXPECT_NE(Out.find("|--", First + 1), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Rng
//===----------------------------------------------------------------------===//

TEST(Rng, Deterministic) {
  Rng A(123), B(123);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(Rng, SeedsDiffer) {
  Rng A(1), B(2);
  EXPECT_NE(A.next(), B.next());
}

TEST(Rng, DoubleInUnitInterval) {
  Rng R(7);
  for (int I = 0; I < 1000; ++I) {
    double V = R.nextDouble();
    EXPECT_GE(V, 0.0);
    EXPECT_LT(V, 1.0);
  }
}

TEST(Rng, DoubleInRange) {
  Rng R(7);
  for (int I = 0; I < 1000; ++I) {
    double V = R.nextDouble(-3.0, 5.0);
    EXPECT_GE(V, -3.0);
    EXPECT_LT(V, 5.0);
  }
}

TEST(Rng, BoundedCoversRange) {
  Rng R(11);
  std::set<uint64_t> Seen;
  for (int I = 0; I < 200; ++I)
    Seen.insert(R.nextBounded(8));
  EXPECT_EQ(Seen.size(), 8u);
  for (uint64_t V : Seen)
    EXPECT_LT(V, 8u);
}

//===----------------------------------------------------------------------===//
// AlignedBuffer
//===----------------------------------------------------------------------===//

TEST(AlignedBuffer, AlignmentAndSize) {
  AlignedBuffer<double> Buf(100);
  EXPECT_EQ(Buf.size(), 100u);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(Buf.data()) % 64, 0u);
}

TEST(AlignedBuffer, ZeroFills) {
  AlignedBuffer<double> Buf(16);
  Buf.zero();
  for (size_t I = 0; I < Buf.size(); ++I)
    EXPECT_EQ(Buf[I], 0.0);
}

TEST(AlignedBuffer, MoveTransfersOwnership) {
  AlignedBuffer<double> A(8);
  A[0] = 3.5;
  double *Ptr = A.data();
  AlignedBuffer<double> B = std::move(A);
  EXPECT_EQ(B.data(), Ptr);
  EXPECT_EQ(B[0], 3.5);
  EXPECT_TRUE(A.empty());
}

TEST(AlignedBuffer, OddSizeRoundsAllocation) {
  // 7 doubles = 56 bytes, not a multiple of 64; must not crash.
  AlignedBuffer<double> Buf(7);
  Buf.zero();
  Buf[6] = 1.0;
  EXPECT_EQ(Buf[6], 1.0);
}

//===----------------------------------------------------------------------===//
// Error / Expected
//===----------------------------------------------------------------------===//

TEST(Error, SuccessAndFailure) {
  Error S = Error::success();
  EXPECT_FALSE(static_cast<bool>(S));
  Error F = Error::failure("boom");
  EXPECT_TRUE(static_cast<bool>(F));
  EXPECT_EQ(F.message(), "boom");
}

TEST(Expected, HoldsValue) {
  Expected<int> E(42);
  ASSERT_TRUE(static_cast<bool>(E));
  EXPECT_EQ(*E, 42);
}

TEST(Expected, HoldsError) {
  Expected<int> E(Error::failure("nope"));
  EXPECT_FALSE(static_cast<bool>(E));
  EXPECT_EQ(E.takeError().message(), "nope");
}

//===----------------------------------------------------------------------===//
// ThreadPool
//===----------------------------------------------------------------------===//

TEST(ThreadPool, SingleThreadInline) {
  ThreadPool Pool(1);
  std::vector<int> Hits(10, 0);
  Pool.parallelFor(0, 10, [&](long I) { Hits[I]++; });
  for (int H : Hits)
    EXPECT_EQ(H, 1);
}

TEST(ThreadPool, CoversAllIndicesExactlyOnce) {
  ThreadPool Pool(4);
  std::vector<std::atomic<int>> Hits(1000);
  Pool.parallelFor(0, 1000, [&](long I) { Hits[I]++; });
  for (auto &H : Hits)
    EXPECT_EQ(H.load(), 1);
}

TEST(ThreadPool, EmptyRangeIsNoop) {
  ThreadPool Pool(4);
  std::atomic<int> Count{0};
  Pool.parallelFor(5, 5, [&](long) { Count++; });
  EXPECT_EQ(Count.load(), 0);
}

TEST(ThreadPool, ReusableAcrossCalls) {
  ThreadPool Pool(4);
  for (int Round = 0; Round < 20; ++Round) {
    std::atomic<long> Sum{0};
    Pool.parallelFor(0, 100, [&](long I) { Sum += I; });
    EXPECT_EQ(Sum.load(), 4950);
  }
}

TEST(ThreadPool, MoreThreadsThanWork) {
  ThreadPool Pool(8);
  std::vector<std::atomic<int>> Hits(3);
  Pool.parallelFor(0, 3, [&](long I) { Hits[I]++; });
  for (auto &H : Hits)
    EXPECT_EQ(H.load(), 1);
}

//===----------------------------------------------------------------------===//
// Timer
//===----------------------------------------------------------------------===//

TEST(Timer, NonNegativeAndMonotonic) {
  Timer T;
  double A = T.seconds();
  double B = T.seconds();
  EXPECT_GE(A, 0.0);
  EXPECT_GE(B, A);
}

TEST(Timer, MeasureSecondsStats) {
  TimingStats S = measureSeconds([] {}, 5);
  EXPECT_EQ(S.Repeats, 5u);
  EXPECT_LE(S.Min, S.Median);
  EXPECT_LE(S.Median, S.Max);
  EXPECT_GE(S.Mean, 0.0);
}

TEST(StringUtils, ParseLongAcceptsIntegers) {
  EXPECT_EQ(*parseLong("42"), 42);
  EXPECT_EQ(*parseLong("-7"), -7);
  EXPECT_EQ(*parseLong("0"), 0);
  EXPECT_EQ(*parseLong("+5"), 5);
}

TEST(StringUtils, ParseLongRejectsGarbage) {
  EXPECT_FALSE(static_cast<bool>(parseLong("")));
  EXPECT_FALSE(static_cast<bool>(parseLong(" 5")));
  EXPECT_FALSE(static_cast<bool>(parseLong("5 ")));
  EXPECT_FALSE(static_cast<bool>(parseLong("12junk")));
  EXPECT_FALSE(static_cast<bool>(parseLong("abc")));
  EXPECT_FALSE(static_cast<bool>(parseLong("2.5")));
  EXPECT_FALSE(static_cast<bool>(parseLong("-")));
  EXPECT_FALSE(static_cast<bool>(parseLong("999999999999999999999999")));
}

TEST(StringUtils, ParseUnsignedRejectsNegatives) {
  EXPECT_EQ(*parseUnsigned("18446744073709551615"), ~0ull);
  EXPECT_EQ(*parseUnsigned("0"), 0ull);
  // strtoull would silently wrap these; the checked parser must not.
  EXPECT_FALSE(static_cast<bool>(parseUnsigned("-1")));
  EXPECT_FALSE(static_cast<bool>(parseUnsigned("-0")));
  EXPECT_FALSE(static_cast<bool>(parseUnsigned("18446744073709551616")));
  EXPECT_FALSE(static_cast<bool>(parseUnsigned("1x")));
}

TEST(StringUtils, ParseDoubleChecksRangeAndTail) {
  EXPECT_DOUBLE_EQ(*parseDouble("1.5"), 1.5);
  EXPECT_DOUBLE_EQ(*parseDouble("-2e-3"), -2e-3);
  EXPECT_FALSE(static_cast<bool>(parseDouble("")));
  EXPECT_FALSE(static_cast<bool>(parseDouble("0.1.2")));
  EXPECT_FALSE(static_cast<bool>(parseDouble("1e999")));
  EXPECT_FALSE(static_cast<bool>(parseDouble("nan")));
  EXPECT_FALSE(static_cast<bool>(parseDouble("inf")));
}
