//===- tests/test_incremental.cpp - Incremental engine equivalence ----------===//
//
// The acceptance battery of the incremental delta-driven saturation engine:
// the Monitor driven at any flush cadence must produce reports bit-identical
// to the replay engine (the batch checkRc/checkRa/checkCc checkers) on clean
// and anomaly-injected generated histories; windowed mode must stay bounded
// and false-positive-free across cadence/window sweeps; the age-based
// eviction and force-abort policies must unpin hung sessions; and the
// streaming plume/dbcop parsers must be chunking-invariant.
//
//===----------------------------------------------------------------------===//

#include "checker/check_cc.h"
#include "checker/check_ra.h"
#include "checker/check_ra_single_session.h"
#include "checker/check_rc.h"
#include "checker/checker.h"
#include "checker/monitor.h"
#include "checker/violation_sink.h"
#include "io/dbcop_format.h"
#include "io/plume_format.h"
#include "io/stream_parser.h"
#include "sim/anomaly_injector.h"
#include "tests/test_util.h"
#include "workload/generator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <memory>
#include <optional>
#include <string>
#include <tuple>

using namespace awdit;
using namespace awdit::test;

namespace {

void expectSameReport(const CheckReport &A, const CheckReport &B,
                      const std::string &Context) {
  EXPECT_EQ(A.Consistent, B.Consistent) << Context;
  ASSERT_EQ(A.Violations.size(), B.Violations.size()) << Context;
  for (size_t I = 0; I < A.Violations.size(); ++I) {
    const Violation &X = A.Violations[I], &Y = B.Violations[I];
    EXPECT_EQ(X.Kind, Y.Kind) << Context << " violation " << I;
    EXPECT_EQ(X.T, Y.T) << Context << " violation " << I;
    EXPECT_EQ(X.OpIndex, Y.OpIndex) << Context << " violation " << I;
    EXPECT_EQ(X.Other, Y.Other) << Context << " violation " << I;
    ASSERT_EQ(X.Cycle.size(), Y.Cycle.size())
        << Context << " violation " << I;
    for (size_t E = 0; E < X.Cycle.size(); ++E) {
      EXPECT_EQ(X.Cycle[E].From, Y.Cycle[E].From) << Context;
      EXPECT_EQ(X.Cycle[E].To, Y.Cycle[E].To) << Context;
      EXPECT_EQ(X.Cycle[E].Kind, Y.Cycle[E].Kind) << Context;
    }
  }
  EXPECT_EQ(A.Stats.InferredEdges, B.Stats.InferredEdges) << Context;
  EXPECT_EQ(A.Stats.GraphEdges, B.Stats.GraphEdges) << Context;
  EXPECT_EQ(A.Stats.UsedFastPath, B.Stats.UsedFastPath) << Context;
}

/// The replay engine: the historical batch checkers, called directly. This
/// is the reference the incremental engine must reproduce bit-identically.
CheckReport replayReference(const History &H, IsolationLevel Level) {
  CheckReport Report;
  SaturationStats Sat;
  switch (Level) {
  case IsolationLevel::ReadCommitted:
    Report.Consistent = checkRc(H, Report.Violations, 16, &Sat);
    break;
  case IsolationLevel::ReadAtomic:
    Report.Consistent = checkRa(H, Report.Violations, 16, &Sat);
    break;
  case IsolationLevel::CausalConsistency:
    Report.Consistent = checkCc(H, Report.Violations, 16, &Sat);
    break;
  }
  Report.Stats.InferredEdges = Sat.InferredEdges;
  Report.Stats.GraphEdges = Sat.GraphEdges;
  return Report;
}

/// Drives a Monitor over \p H at flush cadence \p Interval and requires the
/// finalize report to match both the replay engine and the one-shot facade
/// exactly, at every isolation level.
void expectIncrementalMatchesReplay(const History &H, size_t Interval,
                                    const std::string &Context) {
  for (IsolationLevel Level : AllIsolationLevels) {
    if (Level == IsolationLevel::ReadAtomic && isSingleSession(H))
      continue; // the facade takes the Theorem 1.6 fast path there
    CheckReport Replay = replayReference(H, Level);

    CheckOptions Options;
    Options.Threads = 1;
    CheckReport OneShot = detail::checkOneShot(H, Level, Options);
    expectSameReport(Replay, OneShot,
                     Context + " one-shot level " + isolationLevelName(Level));

    MonitorOptions MonitorOpts;
    MonitorOpts.Level = Level;
    MonitorOpts.Check = Options;
    MonitorOpts.CheckIntervalTxns = Interval;
    Monitor M(MonitorOpts);
    M.replay(H);
    expectSameReport(Replay, M.finalize(),
                     Context + " interval " + std::to_string(Interval) +
                         " level " + isolationLevelName(Level));
  }
}

} // namespace

/// Clean generated histories: benchmark x consistency mode x cadence.
class IncrementalEquivalenceClean
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(IncrementalEquivalenceClean, MatchesReplayEngine) {
  auto [BenchIdx, ModeIdx, Interval] = GetParam();
  GenerateParams P;
  P.Bench = static_cast<Benchmark>(BenchIdx);
  P.Mode = static_cast<ConsistencyMode>(ModeIdx);
  P.Sessions = 6;
  P.Txns = 500;
  P.Seed = static_cast<uint64_t>(BenchIdx * 31 + ModeIdx * 7 + Interval);
  P.AbortProbability = ModeIdx % 2 == 0 ? 0.05 : 0.0;
  History H = generateHistory(P);
  expectIncrementalMatchesReplay(H, static_cast<size_t>(Interval),
                                 benchmarkName(P.Bench));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, IncrementalEquivalenceClean,
    ::testing::Combine(::testing::Range(0, 4),          // benchmarks
                       ::testing::Range(0, 4),          // consistency modes
                       ::testing::Values(1, 17, 128))); // flush cadence

/// Anomaly-injected histories: every injected kind, tight and loose
/// cadences — the violating paths, including incremental cycle detection
/// and witness extraction at finalize, must match the replay engine too.
class IncrementalEquivalenceInjected
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(IncrementalEquivalenceInjected, MatchesReplayEngine) {
  auto [KindIdx, Interval] = GetParam();
  GenerateParams P;
  P.Bench = Benchmark::CTwitter;
  P.Mode = ConsistencyMode::Serializable;
  P.Sessions = 6;
  P.Txns = 400;
  P.Seed = static_cast<uint64_t>(KindIdx * 13 + Interval + 2);
  History Base = generateHistory(P);
  std::string Err;
  std::optional<History> H = injectAnomaly(
      Base, static_cast<AnomalyKind>(KindIdx), P.Seed * 5 + 1, &Err);
  ASSERT_TRUE(H) << Err;
  expectIncrementalMatchesReplay(
      *H, static_cast<size_t>(Interval),
      anomalyKindName(static_cast<AnomalyKind>(KindIdx)));
}

INSTANTIATE_TEST_SUITE_P(Sweep, IncrementalEquivalenceInjected,
                         ::testing::Combine(::testing::Range(0, 7),
                                            ::testing::Values(1, 64)));

/// The adopt fast path feeds the engine its first delta at the first
/// explicit check; the finalize report must still be canonical.
TEST(IncrementalEngine, AdoptThenCheckStaysBitIdentical) {
  GenerateParams P;
  P.Bench = Benchmark::Rubis;
  P.Mode = ConsistencyMode::Causal;
  P.Sessions = 6;
  P.Txns = 400;
  P.Seed = 5;
  History H = generateHistory(P);
  for (IsolationLevel Level : AllIsolationLevels) {
    CheckOptions Options;
    Options.Threads = 1;
    MonitorOptions MonitorOpts;
    MonitorOpts.Level = Level;
    MonitorOpts.Check = Options;
    Monitor M(MonitorOpts);
    M.adopt(H);
    EXPECT_TRUE(M.check());
    expectSameReport(detail::checkOneShot(H, Level, Options), M.finalize(),
                     std::string("adopt+check level ") +
                         isolationLevelName(Level));
  }
}

/// Retroactive wr resolution with per-commit cadence: a read that precedes
/// its writer in stream order exercises the dirty re-propagation of the
/// happens-before rows and the replacement of per-reader inferences.
TEST(IncrementalEngine, RetroactiveResolutionPropagatesCc) {
  MonitorOptions Options;
  Options.Level = IsolationLevel::CausalConsistency;
  Options.CheckIntervalTxns = 1;
  CollectingSink Sink;
  Monitor M(Options, &Sink);
  SessionId S0 = M.addSession();
  SessionId S1 = M.addSession();
  SessionId S2 = M.addSession();

  // s0 reads (5, 50) before anyone wrote it.
  TxnId Reader = M.beginTxn(S0);
  M.read(Reader, 5, 50);
  M.commit(Reader);
  // A chain of commits after it in other sessions.
  TxnId Mid = M.beginTxn(S1);
  M.write(Mid, 6, 60);
  M.commit(Mid);
  TxnId Tail = M.beginTxn(S0);
  M.read(Tail, 6, 60);
  M.commit(Tail);
  // The missing writer arrives late, in a third session.
  TxnId Writer = M.beginTxn(S2);
  M.write(Writer, 5, 50);
  M.commit(Writer);

  CheckReport Report = M.finalize();
  EXPECT_TRUE(Report.Consistent) << "retro-resolved stream is clean";
  EXPECT_TRUE(Sink.Violations.empty());
}

/// Windowed sweeps: cadence x window size on a long clean causal stream.
/// The window must stay bounded, evictions must happen, and no false
/// violation may appear — eviction keeps every persisted fact consistent
/// with the shrunken window.
class IncrementalWindowedClean
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(IncrementalWindowedClean, BoundedAndFalsePositiveFree) {
  auto [Interval, Window] = GetParam();
  GenerateParams P;
  P.Bench = Benchmark::CTwitter;
  P.Mode = ConsistencyMode::Causal;
  P.Sessions = 8;
  P.Txns = 3000;
  P.Seed = static_cast<uint64_t>(Interval + Window);
  History H = generateHistory(P);

  MonitorOptions Options;
  Options.Level = IsolationLevel::CausalConsistency;
  Options.CheckIntervalTxns = static_cast<size_t>(Interval);
  Options.WindowTxns = static_cast<size_t>(Window);
  CollectingSink Sink;
  Monitor M(Options, &Sink);
  size_t MaxLive = 0;
  while (M.numSessions() < H.numSessions())
    M.addSession();
  for (TxnId Id = 0; Id < H.numTxns(); ++Id) {
    const Transaction &T = H.txn(Id);
    TxnId Mid = M.beginTxn(T.Session);
    for (const Operation &Op : T.Ops)
      M.append(Mid, Op);
    if (T.Committed)
      M.commit(Mid);
    else
      M.abortTxn(Mid);
    MaxLive = std::max(MaxLive, static_cast<size_t>(M.stats().LiveTxns));
  }
  CheckReport Report = M.finalize();

  EXPECT_TRUE(Report.Consistent);
  EXPECT_TRUE(Sink.Violations.empty());
  const MonitorStats &S = M.stats();
  EXPECT_GT(S.EvictedTxns, 0u);
  EXPECT_LE(MaxLive, static_cast<size_t>(Window + Interval) + 16);
}

INSTANTIATE_TEST_SUITE_P(Sweep, IncrementalWindowedClean,
                         ::testing::Combine(::testing::Values(32, 128),
                                            ::testing::Values(200, 800)));

/// Windowed mode still catches an in-window anomaly after heavy eviction,
/// at every cadence.
class IncrementalWindowedInjected : public ::testing::TestWithParam<int> {};

TEST_P(IncrementalWindowedInjected, DetectsInWindowAnomaly) {
  int Interval = GetParam();
  MonitorOptions Options;
  Options.Level = IsolationLevel::CausalConsistency;
  Options.CheckIntervalTxns = static_cast<size_t>(Interval);
  Options.WindowTxns = 120;
  CollectingSink Sink;
  Monitor M(Options, &Sink);
  SessionId S0 = M.addSession();
  SessionId S1 = M.addSession();

  Value V = 1;
  for (int I = 0; I < 1200; ++I) {
    TxnId T = M.beginTxn(S0);
    M.write(T, static_cast<Key>(I % 5), V);
    M.read(T, static_cast<Key>(I % 5), V);
    ++V;
    M.commit(T);
  }
  ASSERT_GT(M.stats().EvictedTxns, 0u);

  // A causal violation gadget entirely inside the window: t_a writes two
  // keys; t_b reads one and writes a third; t_c reads the third but an
  // older value of the first — inferring a cycle under CC.
  TxnId A = M.beginTxn(S1);
  M.write(A, 900, 9001);
  M.write(A, 901, 9011);
  M.commit(A);
  TxnId B = M.beginTxn(S1);
  M.read(B, 900, 9001);
  M.write(B, 900, 9002);
  M.commit(B);
  TxnId C = M.beginTxn(S0);
  M.read(C, 900, 9002);
  M.commit(C);
  TxnId D = M.beginTxn(S0);
  M.read(D, 900, 9001); // stale: B's overwrite happens-before D
  M.commit(D);
  M.check();

  EXPECT_TRUE(M.hadViolation());
  EXPECT_FALSE(Sink.Violations.empty());
  CheckReport Report = M.finalize();
  EXPECT_FALSE(Report.Consistent);
}

INSTANTIATE_TEST_SUITE_P(Sweep, IncrementalWindowedInjected,
                         ::testing::Values(1, 25, 100));

/// A hung session pins the evictable prefix; ForceAbortOpenTicks unpins it
/// and reports the forced abort, and reads of the force-aborted write are
/// reported as aborted reads.
TEST(IncrementalEviction, ForceAbortUnpinsHungSession) {
  auto Drive = [](uint64_t ForceTicks, MonitorStats &StatsOut,
                  std::vector<Violation> &SinkOut) {
    MonitorOptions Options;
    Options.Level = IsolationLevel::ReadCommitted;
    Options.CheckIntervalTxns = 20;
    Options.WindowTxns = 50;
    Options.ForceAbortOpenTicks = ForceTicks;
    CollectingSink Sink;
    Monitor M(Options, &Sink);
    SessionId Hung = M.addSession();
    SessionId Busy = M.addSession();

    M.advanceTime(0);
    TxnId Stuck = M.beginTxn(Hung);
    M.write(Stuck, 7777, 1);
    // The stream keeps flowing; one transaction observes the hung write.
    TxnId Observer = M.beginTxn(Busy);
    M.read(Observer, 7777, 1);
    M.commit(Observer);
    for (int I = 0; I < 500; ++I) {
      M.advanceTime(static_cast<uint64_t>(I));
      TxnId T = M.beginTxn(Busy);
      M.write(T, static_cast<Key>(I), static_cast<Value>(I) + 10);
      M.commit(T);
    }
    M.check();
    StatsOut = M.stats();
    M.finalize();
    SinkOut = Sink.Violations;
  };

  MonitorStats Pinned;
  std::vector<Violation> PinnedSink;
  Drive(/*ForceTicks=*/0, Pinned, PinnedSink);
  // Without the policy the open transaction pins everything behind it.
  EXPECT_EQ(Pinned.EvictedTxns, 0u);
  EXPECT_GT(Pinned.LiveTxns, 400u);
  EXPECT_EQ(Pinned.ForcedAborts, 0u);

  MonitorStats Unpinned;
  std::vector<Violation> UnpinnedSink;
  Drive(/*ForceTicks=*/100, Unpinned, UnpinnedSink);
  EXPECT_EQ(Unpinned.ForcedAborts, 1u);
  EXPECT_GT(Unpinned.EvictedTxns, 0u);
  EXPECT_LT(Unpinned.LiveTxns, 200u);
  // The observer of the force-aborted write is reported.
  bool SawAbortedRead = false;
  for (const Violation &V : UnpinnedSink)
    SawAbortedRead |= V.Kind == ViolationKind::AbortedRead;
  EXPECT_TRUE(SawAbortedRead);
}

/// A force-aborted transaction's handle stays safe: late operations and
/// the eventual commit/abort on it are dropped, even after the window
/// evicted the transaction itself (regression: this used to walk off the
/// evicted prefix).
TEST(IncrementalEviction, ForceAbortedHandleStaysSafe) {
  MonitorOptions Options;
  Options.Level = IsolationLevel::ReadCommitted;
  Options.CheckIntervalTxns = 10;
  Options.WindowTxns = 4;
  Options.ForceAbortOpenTicks = 10;
  Monitor M(Options);
  SessionId Hung = M.addSession();
  SessionId Busy = M.addSession();
  M.advanceTime(0);
  TxnId Stuck = M.beginTxn(Hung);
  EXPECT_TRUE(M.write(Stuck, 7777, 1));
  for (int I = 0; I < 200; ++I) {
    M.advanceTime(static_cast<uint64_t>(I));
    TxnId T = M.beginTxn(Busy);
    M.write(T, static_cast<Key>(I), static_cast<Value>(I) + 10);
    M.commit(T);
  }
  ASSERT_EQ(M.stats().ForcedAborts, 1u);
  ASSERT_GT(M.stats().EvictedTxns, 0u);
  // The hung session resumes and keeps using the dead handle.
  EXPECT_TRUE(M.write(Stuck, 8888, 2));
  M.read(Stuck, 8888, 2);
  M.commit(Stuck);   // dropped: already aborted by policy
  M.abortTxn(Stuck); // dropped too
  M.finalize();
  EXPECT_EQ(M.stats().ForcedAborts, 1u);
}

/// Transactions ingested before the first timestamp are anchored at it:
/// a stream whose clock starts at a large absolute value (epoch millis)
/// must not instantly force-abort or age-evict them (regression).
TEST(IncrementalEviction, FirstTimestampAnchorsExistingTxns) {
  MonitorOptions Options;
  Options.Level = IsolationLevel::ReadCommitted;
  Options.CheckIntervalTxns = 1;
  Options.ForceAbortOpenTicks = 60000;
  Options.WindowAgeTicks = 60000;
  Monitor M(Options);
  SessionId A = M.addSession();
  SessionId B = M.addSession();
  TxnId Open = M.beginTxn(A);
  M.write(Open, 1, 10);
  TxnId Closed = M.beginTxn(B);
  M.write(Closed, 2, 20);
  M.commit(Closed);
  M.advanceTime(1753660000000ull); // first timestamp: epoch milliseconds
  TxnId T = M.beginTxn(B);
  M.write(T, 3, 30);
  M.commit(T); // triggers a flush under the new clock
  EXPECT_EQ(M.stats().ForcedAborts, 0u);
  EXPECT_EQ(M.stats().EvictedTxns, 0u);
  M.commit(Open);
  EXPECT_TRUE(M.finalize().Consistent);
}

/// Age-based eviction: closed transactions older than WindowAgeTicks leave
/// the window even without a count horizon.
TEST(IncrementalEviction, AgeHorizonEvicts) {
  MonitorOptions Options;
  Options.Level = IsolationLevel::CausalConsistency;
  Options.CheckIntervalTxns = 10;
  Options.WindowAgeTicks = 100;
  CollectingSink Sink;
  Monitor M(Options, &Sink);
  SessionId S = M.addSession();
  for (int I = 0; I < 400; ++I) {
    M.advanceTime(static_cast<uint64_t>(I * 5));
    TxnId T = M.beginTxn(S);
    M.write(T, static_cast<Key>(I), static_cast<Value>(I) + 1);
    M.commit(T);
  }
  const MonitorStats &S1 = M.stats();
  EXPECT_GT(S1.AgeEvictedTxns, 0u);
  EXPECT_GT(S1.EvictedTxns, 0u);
  // Roughly WindowAgeTicks / 5 ticks-per-txn transactions stay live
  // (modulo the flush cadence and the horizon boundary).
  EXPECT_LE(S1.LiveTxns, 100u / 5 + 10 + 5);
  CheckReport Report = M.finalize();
  EXPECT_TRUE(Report.Consistent);
  EXPECT_TRUE(Sink.Violations.empty());
}

/// The windowed pinning battery: seeded c-twitter, TPC-C and RUBiS streams,
/// clean and carrying every anomaly-injector gadget, monitored at RC/RA/CC
/// through windows of 64 and 512 transactions at flush cadences 1, 17 and
/// 64. Each case pins the verdict, the per-kind count of delivered
/// violations, and the eviction and graph counters to literal values, so
/// any change to how eviction maintains the window, the write index or the
/// saturation engine must reproduce them exactly. Run the suite with
/// AWDIT_PRINT_WINDOW_PINS=1 to print the observed lines.
namespace {

/// One pinning stream: a generated history, optionally with one instance
/// of every injectable anomaly kind planted.
History windowPinStream(Benchmark Bench, bool Injected) {
  GenerateParams P;
  P.Bench = Bench;
  P.Mode = ConsistencyMode::Causal;
  P.Sessions = 8;
  P.Txns = 1200;
  P.Seed = 40 + static_cast<uint64_t>(Bench);
  P.AbortProbability = 0.05;
  History H = generateHistory(P);
  if (!Injected)
    return H;
  for (int Kind = 0; Kind < 7; ++Kind) {
    std::string Err;
    std::optional<History> Next = injectAnomaly(
        H, static_cast<AnomalyKind>(Kind), 97 + 11 * Kind, &Err);
    EXPECT_TRUE(Next) << Err;
    if (Next)
      H = std::move(*Next);
  }
  return H;
}

struct WindowPinRun {
  CheckReport Report;
  std::vector<Violation> Delivered;
  MonitorStats Stats;
};

WindowPinRun runWindowPin(const History &H, IsolationLevel Level,
                          size_t Window, size_t Interval) {
  MonitorOptions Options;
  Options.Level = Level;
  Options.Check.Threads = 1;
  Options.CheckIntervalTxns = Interval;
  Options.WindowTxns = Window;
  CollectingSink Sink;
  Monitor M(Options, &Sink);
  M.replay(H);
  WindowPinRun Run;
  Run.Report = M.finalize();
  Run.Delivered = std::move(Sink.Violations);
  Run.Stats = M.stats();
  return Run;
}

/// "<verdict> k=<count per ViolationKind> ev=.. ewr=.. eur=.. ur=.. ge=..
/// ie=.." — the pinned observables of one run.
std::string windowPinLine(const WindowPinRun &Run) {
  size_t PerKind[9] = {};
  for (const Violation &V : Run.Delivered)
    ++PerKind[static_cast<size_t>(V.Kind)];
  std::string Line = Run.Report.Consistent ? "ok k=" : "bad k=";
  for (size_t I = 0; I < 9; ++I)
    Line += (I ? "," : "") + std::to_string(PerKind[I]);
  const MonitorStats &S = Run.Stats;
  Line += " ev=" + std::to_string(S.EvictedTxns) +
          " ewr=" + std::to_string(S.EvictedWriterReads) +
          " eur=" + std::to_string(S.EvictedUnresolvedReads) +
          " ur=" + std::to_string(S.UnresolvedReads) +
          " ge=" + std::to_string(S.GraphEdges) +
          " ie=" + std::to_string(S.InferredEdges);
  return Line;
}

constexpr Benchmark WindowPinBenches[] = {Benchmark::CTwitter,
                                          Benchmark::Tpcc, Benchmark::Rubis};
constexpr size_t WindowPinWindows[] = {64, 512};
constexpr size_t WindowPinIntervals[] = {1, 17, 64};

/// Expected lines, in sweep order: bench x {clean, injected} x window x
/// interval x level (RC, RA, CC).
const char *const WindowPinExpected[] = {
    "ok k=0,0,0,0,0,0,0,0,0 ev=1137 ewr=2370 eur=5328 ur=272 ge=87 ie=8",
    "ok k=0,0,0,0,0,0,0,0,0 ev=1137 ewr=2370 eur=5328 ur=272 ge=80 ie=1",
    "ok k=0,0,0,0,0,0,0,0,0 ev=1137 ewr=2370 eur=5328 ur=272 ge=80 ie=1",
    "ok k=0,0,0,0,0,0,0,0,0 ev=1123 ewr=2286 eur=5046 ur=288 ge=127 ie=12",
    "ok k=0,0,0,0,0,0,0,0,0 ev=1123 ewr=2286 eur=5046 ur=288 ge=119 ie=4",
    "ok k=0,0,0,0,0,0,0,0,0 ev=1123 ewr=2286 eur=5046 ur=288 ge=119 ie=4",
    "ok k=0,0,0,0,0,0,0,0,0 ev=1084 ewr=1829 eur=4384 ur=363 ge=280 ie=35",
    "ok k=0,0,0,0,0,0,0,0,0 ev=1084 ewr=1829 eur=4384 ur=363 ge=264 ie=15",
    "ok k=0,0,0,0,0,0,0,0,0 ev=1084 ewr=1829 eur=4384 ur=363 ge=263 ie=12",
    "ok k=0,0,0,0,0,0,0,0,0 ev=689 ewr=3685 eur=1566 ur=434 ge=1860 ie=310",
    "ok k=0,0,0,0,0,0,0,0,0 ev=689 ewr=3685 eur=1566 ur=434 ge=1741 ie=166",
    "ok k=0,0,0,0,0,0,0,0,0 ev=689 ewr=3685 eur=1566 ur=434 ge=1676 ie=71",
    "ok k=0,0,0,0,0,0,0,0,0 ev=675 ewr=3410 eur=1534 ur=429 ge=1940 ie=328",
    "ok k=0,0,0,0,0,0,0,0,0 ev=675 ewr=3410 eur=1534 ur=429 ge=1815 ie=176",
    "ok k=0,0,0,0,0,0,0,0,0 ev=675 ewr=3410 eur=1534 ur=429 ge=1745 ie=74",
    "ok k=0,0,0,0,0,0,0,0,0 ev=636 ewr=2778 eur=1465 ur=411 ge=2102 ie=354",
    "ok k=0,0,0,0,0,0,0,0,0 ev=636 ewr=2778 eur=1465 ur=411 ge=1971 ie=194",
    "ok k=0,0,0,0,0,0,0,0,0 ev=636 ewr=2778 eur=1465 ur=411 ge=1895 ie=82",
    "bad k=0,2,1,0,0,0,0,1,3 ev=1149 ewr=2383 eur=5369 ur=231 ge=87 ie=8",
    "bad k=0,2,1,0,0,0,0,1,2 ev=1149 ewr=2383 eur=5369 ur=231 ge=82 ie=3",
    "bad k=0,2,1,0,0,0,0,1,1 ev=1149 ewr=2383 eur=5369 ur=231 ge=81 ie=2",
    "bad k=0,2,1,0,0,0,0,1,2 ev=1143 ewr=2338 eur=5120 ur=223 ge=97 ie=9",
    "bad k=0,2,1,0,0,0,0,1,2 ev=1143 ewr=2338 eur=5120 ur=223 ge=91 ie=3",
    "bad k=0,2,1,0,0,0,0,1,1 ev=1143 ewr=2338 eur=5120 ur=223 ge=90 ie=2",
    "bad k=0,2,1,0,0,0,0,1,0 ev=1085 ewr=1814 eur=4422 ur=363 ge=265 ie=3",
    "bad k=0,2,1,0,0,0,0,1,2 ev=1085 ewr=1814 eur=4422 ur=363 ge=279 ie=17",
    "bad k=0,2,1,0,0,0,0,1,1 ev=1085 ewr=1814 eur=4422 ur=363 ge=277 ie=13",
    "bad k=0,4,1,0,0,0,0,1,3 ev=701 ewr=3906 eur=1576 ur=425 ge=1758 ie=298",
    "bad k=0,4,1,0,0,0,0,1,2 ev=701 ewr=3906 eur=1576 ur=425 ge=1640 ie=157",
    "bad k=0,4,1,0,0,0,0,1,1 ev=701 ewr=3906 eur=1576 ur=425 ge=1578 ie=66",
    "bad k=0,4,1,0,0,0,0,1,2 ev=695 ewr=3601 eur=1549 ur=418 ge=1819 ie=303",
    "bad k=0,4,1,0,0,0,0,1,2 ev=695 ewr=3601 eur=1549 ur=418 ge=1702 ie=162",
    "bad k=0,4,1,0,0,0,0,1,1 ev=695 ewr=3601 eur=1549 ur=418 ge=1638 ie=69",
    "bad k=0,4,1,0,0,0,0,1,0 ev=637 ewr=2783 eur=1471 ur=407 ge=1965 ie=176",
    "bad k=0,4,1,0,0,0,0,1,2 ev=637 ewr=2783 eur=1471 ur=407 ge=1992 ie=196",
    "bad k=0,4,1,0,0,0,0,1,1 ev=637 ewr=2783 eur=1471 ur=407 ge=1915 ie=83",
    "ok k=0,0,0,0,0,0,0,0,0 ev=1137 ewr=2999 eur=10422 ur=202 ge=225 ie=101",
    "ok k=0,0,0,0,0,0,0,0,0 ev=1137 ewr=2999 eur=10422 ur=202 ge=207 ie=71",
    "ok k=0,0,0,0,0,0,0,0,0 ev=1137 ewr=2999 eur=10422 ur=202 ge=185 ie=21",
    "ok k=0,0,0,0,0,0,0,0,0 ev=1128 ewr=2209 eur=10220 ur=215 ge=288 ie=139",
    "ok k=0,0,0,0,0,0,0,0,0 ev=1128 ewr=2209 eur=10220 ur=215 ge=264 ie=94",
    "ok k=0,0,0,0,0,0,0,0,0 ev=1128 ewr=2209 eur=10220 ur=215 ge=230 ie=26",
    "ok k=0,0,0,0,0,0,0,0,0 ev=1090 ewr=1383 eur=9521 ur=326 ge=526 ie=291",
    "ok k=0,0,0,0,0,0,0,0,0 ev=1090 ewr=1383 eur=9521 ur=326 ge=441 ie=161",
    "ok k=0,0,0,0,0,0,0,0,0 ev=1090 ewr=1383 eur=9521 ur=326 ge=380 ie=45",
    "ok k=0,0,0,0,0,0,0,0,0 ev=689 ewr=3534 eur=5178 ur=391 ge=5410 ie=4014",
    "ok k=0,0,0,0,0,0,0,0,0 ev=689 ewr=3534 eur=5178 ur=391 ge=3333 ie=1338",
    "ok k=0,0,0,0,0,0,0,0,0 ev=689 ewr=3534 eur=5178 ur=391 ge=2606 ie=258",
    "ok k=0,0,0,0,0,0,0,0,0 ev=680 ewr=2939 eur=5144 ur=379 ge=5560 ie=4132",
    "ok k=0,0,0,0,0,0,0,0,0 ev=680 ewr=2939 eur=5144 ur=379 ge=3411 ie=1373",
    "ok k=0,0,0,0,0,0,0,0,0 ev=680 ewr=2939 eur=5144 ur=379 ge=2659 ie=260",
    "ok k=0,0,0,0,0,0,0,0,0 ev=642 ewr=2216 eur=4861 ur=351 ge=6063 ie=4516",
    "ok k=0,0,0,0,0,0,0,0,0 ev=642 ewr=2216 eur=4861 ur=351 ge=3715 ie=1488",
    "ok k=0,0,0,0,0,0,0,0,0 ev=642 ewr=2216 eur=4861 ur=351 ge=2889 ie=283",
    "bad k=0,319,1,0,0,0,0,1,3 ev=1149 ewr=3028 eur=10462 ur=162 ge=147 ie=38",
    "bad k=0,319,1,0,0,0,0,1,2 ev=1149 ewr=3028 eur=10462 ur=162 ge=138 ie=22",
    "bad k=0,319,1,0,0,0,0,1,1 ev=1149 ewr=3028 eur=10462 ur=162 ge=127 ie=2",
    "bad k=0,361,1,0,0,0,0,1,3 ev=1147 ewr=2244 eur=10278 ur=157 ge=154 ie=40",
    "bad k=0,361,1,0,0,0,0,1,2 ev=1147 ewr=2244 eur=10278 ur=157 ge=144 ie=22",
    "bad k=0,361,1,0,0,0,0,1,1 ev=1147 ewr=2244 eur=10278 ur=157 ge=133 ie=2",
    "bad k=0,603,1,0,0,0,0,1,0 ev=1090 ewr=1383 eur=9521 ur=326 ge=354 ie=70",
    "bad k=0,603,1,0,0,0,0,1,2 ev=1090 ewr=1383 eur=9521 ur=326 ge=365 ie=80",
    "bad k=0,603,1,0,0,0,0,1,1 ev=1090 ewr=1383 eur=9521 ur=326 ge=314 ie=4",
    "bad k=0,2900,1,0,0,0,0,1,3 ev=701 ewr=3609 eur=5181 ur=388 ge=4786 ie=3474",
    "bad k=0,2900,1,0,0,0,0,1,2 ev=701 ewr=3609 eur=5181 ur=388 ge=2790 ie=911",
    "bad k=0,2900,1,0,0,0,0,1,1 ev=701 ewr=3609 eur=5181 ur=388 ge=2111 ie=47",
    "bad k=0,2931,1,0,0,0,0,1,3 ev=699 ewr=3018 eur=5148 ur=375 ge=4828 ie=3504",
    "bad k=0,2931,1,0,0,0,0,1,2 ev=699 ewr=3018 eur=5148 ur=375 ge=2811 ie=915",
    "bad k=0,2931,1,0,0,0,0,1,1 ev=699 ewr=3018 eur=5148 ur=375 ge=2129 ie=48",
    "bad k=0,3143,1,0,0,0,0,1,0 ev=642 ewr=2216 eur=4861 ur=351 ge=5210 ie=3601",
    "bad k=0,3143,1,0,0,0,0,1,2 ev=642 ewr=2216 eur=4861 ur=351 ge=3232 ie=1045",
    "bad k=0,3143,1,0,0,0,0,1,1 ev=642 ewr=2216 eur=4861 ur=351 ge=2444 ie=53",
    "ok k=0,0,0,0,0,0,0,0,0 ev=1137 ewr=1248 eur=4598 ur=172 ge=137 ie=19",
    "ok k=0,0,0,0,0,0,0,0,0 ev=1137 ewr=1248 eur=4598 ur=172 ge=136 ie=15",
    "ok k=0,0,0,0,0,0,0,0,0 ev=1137 ewr=1248 eur=4598 ur=172 ge=132 ie=10",
    "ok k=0,0,0,0,0,0,0,0,0 ev=1126 ewr=1236 eur=4408 ur=190 ge=165 ie=23",
    "ok k=0,0,0,0,0,0,0,0,0 ev=1126 ewr=1236 eur=4408 ur=190 ge=164 ie=19",
    "ok k=0,0,0,0,0,0,0,0,0 ev=1126 ewr=1236 eur=4408 ur=190 ge=158 ie=11",
    "ok k=0,0,0,0,0,0,0,0,0 ev=1090 ewr=1054 eur=3979 ur=234 ge=282 ie=50",
    "ok k=0,0,0,0,0,0,0,0,0 ev=1090 ewr=1054 eur=3979 ur=234 ge=274 ie=36",
    "ok k=0,0,0,0,0,0,0,0,0 ev=1090 ewr=1054 eur=3979 ur=234 ge=265 ie=22",
    "ok k=0,0,0,0,0,0,0,0,0 ev=689 ewr=2194 eur=1901 ur=239 ge=2117 ie=461",
    "ok k=0,0,0,0,0,0,0,0,0 ev=689 ewr=2194 eur=1901 ur=239 ge=2006 ie=278",
    "ok k=0,0,0,0,0,0,0,0,0 ev=689 ewr=2194 eur=1901 ur=239 ge=1916 ie=140",
    "ok k=0,0,0,0,0,0,0,0,0 ev=678 ewr=2070 eur=1882 ur=234 ge=2197 ie=488",
    "ok k=0,0,0,0,0,0,0,0,0 ev=678 ewr=2070 eur=1882 ur=234 ge=2076 ie=292",
    "ok k=0,0,0,0,0,0,0,0,0 ev=678 ewr=2070 eur=1882 ur=234 ge=1981 ie=147",
    "ok k=0,0,0,0,0,0,0,0,0 ev=642 ewr=1720 eur=1828 ur=228 ge=2423 ie=557",
    "ok k=0,0,0,0,0,0,0,0,0 ev=642 ewr=1720 eur=1828 ur=228 ge=2279 ie=328",
    "ok k=0,0,0,0,0,0,0,0,0 ev=642 ewr=1720 eur=1828 ur=228 ge=2169 ie=164",
    "bad k=0,2,1,0,0,0,0,1,3 ev=1149 ewr=1258 eur=4632 ur=138 ge=131 ie=18",
    "bad k=0,2,1,0,0,0,0,1,2 ev=1149 ewr=1258 eur=4632 ur=138 ge=129 ie=15",
    "bad k=0,2,1,0,0,0,0,1,1 ev=1149 ewr=1258 eur=4632 ur=138 ge=125 ie=10",
    "bad k=0,2,1,0,0,0,0,1,2 ev=1145 ewr=1261 eur=4458 ur=146 ge=144 ie=19",
    "bad k=0,2,1,0,0,0,0,1,2 ev=1145 ewr=1261 eur=4458 ur=146 ge=143 ie=16",
    "bad k=0,2,1,0,0,0,0,1,1 ev=1145 ewr=1261 eur=4458 ur=146 ge=139 ie=11",
    "bad k=0,2,1,0,0,0,0,1,0 ev=1091 ewr=1071 eur=3988 ur=237 ge=261 ie=6",
    "bad k=0,2,1,0,0,0,0,1,2 ev=1091 ewr=1071 eur=3988 ur=237 ge=286 ie=37",
    "bad k=0,2,1,0,0,0,0,1,1 ev=1091 ewr=1071 eur=3988 ur=237 ge=276 ie=22",
    "bad k=0,10,1,0,0,0,0,1,3 ev=701 ewr=2239 eur=1903 ur=238 ge=2073 ie=445",
    "bad k=0,10,1,0,0,0,0,1,2 ev=701 ewr=2239 eur=1903 ur=238 ge=1969 ie=271",
    "bad k=0,10,1,0,0,0,0,1,1 ev=701 ewr=2239 eur=1903 ur=238 ge=1881 ie=136",
    "bad k=0,10,1,0,0,0,0,1,2 ev=697 ewr=2140 eur=1888 ur=231 ge=2104 ie=456",
    "bad k=0,10,1,0,0,0,0,1,2 ev=697 ewr=2140 eur=1888 ur=231 ge=1996 ie=277",
    "bad k=0,10,1,0,0,0,0,1,1 ev=697 ewr=2140 eur=1888 ur=231 ge=1905 ie=138",
    "bad k=0,10,1,0,0,0,0,1,0 ev=643 ewr=1723 eur=1830 ur=228 ge=2264 ie=275",
    "bad k=0,10,1,0,0,0,0,1,2 ev=643 ewr=1723 eur=1830 ur=228 ge=2293 ie=328",
    "bad k=0,10,1,0,0,0,0,1,1 ev=643 ewr=1723 eur=1830 ur=228 ge=2183 ie=164",
};

/// Full-history soundness of one windowed report: the classic checker at
/// \p Level must call \p H inconsistent, every so/wr edge of a reported
/// witness must be an edge of \p H, and a read-level violation must name
/// a read of \p H resolved to the reported writer.
void expectSoundAgainstFullHistory(const History &H, IsolationLevel Level,
                                   const std::vector<Violation> &Delivered,
                                   const std::string &Context) {
  if (Delivered.empty())
    return;
  std::vector<Violation> Classic;
  bool Consistent = false;
  switch (Level) {
  case IsolationLevel::ReadCommitted:
    Consistent = checkRc(H, Classic, 16, nullptr);
    break;
  case IsolationLevel::ReadAtomic:
    Consistent = checkRa(H, Classic, 16, nullptr);
    break;
  case IsolationLevel::CausalConsistency:
    Consistent = checkCc(H, Classic, 16, nullptr);
    break;
  }
  EXPECT_FALSE(Consistent) << Context << ": windowed violation, clean history";
  for (const Violation &V : Delivered) {
    for (const WitnessEdge &E : V.Cycle) {
      ASSERT_LT(E.From, H.numTxns()) << Context;
      ASSERT_LT(E.To, H.numTxns()) << Context;
      if (E.Kind == EdgeKind::So) {
        EXPECT_EQ(H.soSuccessor(E.From), E.To)
            << Context << ": so edge t" << E.From << "->t" << E.To;
      } else if (E.Kind == EdgeKind::Wr) {
        const std::vector<TxnId> &Froms = H.txn(E.To).ReadFroms;
        EXPECT_NE(std::find(Froms.begin(), Froms.end(), E.From), Froms.end())
            << Context << ": wr edge t" << E.From << "->t" << E.To;
      }
    }
    if (!V.Cycle.empty() || V.T == NoTxn)
      continue;
    ASSERT_LT(V.T, H.numTxns()) << Context;
    const Transaction &T = H.txn(V.T);
    auto It = std::find_if(T.Reads.begin(), T.Reads.end(),
                           [&](const ReadInfo &RI) {
                             return RI.OpIndex == V.OpIndex;
                           });
    ASSERT_NE(It, T.Reads.end()) << Context << ": no read at t" << V.T;
    if (V.Other != NoTxn) {
      EXPECT_EQ(It->Writer, V.Other) << Context << ": read of t" << V.T;
    }
  }
}

/// One pinning case: where it sits in the sweep, the stream, and the run.
struct WindowPinCase {
  std::string Context;
  const History *H;
  IsolationLevel Level;
  WindowPinRun Run;
};

/// Runs the whole sweep once per test binary; both tests below read it.
const std::vector<WindowPinCase> &windowPinSweep() {
  static std::vector<History> Streams;
  static std::vector<WindowPinCase> Cases;
  if (!Cases.empty())
    return Cases;
  for (Benchmark Bench : WindowPinBenches)
    for (bool Injected : {false, true})
      Streams.push_back(windowPinStream(Bench, Injected));
  size_t Stream = 0;
  for (Benchmark Bench : WindowPinBenches) {
    for (bool Injected : {false, true}) {
      const History &H = Streams[Stream++];
      for (size_t Window : WindowPinWindows) {
        for (size_t Interval : WindowPinIntervals) {
          for (IsolationLevel Level : AllIsolationLevels) {
            std::string Context =
                std::string(benchmarkName(Bench)) +
                (Injected ? "+gadgets" : "") + " w" + std::to_string(Window) +
                " i" + std::to_string(Interval) + " " +
                isolationLevelName(Level);
            Cases.push_back({std::move(Context), &H, Level,
                             runWindowPin(H, Level, Window, Interval)});
          }
        }
      }
    }
  }
  return Cases;
}

} // namespace

TEST(IncrementalWindowPins, SweepMatchesPinnedValues) {
  const std::vector<WindowPinCase> &Cases = windowPinSweep();
  if (std::getenv("AWDIT_PRINT_WINDOW_PINS"))
    for (const WindowPinCase &C : Cases)
      std::printf("    \"%s\",\n", windowPinLine(C.Run).c_str());
  ASSERT_EQ(Cases.size(), std::size(WindowPinExpected));
  for (size_t I = 0; I < Cases.size(); ++I) {
    EXPECT_EQ(windowPinLine(Cases[I].Run), WindowPinExpected[I])
        << Cases[I].Context;
    EXPECT_GT(Cases[I].Run.Stats.EvictedTxns, 0u) << Cases[I].Context;
  }
}

/// The windowed soundness oracle: on the same streams, whatever a windowed
/// monitor reports is a real violation of the full history, judged by the
/// classic Algorithms 1-3, with its so/wr witness edges present there.
TEST(IncrementalWindowPins, ReportedViolationsAreSoundOnFullHistory) {
  size_t Checked = 0;
  for (const WindowPinCase &C : windowPinSweep()) {
    Checked += C.Run.Delivered.size();
    expectSoundAgainstFullHistory(*C.H, C.Level, C.Run.Delivered, C.Context);
  }
  EXPECT_GT(Checked, 0u) << "the gadget streams must report something";
}

/// Streaming foreign-format parsers: chunking-invariant and equal to the
/// batch parser + one-shot checker end to end.
class StreamingForeignFormats : public ::testing::TestWithParam<int> {};

TEST_P(StreamingForeignFormats, ChunkingInvariantAndBatchEquivalent) {
  bool Plume = GetParam() == 0;
  GenerateParams P;
  P.Bench = Benchmark::Tpcc;
  P.Sessions = 4;
  P.Txns = 150;
  P.Seed = 9;
  P.AbortProbability = 0.1;
  History H = generateHistory(P);
  std::string Text = Plume ? writePlumeHistory(H) : writeDbcopHistory(H);

  std::string Err;
  std::optional<History> Batch = Plume ? parsePlumeHistory(Text, &Err)
                                       : parseDbcopHistory(Text, &Err);
  ASSERT_TRUE(Batch) << Err;
  CheckOptions Ref;
  Ref.Threads = 1;
  CheckReport Expected =
      detail::checkOneShot(*Batch, IsolationLevel::CausalConsistency, Ref);

  for (size_t Chunk : {size_t(1), size_t(7), size_t(4096)}) {
    MonitorOptions Options;
    Options.Level = IsolationLevel::CausalConsistency;
    Options.Check = Ref;
    Monitor M(Options);
    std::unique_ptr<StreamParser> Parser =
        makeStreamParser(Plume ? "plume" : "dbcop", M);
    ASSERT_TRUE(Parser);
    for (size_t Pos = 0; Pos < Text.size(); Pos += Chunk)
      ASSERT_TRUE(Parser->feed(
          std::string_view(Text).substr(Pos, Chunk), &Err))
          << Err;
    ASSERT_TRUE(Parser->finish(&Err)) << Err;
    EXPECT_EQ(Parser->committedTxns(),
              static_cast<uint64_t>(Batch->numCommitted()));
    expectSameReport(Expected, M.finalize(),
                     std::string(Plume ? "plume" : "dbcop") + " chunk " +
                         std::to_string(Chunk));
  }
}

INSTANTIATE_TEST_SUITE_P(Formats, StreamingForeignFormats,
                         ::testing::Values(0, 1));

/// Foreign-format streaming errors carry line numbers, including the
/// duplicate-write model invariant.
TEST(StreamingForeignFormats, ErrorsCarryLineNumbers) {
  {
    Monitor M;
    StreamingPlumeParser Parser(M);
    std::string Err;
    EXPECT_FALSE(Parser.feed("0,0,w,1,10\n0,0,r\n", &Err));
    EXPECT_NE(Err.find("line 2"), std::string::npos) << Err;
  }
  {
    Monitor M;
    StreamingPlumeParser Parser(M);
    std::string Err;
    EXPECT_FALSE(Parser.feed("0,0,w,1,10\n1,1,w,1,10\n", &Err));
    EXPECT_NE(Err.find("line 2"), std::string::npos) << Err;
    EXPECT_NE(Err.find("duplicate write"), std::string::npos) << Err;
  }
  {
    Monitor M;
    StreamingDbcopParser Parser(M);
    std::string Err;
    EXPECT_FALSE(Parser.feed("sessions 1\ntxn 0 1 2\nW 1 10\nW 1 10\n",
                             &Err));
    EXPECT_NE(Err.find("line 4"), std::string::npos) << Err;
    EXPECT_NE(Err.find("duplicate write"), std::string::npos) << Err;
  }
  {
    Monitor M;
    StreamingDbcopParser Parser(M);
    std::string Err;
    EXPECT_FALSE(Parser.feed("txn 0 1 1\n", &Err));
    EXPECT_NE(Err.find("line 1"), std::string::npos) << Err;
    EXPECT_NE(Err.find("header"), std::string::npos) << Err;
  }
}

/// The native streaming clock directive drives the monitor clock.
TEST(StreamingForeignFormats, NativeClockDirective) {
  MonitorOptions Options;
  Options.Level = IsolationLevel::ReadCommitted;
  Options.CheckIntervalTxns = 1;
  Options.WindowAgeTicks = 10;
  Monitor M(Options);
  StreamingTextParser Parser(M);
  std::string Err;
  std::string Stream;
  for (int I = 0; I < 50; ++I) {
    Stream += "t " + std::to_string(I * 5) + "\n";
    Stream += "b 0\nw " + std::to_string(I) + " " + std::to_string(I + 1) +
              "\nc\n";
  }
  ASSERT_TRUE(Parser.feed(Stream, &Err)) << Err;
  ASSERT_TRUE(Parser.finish(&Err)) << Err;
  EXPECT_GT(M.stats().AgeEvictedTxns, 0u);
}
