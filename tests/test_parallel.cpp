//===- tests/test_parallel.cpp - Parallel vs sequential engine tests ---------===//
//
// The parallel-engine battery: on generated CTwitter/TPC-C/RUBiS histories
// (clean, across consistency modes, and with injected anomalies), the
// sharded parallel engine must produce verdicts, violation lists, stats,
// and witness cycles identical to the sequential engine at every isolation
// level and thread count. Also covers the per-key shard index invariants.
//
//===----------------------------------------------------------------------===//

#include "checker/check_cc.h"
#include "checker/check_ra.h"
#include "checker/check_rc.h"
#include "checker/checker.h"
#include "history/key_shard_index.h"
#include "sim/anomaly_injector.h"
#include "support/thread_pool.h"
#include "tests/test_util.h"
#include "workload/generator.h"

#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <string>

using namespace awdit;
using namespace awdit::test;

namespace {

/// Runs one check with \p Threads workers, forcing the parallel path for
/// Threads > 1 regardless of history size.
CheckReport runWithThreads(const History &H, IsolationLevel Level,
                           unsigned Threads) {
  CheckOptions Options;
  Options.Threads = Threads;
  Options.ParallelThreshold = 0;
  return checkIsolation(H, Level, Options);
}

void expectSameReport(const CheckReport &Seq, const CheckReport &Par,
                      const char *Context) {
  EXPECT_EQ(Seq.Consistent, Par.Consistent) << Context;
  ASSERT_EQ(Seq.Violations.size(), Par.Violations.size()) << Context;
  for (size_t I = 0; I < Seq.Violations.size(); ++I) {
    const Violation &A = Seq.Violations[I], &B = Par.Violations[I];
    EXPECT_EQ(A.Kind, B.Kind) << Context << " violation " << I;
    EXPECT_EQ(A.T, B.T) << Context << " violation " << I;
    EXPECT_EQ(A.OpIndex, B.OpIndex) << Context << " violation " << I;
    EXPECT_EQ(A.Other, B.Other) << Context << " violation " << I;
    ASSERT_EQ(A.Cycle.size(), B.Cycle.size())
        << Context << " violation " << I;
    for (size_t E = 0; E < A.Cycle.size(); ++E) {
      EXPECT_EQ(A.Cycle[E].From, B.Cycle[E].From) << Context;
      EXPECT_EQ(A.Cycle[E].To, B.Cycle[E].To) << Context;
      EXPECT_EQ(A.Cycle[E].Kind, B.Cycle[E].Kind) << Context;
    }
  }
  EXPECT_EQ(Seq.Stats.InferredEdges, Par.Stats.InferredEdges) << Context;
  EXPECT_EQ(Seq.Stats.GraphEdges, Par.Stats.GraphEdges) << Context;
}

void expectParallelMatchesSequential(const History &H, const char *Context) {
  for (IsolationLevel Level : AllIsolationLevels) {
    CheckReport Seq = runWithThreads(H, Level, 1);
    for (unsigned Threads : {2u, 4u}) {
      CheckReport Par = runWithThreads(H, Level, Threads);
      std::string Label = std::string(Context) + " level " +
                          isolationLevelName(Level) + " threads " +
                          std::to_string(Threads);
      expectSameReport(Seq, Par, Label.c_str());
    }
  }
}

} // namespace

/// Sweep over benchmark x consistency mode x seed on clean generated
/// histories: the paper's three named workloads plus the random one.
class ParallelDifferentialClean
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(ParallelDifferentialClean, MatchesSequential) {
  auto [BenchIdx, ModeIdx, Seed] = GetParam();
  GenerateParams P;
  P.Bench = static_cast<Benchmark>(BenchIdx);
  P.Mode = static_cast<ConsistencyMode>(ModeIdx);
  P.Sessions = 8;
  P.Txns = 1200;
  P.Seed = static_cast<uint64_t>(Seed * 101 + ModeIdx);
  P.AbortProbability = Seed % 2 == 0 ? 0.05 : 0.0;
  History H = generateHistory(P);
  expectParallelMatchesSequential(H, benchmarkName(P.Bench));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ParallelDifferentialClean,
    ::testing::Combine(::testing::Range(0, 4),   // benchmarks
                       ::testing::Range(0, 4),   // consistency modes
                       ::testing::Range(1, 3))); // seeds

/// Sweep over injected anomaly kinds: the violating paths (including
/// witness extraction) must also match exactly.
class ParallelDifferentialInjected
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ParallelDifferentialInjected, MatchesSequential) {
  auto [KindIdx, BenchIdx] = GetParam();
  GenerateParams P;
  P.Bench = static_cast<Benchmark>(BenchIdx);
  P.Mode = ConsistencyMode::Serializable;
  P.Sessions = 8;
  P.Txns = 800;
  P.Seed = static_cast<uint64_t>(KindIdx * 31 + BenchIdx + 1);
  History Base = generateHistory(P);
  std::string Err;
  std::optional<History> H = injectAnomaly(
      Base, static_cast<AnomalyKind>(KindIdx), P.Seed * 13 + 1, &Err);
  ASSERT_TRUE(H) << Err;
  expectParallelMatchesSequential(
      *H, anomalyKindName(static_cast<AnomalyKind>(KindIdx)));
}

INSTANTIATE_TEST_SUITE_P(Sweep, ParallelDifferentialInjected,
                         ::testing::Combine(::testing::Range(0, 7),
                                            ::testing::Range(1, 4)));

/// TPC-C has the highest distinct/raw inferred-edge ratio of the
/// generated workloads, so the batch sinks' repeat filter drops the least
/// there and the canonical sort + unique does the most: the parallel
/// engine, the sequential engine and the classic Alg. 1-3 functions must
/// still agree on verdicts, stats and witnesses.
TEST(ParallelDifferentialTpcc, MatchesSequentialAndClassic) {
  for (ConsistencyMode Mode :
       {ConsistencyMode::Causal, ConsistencyMode::ReadCommitted}) {
    GenerateParams P;
    P.Bench = Benchmark::Tpcc;
    P.Mode = Mode;
    P.Sessions = 10;
    P.Txns = 5000;
    P.Seed = 17;
    History H = generateHistory(P);
    expectParallelMatchesSequential(H, "tpcc");
    for (IsolationLevel Level : AllIsolationLevels) {
      CheckReport Classic;
      SaturationStats Sat;
      Classic.Consistent =
          Level == IsolationLevel::ReadCommitted
              ? checkRc(H, Classic.Violations, 16, &Sat)
          : Level == IsolationLevel::ReadAtomic
              ? checkRa(H, Classic.Violations, 16, &Sat)
              : checkCc(H, Classic.Violations, 16, &Sat);
      Classic.Stats.InferredEdges = Sat.InferredEdges;
      Classic.Stats.GraphEdges = Sat.GraphEdges;
      std::string Label = std::string("tpcc classic level ") +
                          isolationLevelName(Level) + " mode " +
                          std::to_string(static_cast<int>(Mode));
      expectSameReport(Classic, runWithThreads(H, Level, 1), Label.c_str());
      expectSameReport(Classic, runWithThreads(H, Level, 4), Label.c_str());
    }
  }
}

/// The default configuration (Threads = 0 = hardware concurrency) must
/// agree with the sequential engine above the parallel threshold.
TEST(ParallelDefaults, AutoThreadsMatchesSequentialAboveThreshold) {
  GenerateParams P;
  P.Bench = Benchmark::CTwitter;
  P.Sessions = 16;
  P.Txns = 5000;
  P.Seed = 99;
  History H = generateHistory(P);
  ASSERT_GE(H.numTxns(), CheckOptions().ParallelThreshold);
  for (IsolationLevel Level : AllIsolationLevels) {
    CheckReport Seq = runWithThreads(H, Level, 1);
    CheckReport Def = checkIsolation(H, Level); // default options
    EXPECT_EQ(Seq.Consistent, Def.Consistent)
        << isolationLevelName(Level);
    EXPECT_EQ(Seq.Violations.size(), Def.Violations.size())
        << isolationLevelName(Level);
    EXPECT_EQ(Seq.Stats.InferredEdges, Def.Stats.InferredEdges)
        << isolationLevelName(Level);
  }
}

/// Witness-count limit must behave identically in both engines.
TEST(ParallelDefaults, MaxWitnessesHonored) {
  GenerateParams P;
  P.Bench = Benchmark::Rubis;
  P.Mode = ConsistencyMode::Serializable;
  P.Sessions = 6;
  P.Txns = 600;
  P.Seed = 7;
  History Base = generateHistory(P);
  std::string Err;
  std::optional<History> H =
      injectAnomaly(Base, AnomalyKind::CausalityCycle, 21, &Err);
  ASSERT_TRUE(H) << Err;
  for (size_t MaxW : {size_t(0), size_t(1), size_t(4)}) {
    CheckOptions Options;
    Options.MaxWitnesses = MaxW;
    Options.ParallelThreshold = 0;
    Options.Threads = 1;
    CheckReport Seq = checkIsolation(*H, IsolationLevel::CausalConsistency,
                                     Options);
    Options.Threads = 4;
    CheckReport Par = checkIsolation(*H, IsolationLevel::CausalConsistency,
                                     Options);
    EXPECT_EQ(Seq.Violations.size(), Par.Violations.size())
        << "MaxWitnesses = " << MaxW;
  }
}

/// Key shard index invariants: shards partition the keys; writer lists are
/// grouped by ascending session and so-ordered; reads are in scan order.
TEST(KeyShardIndex, ShardsPartitionKeysWithOrderedEntries) {
  GenerateParams P;
  P.Bench = Benchmark::Tpcc;
  P.Sessions = 8;
  P.Txns = 600;
  P.Seed = 5;
  History H = generateHistory(P);

  constexpr size_t NumShards = 7;
  ThreadPool Pool(4);
  KeyShardIndex Parallel(H, NumShards, Pool);
  KeyShardIndex Sequential(H, NumShards);
  ASSERT_EQ(Parallel.numShards(), NumShards);

  std::set<Key> Seen;
  for (size_t S = 0; S < NumShards; ++S) {
    const std::vector<KeyEntry> &Par = Parallel.shard(S);
    const std::vector<KeyEntry> &Seq = Sequential.shard(S);
    ASSERT_EQ(Par.size(), Seq.size()) << "shard " << S;
    for (size_t I = 0; I < Par.size(); ++I) {
      const KeyEntry &E = Par[I];
      EXPECT_EQ(E.K, Seq[I].K);
      EXPECT_EQ(KeyShardIndex::shardOf(E.K, NumShards), S);
      EXPECT_TRUE(Seen.insert(E.K).second) << "key in two shards";
      ASSERT_EQ(E.WriterSessions.size(), E.WriterLists.size());
      for (size_t W = 0; W + 1 < E.WriterSessions.size(); ++W)
        EXPECT_LT(E.WriterSessions[W], E.WriterSessions[W + 1]);
      for (const std::vector<KeyWriterRef> &List : E.WriterLists) {
        EXPECT_FALSE(List.empty());
        for (size_t W = 0; W + 1 < List.size(); ++W)
          EXPECT_LT(List[W].SoIndex, List[W + 1].SoIndex);
      }
      for (size_t R = 0; R + 1 < E.Reads.size(); ++R)
        EXPECT_LE(E.Reads[R].Session, E.Reads[R + 1].Session);
    }
  }
}
