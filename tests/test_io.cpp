//===- tests/test_io.cpp - History format round-trip tests ----------------------===//

#include "io/dbcop_format.h"
#include "io/plume_format.h"
#include "io/text_format.h"
#include "sim/anomaly_injector.h"
#include "tests/test_util.h"
#include "workload/generator.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

using namespace awdit;
using namespace awdit::test;

namespace {

void expectSameHistory(const History &A, const History &B) {
  ASSERT_EQ(A.numTxns(), B.numTxns());
  ASSERT_EQ(A.numSessions(), B.numSessions());
  ASSERT_EQ(A.numOps(), B.numOps());
  for (TxnId Id = 0; Id < A.numTxns(); ++Id) {
    const Transaction &TA = A.txn(Id), &TB = B.txn(Id);
    EXPECT_EQ(TA.Session, TB.Session);
    EXPECT_EQ(TA.Committed, TB.Committed);
    ASSERT_EQ(TA.Ops.size(), TB.Ops.size());
    for (size_t O = 0; O < TA.Ops.size(); ++O)
      EXPECT_TRUE(TA.Ops[O] == TB.Ops[O]);
  }
}

History sampleHistory(uint64_t Seed) {
  GenerateParams P;
  P.Bench = Benchmark::Rubis;
  P.Mode = ConsistencyMode::ReadCommitted;
  P.Sessions = 5;
  P.Txns = 150;
  P.Seed = Seed;
  P.AbortProbability = 0.1;
  return generateHistory(P);
}

} // namespace

TEST(TextFormat, RoundTripsGeneratedHistories) {
  for (uint64_t Seed = 1; Seed <= 4; ++Seed) {
    History H = sampleHistory(Seed);
    std::string Err;
    std::optional<History> Back = parseTextHistory(writeTextHistory(H), &Err);
    ASSERT_TRUE(Back) << Err;
    expectSameHistory(H, *Back);
  }
}

namespace {

/// Loading a native history (the Monitor fed line by line, deriving each
/// transaction once when the history is taken) must rebuild, field by
/// field, what HistoryBuilder::build derived for the same transactions.
void expectSameDerivedHistory(const History &Built, const History &Loaded,
                              const std::string &Ctx) {
  ASSERT_EQ(Built.numTxns(), Loaded.numTxns()) << Ctx;
  ASSERT_EQ(Built.numSessions(), Loaded.numSessions()) << Ctx;
  EXPECT_EQ(Built.numOps(), Loaded.numOps()) << Ctx;
  EXPECT_EQ(Built.numCommitted(), Loaded.numCommitted()) << Ctx;
  EXPECT_EQ(Built.numKeys(), Loaded.numKeys()) << Ctx;
  for (SessionId S = 0; S < Built.numSessions(); ++S)
    EXPECT_EQ(Built.sessionTxns(S), Loaded.sessionTxns(S)) << Ctx;
  for (TxnId Id = 0; Id < Built.numTxns(); ++Id) {
    const Transaction &A = Built.txn(Id), &B = Loaded.txn(Id);
    std::string At = Ctx + " txn " + std::to_string(Id);
    EXPECT_EQ(A.Session, B.Session) << At;
    EXPECT_EQ(A.Committed, B.Committed) << At;
    if (A.Committed) {
      EXPECT_EQ(A.SoIndex, B.SoIndex) << At;
    }
    ASSERT_EQ(A.Ops.size(), B.Ops.size()) << At;
    for (size_t O = 0; O < A.Ops.size(); ++O)
      EXPECT_TRUE(A.Ops[O] == B.Ops[O]) << At;
    ASSERT_EQ(A.Reads.size(), B.Reads.size()) << At;
    for (size_t R = 0; R < A.Reads.size(); ++R) {
      const ReadInfo &X = A.Reads[R], &Y = B.Reads[R];
      EXPECT_EQ(X.OpIndex, Y.OpIndex) << At;
      EXPECT_EQ(X.K, Y.K) << At;
      EXPECT_EQ(X.V, Y.V) << At;
      EXPECT_EQ(X.Writer, Y.Writer) << At;
      EXPECT_EQ(X.WriterOp, Y.WriterOp) << At;
    }
    EXPECT_EQ(A.ExtReads, B.ExtReads) << At;
    EXPECT_EQ(A.ReadFroms, B.ReadFroms) << At;
    EXPECT_EQ(A.WriteKeys, B.WriteKeys) << At;
    EXPECT_EQ(A.LastWriteOps, B.LastWriteOps) << At;
  }
}

/// True when some read resolves to the history's last transaction — the
/// generators' initial-state writer, which a loader meets only after
/// every read of it.
bool lastTxnIsReadFrom(const History &H) {
  TxnId Last = static_cast<TxnId>(H.numTxns() - 1);
  for (const Transaction &T : H.transactions())
    for (const ReadInfo &RI : T.Reads)
      if (RI.Writer == Last)
        return true;
  return false;
}

} // namespace

TEST(TextFormat, LoadDerivesWhatTheBuilderDerives) {
  for (Benchmark Bench : {Benchmark::CTwitter, Benchmark::Tpcc}) {
    for (uint64_t Seed = 1; Seed <= 3; ++Seed) {
      GenerateParams P;
      P.Bench = Bench;
      P.Mode = Seed == 2 ? ConsistencyMode::ReadCommitted
                         : ConsistencyMode::Causal;
      P.Sessions = 6;
      P.Txns = 800;
      P.Seed = Seed * 31;
      P.AbortProbability = Seed == 3 ? 0.05 : 0.0;
      History H = generateHistory(P);
      std::string Ctx = std::string(benchmarkName(Bench)) + " seed " +
                        std::to_string(Seed);
      ASSERT_TRUE(lastTxnIsReadFrom(H)) << Ctx;
      std::string Err;
      std::optional<History> Loaded =
          parseTextHistory(writeTextHistory(H), &Err);
      ASSERT_TRUE(Loaded) << Err;
      expectSameDerivedHistory(H, *Loaded, Ctx);
    }
  }
}

TEST(TextFormat, LoadDerivesWhatTheBuilderDerivesOnInjectedAnomalies) {
  GenerateParams P;
  P.Bench = Benchmark::CTwitter;
  P.Mode = ConsistencyMode::Serializable;
  P.Sessions = 6;
  P.Txns = 400;
  P.Seed = 5;
  History Base = generateHistory(P);
  for (int Kind = 0; Kind < 7; ++Kind) {
    std::string Err;
    std::optional<History> H =
        injectAnomaly(Base, static_cast<AnomalyKind>(Kind), 11 + Kind, &Err);
    ASSERT_TRUE(H) << Err;
    std::optional<History> Loaded =
        parseTextHistory(writeTextHistory(*H), &Err);
    ASSERT_TRUE(Loaded) << Err;
    expectSameDerivedHistory(*H, *Loaded,
                             anomalyKindName(static_cast<AnomalyKind>(Kind)));
  }
}

TEST(TextFormat, ParsesHandWrittenInput) {
  const char *Input = "# demo\n"
                      "b 0\n"
                      "w 1 10\n"
                      "c\n"
                      "b 1\n"
                      "r 1 10\n"
                      "a\n";
  std::string Err;
  std::optional<History> H = parseTextHistory(Input, &Err);
  ASSERT_TRUE(H) << Err;
  EXPECT_EQ(H->numTxns(), 2u);
  EXPECT_EQ(H->numSessions(), 2u);
  EXPECT_FALSE(H->txn(1).Committed);
}

TEST(TextFormat, RejectsMalformedInput) {
  std::string Err;
  EXPECT_FALSE(parseTextHistory("w 1 10\n", &Err)); // op before txn
  EXPECT_FALSE(parseTextHistory("b 0\nw 1\nc\n", &Err)); // missing value
  EXPECT_FALSE(parseTextHistory("b 0\nw 1 10\n", &Err)); // unterminated
  EXPECT_FALSE(parseTextHistory("b 0\nb 0\n", &Err));    // nested begin
  EXPECT_FALSE(parseTextHistory("x y z\n", &Err));       // unknown
  EXPECT_NE(Err.find("line"), std::string::npos);
}

TEST(TextFormat, FileRoundTrip) {
  History H = sampleHistory(9);
  std::string Path =
      (std::filesystem::temp_directory_path() / "awdit_io_test.txt")
          .string();
  std::string Err;
  ASSERT_TRUE(saveTextHistoryFile(H, Path, &Err)) << Err;
  std::optional<History> Back = loadTextHistoryFile(Path, &Err);
  ASSERT_TRUE(Back) << Err;
  expectSameHistory(H, *Back);
  std::remove(Path.c_str());
}

TEST(TextFormat, MissingFileFails) {
  std::string Err;
  EXPECT_FALSE(loadTextHistoryFile("/nonexistent/awdit.txt", &Err));
  EXPECT_FALSE(Err.empty());
}

TEST(PlumeFormat, RoundTripsGeneratedHistories) {
  for (uint64_t Seed = 1; Seed <= 4; ++Seed) {
    History H = sampleHistory(Seed);
    std::string Err;
    std::optional<History> Back =
        parsePlumeHistory(writePlumeHistory(H), &Err);
    ASSERT_TRUE(Back) << Err;
    expectSameHistory(H, *Back);
  }
}

TEST(PlumeFormat, ParsesHandWrittenInput) {
  const char *Input = "0,0,w,5,50\n"
                      "0,0,w,6,60\n"
                      "1,1,r,5,50\n"
                      "1,2,r,6,60\n"
                      "1,2,abort\n";
  std::string Err;
  std::optional<History> H = parsePlumeHistory(Input, &Err);
  ASSERT_TRUE(H) << Err;
  EXPECT_EQ(H->numTxns(), 3u);
  EXPECT_EQ(H->txn(0).Ops.size(), 2u);
  EXPECT_FALSE(H->txn(2).Committed);
}

TEST(PlumeFormat, RejectsMalformedInput) {
  std::string Err;
  EXPECT_FALSE(parsePlumeHistory("0,0,q,1,2\n", &Err));
  EXPECT_FALSE(parsePlumeHistory("0,w,1,2\n", &Err));
  EXPECT_FALSE(parsePlumeHistory("zero,0,w,1,2\n", &Err));
}

TEST(PlumeFormat, HandlesCrLf) {
  std::string Err;
  std::optional<History> H = parsePlumeHistory("0,0,w,1,10\r\n", &Err);
  ASSERT_TRUE(H) << Err;
  EXPECT_EQ(H->numTxns(), 1u);
}

TEST(DbcopFormat, RoundTripsGeneratedHistories) {
  for (uint64_t Seed = 1; Seed <= 4; ++Seed) {
    History H = sampleHistory(Seed);
    std::string Err;
    std::optional<History> Back =
        parseDbcopHistory(writeDbcopHistory(H), &Err);
    ASSERT_TRUE(Back) << Err;
    expectSameHistory(H, *Back);
  }
}

TEST(DbcopFormat, ParsesHandWrittenInput) {
  const char *Input = "sessions 2\n"
                      "txn 0 1 2\n"
                      "W 1 10\n"
                      "W 2 20\n"
                      "txn 1 0 1\n"
                      "R 1 10\n";
  std::string Err;
  std::optional<History> H = parseDbcopHistory(Input, &Err);
  ASSERT_TRUE(H) << Err;
  EXPECT_EQ(H->numTxns(), 2u);
  EXPECT_FALSE(H->txn(1).Committed);
}

TEST(DbcopFormat, RejectsMalformedInput) {
  std::string Err;
  EXPECT_FALSE(parseDbcopHistory("txn 0 1 0\n", &Err)); // missing header
  EXPECT_FALSE(parseDbcopHistory("sessions 1\ntxn 5 1 0\n", &Err));
  EXPECT_FALSE(parseDbcopHistory("sessions 1\ntxn 0 1 2\nW 1 10\n", &Err));
  EXPECT_FALSE(parseDbcopHistory("sessions 1\nW 1 10\n", &Err));
}

TEST(Formats, CrossFormatConversionPreservesVerdicts) {
  History H = sampleHistory(12);
  std::optional<History> ViaPlume = parsePlumeHistory(writePlumeHistory(H));
  std::optional<History> ViaDbcop = parseDbcopHistory(writeDbcopHistory(H));
  ASSERT_TRUE(ViaPlume && ViaDbcop);
  for (IsolationLevel Level : AllIsolationLevels) {
    bool Expected = consistent(H, Level);
    EXPECT_EQ(consistent(*ViaPlume, Level), Expected);
    EXPECT_EQ(consistent(*ViaDbcop, Level), Expected);
  }
}

// Parse errors must point at the offending line — including duplicate
// writes, which used to surface only as a line-less build() failure.
TEST(Formats, DuplicateWriteErrorsCarryLineNumbers) {
  std::string Err;
  EXPECT_FALSE(parseTextHistory("b 0\nw 1 10\nc\nb 0\nw 1 10\nc\n", &Err));
  EXPECT_NE(Err.find("line 5"), std::string::npos) << Err;
  EXPECT_NE(Err.find("duplicate write"), std::string::npos) << Err;

  EXPECT_FALSE(parsePlumeHistory("0,0,w,1,10\n0,1,w,1,10\n", &Err));
  EXPECT_NE(Err.find("line 2"), std::string::npos) << Err;
  EXPECT_NE(Err.find("duplicate write"), std::string::npos) << Err;

  EXPECT_FALSE(parseDbcopHistory(
      "sessions 1\ntxn 0 1 1\nW 1 10\ntxn 0 1 1\nW 1 10\n", &Err));
  EXPECT_NE(Err.find("line 5"), std::string::npos) << Err;
  EXPECT_NE(Err.find("duplicate write"), std::string::npos) << Err;
}

TEST(Formats, SyntaxErrorsCarryLineNumbers) {
  std::string Err;
  EXPECT_FALSE(parseTextHistory("b 0\nw 1\nc\n", &Err));
  EXPECT_NE(Err.find("line 2"), std::string::npos) << Err;
  EXPECT_FALSE(parsePlumeHistory("0,0,w,1,10\ngarbage\n", &Err));
  EXPECT_NE(Err.find("line 2"), std::string::npos) << Err;
  EXPECT_FALSE(parseDbcopHistory("sessions 1\nboom\n", &Err));
  EXPECT_NE(Err.find("line 2"), std::string::npos) << Err;
}
