//===- tests/test_commit_graph.cpp - CommitGraph against a set model ------===//
//
// The classic checkers, the sequential engine and the parallel engine all
// canonicalize inferred edges through CommitGraph, so the differential
// suites cannot see a bug there. These tests hold it against an
// independent model (a std::set of seen edges plus a plain adjacency
// list), and hold the batch edge sink's repeat filter to keeping every
// distinct edge even when edges collide in its table.
//
//===----------------------------------------------------------------------===//

#include "checker/commit_graph.h"
#include "checker/saturation_state.h"
#include "graph/cycle.h"
#include "graph/scc.h"
#include "support/rng.h"
#include "support/thread_pool.h"
#include "workload/generator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

using namespace awdit;

namespace {

/// The model: base so/wr edges in construction order, then each flush's
/// edges not seen in any earlier flush, in ascending (From, To) order.
struct Model {
  explicit Model(const History &H) : H(H), Adj(H.numTxns()) {
    for (SessionId S = 0; S < H.numSessions(); ++S) {
      const std::vector<TxnId> &Sess = H.sessionTxns(S);
      for (size_t I = 1; I < Sess.size(); ++I)
        add(Sess[I - 1], Sess[I]);
    }
    for (TxnId Id = 0; Id < H.numTxns(); ++Id)
      if (H.txn(Id).Committed)
        for (TxnId W : H.txn(Id).ReadFroms)
          add(W, Id);
  }

  void flush(const std::vector<std::pair<TxnId, TxnId>> &Batch) {
    std::set<std::pair<TxnId, TxnId>> Fresh;
    for (const auto &E : Batch)
      if (!Seen.count(E))
        Fresh.insert(E);
    for (const auto &E : Fresh) {
      add(E.first, E.second);
      Seen.insert(E);
    }
  }

  void add(TxnId From, TxnId To) {
    Adj[From].push_back(To);
    ++NumEdges;
  }

  bool isInferred(TxnId From, TxnId To) const {
    if (H.soSuccessor(From) == To)
      return false;
    const std::vector<TxnId> &Rf = H.txn(To).ReadFroms;
    return std::find(Rf.begin(), Rf.end(), From) == Rf.end();
  }

  /// Witness cycles over the model's adjacency: one per cyclic SCC, each
  /// minimizing inferred edges, labelled by structural classification.
  std::vector<std::vector<WitnessEdge>> witnesses(size_t Max) const {
    Digraph G(Adj.size());
    for (uint32_t U = 0; U < Adj.size(); ++U)
      for (uint32_t V : Adj[U])
        G.addEdge(U, V);
    SccResult Scc = computeScc(G);
    std::vector<std::vector<uint32_t>> Members(Scc.NumComps);
    for (uint32_t U = 0; U < G.numNodes(); ++U)
      Members[Scc.CompOf[U]].push_back(U);
    auto Weight = [this](uint32_t From, uint32_t To) -> unsigned {
      return isInferred(From, To) ? 1 : 0;
    };
    std::vector<std::vector<WitnessEdge>> Out;
    for (uint32_t Comp : Scc.CyclicComps) {
      if (Out.size() >= Max)
        break;
      std::vector<WitnessEdge> Cycle;
      for (const CycleEdge &E :
           extractCycle(G, Scc.CompOf, Comp, Members[Comp], Weight)) {
        EdgeKind Kind = !isInferred(E.From, E.To)
                            ? (H.soSuccessor(E.From) == E.To ? EdgeKind::So
                                                             : EdgeKind::Wr)
                            : EdgeKind::Inferred;
        Cycle.push_back({E.From, E.To, Kind});
      }
      Out.push_back(std::move(Cycle));
    }
    return Out;
  }

  const History &H;
  std::vector<std::vector<uint32_t>> Adj;
  std::set<std::pair<TxnId, TxnId>> Seen;
  size_t NumEdges = 0;
};

History smallHistory(uint64_t Seed) {
  GenerateParams P;
  P.Bench = Seed % 2 ? Benchmark::Tpcc : Benchmark::CTwitter;
  P.Mode = ConsistencyMode::Causal;
  P.Sessions = 4;
  P.Txns = 120;
  P.Seed = Seed;
  P.AbortProbability = 0.0;
  return generateHistory(P);
}

} // namespace

TEST(CommitGraphModel, FlushesMatchSetModel) {
  for (uint64_t Seed = 1; Seed <= 12; ++Seed) {
    SCOPED_TRACE("seed " + std::to_string(Seed));
    History H = smallHistory(Seed);
    CommitGraph Co(H);
    Model M(H);
    ASSERT_EQ(Co.numEdges(), M.NumEdges);

    // Base edges, to feed back as inferred edges.
    std::vector<std::pair<TxnId, TxnId>> Base;
    for (uint32_t U = 0; U < M.Adj.size(); ++U)
      for (uint32_t V : M.Adj[U])
        Base.push_back({U, V});

    Rng R(Seed * 7919);
    uint32_t N = static_cast<uint32_t>(H.numTxns());
    std::vector<std::pair<TxnId, TxnId>> Fed;
    for (int Flush = 0; Flush < 4; ++Flush) {
      std::vector<std::pair<TxnId, TxnId>> Batch;
      for (int I = 0; I < 60; ++I) {
        uint64_t Pick = R.nextBelow(10);
        std::pair<TxnId, TxnId> E;
        if (Pick < 2 && !Fed.empty()) // repeat across flushes
          E = Fed[R.nextBelow(Fed.size())];
        else if (Pick < 4 && !Batch.empty()) // repeat within the flush
          E = Batch[R.nextBelow(Batch.size())];
        else if (Pick < 5 && !Base.empty()) // equal to an so/wr edge
          E = Base[R.nextBelow(Base.size())];
        else {
          // Forward edges mostly, so some components stay acyclic.
          TxnId A = static_cast<TxnId>(R.nextBelow(N));
          TxnId B = static_cast<TxnId>(R.nextBelow(N));
          if (A == B)
            continue;
          E = R.nextBelow(8) == 0 ? std::make_pair(std::max(A, B),
                                                   std::min(A, B))
                                  : std::make_pair(std::min(A, B),
                                                   std::max(A, B));
        }
        Batch.push_back(E);
      }
      // Alternate the single-edge and bulk entry points; the last bulk
      // batch arrives sorted (repeats kept), as merged sink runs do.
      if (Flush % 2 == 0) {
        for (const auto &E : Batch)
          Co.inferEdge(E.first, E.second);
      } else {
        std::vector<uint64_t> Packed;
        for (const auto &E : Batch)
          Packed.push_back(CommitGraph::packEdge(E.first, E.second));
        if (Flush == 3)
          std::sort(Packed.begin(), Packed.end());
        Co.inferEdges(std::move(Packed));
      }
      M.flush(Batch);
      Fed.insert(Fed.end(), Batch.begin(), Batch.end());

      EXPECT_EQ(Co.numInferredEdges(), M.Seen.size()) << "flush " << Flush;
      EXPECT_EQ(Co.numEdges(), M.NumEdges) << "flush " << Flush;
      const Digraph &G = Co.graph();
      for (uint32_t U = 0; U < N; ++U)
        ASSERT_EQ(G.succs(U), M.Adj[U]) << "flush " << Flush << " node " << U;
    }

    std::vector<Violation> Out;
    bool Acyclic = Co.checkAcyclic(Out, 8);
    std::vector<std::vector<WitnessEdge>> Expected = M.witnesses(8);
    EXPECT_EQ(Acyclic, Expected.empty());
    ASSERT_EQ(Out.size(), Expected.size());
    for (size_t I = 0; I < Out.size(); ++I) {
      ASSERT_EQ(Out[I].Cycle.size(), Expected[I].size()) << "witness " << I;
      bool AnyInferred = false;
      for (size_t E = 0; E < Expected[I].size(); ++E) {
        EXPECT_EQ(Out[I].Cycle[E].From, Expected[I][E].From);
        EXPECT_EQ(Out[I].Cycle[E].To, Expected[I][E].To);
        EXPECT_EQ(Out[I].Cycle[E].Kind, Expected[I][E].Kind);
        AnyInferred |= Expected[I][E].Kind == EdgeKind::Inferred;
      }
      EXPECT_EQ(Out[I].Kind, AnyInferred ? ViolationKind::CommitOrderCycle
                                         : ViolationKind::CausalityCycle);
    }
  }
}

/// Edges chosen to share one filter slot, fed interleaved (A,B,A,B,...) and
/// in long single-edge runs, by one sink or by four concurrent sinks. The
/// filter may only drop a repeat of an edge it already kept, so the
/// canonical pass must count exactly the distinct input edges; since a
/// sink only ever forwards input edges, equal counts mean equal sets.
TEST(BatchSinkFilter, CollidingEdgesAreAllKept) {
  History H = smallHistory(3);
  uint32_t N = static_cast<uint32_t>(H.numTxns());

  // Brute force: group edges by filter slot until one slot holds three.
  std::unordered_map<size_t, std::vector<uint64_t>> BySlot;
  std::vector<uint64_t> Colliding;
  for (uint32_t A = 0; A < N && Colliding.empty(); ++A)
    for (uint32_t B = 0; B < N && Colliding.empty(); ++B) {
      if (A == B)
        continue;
      uint64_t Packed = CommitGraph::packEdge(A, B);
      std::vector<uint64_t> &Slot =
          BySlot[SaturationState::BatchSink::slotOf(Packed)];
      Slot.push_back(Packed);
      if (Slot.size() == 3)
        Colliding = Slot;
    }
  ASSERT_EQ(Colliding.size(), 3u) << "no three edges share a slot";

  std::vector<uint64_t> Feed;
  for (int I = 0; I < 500; ++I) {
    Feed.push_back(Colliding[0]);
    Feed.push_back(Colliding[1]);
  }
  for (int Run = 0; Run < 3; ++Run)
    for (int I = 0; I < 300; ++I)
      Feed.push_back(Colliding[Run]);
  for (int I = 0; I < 200; ++I)
    Feed.push_back(Colliding[I % 3]);

  SaturationStats Base;
  {
    SaturationState Empty(IsolationLevel::ReadCommitted,
                          SaturationState::Mode::Batch);
    std::vector<Violation> Out;
    Empty.finalizeAcyclic(H, Out, 0, &Base);
  }
  for (size_t Threads : {1u, 4u}) {
    SCOPED_TRACE("threads " + std::to_string(Threads));
    SaturationState State(IsolationLevel::ReadCommitted,
                          SaturationState::Mode::Batch);
    ThreadPool Pool(Threads);
    Pool.parallelFor(0, Threads, 1, [&](size_t, size_t) {
      SaturationState::BatchSink Sink(State);
      for (uint64_t Packed : Feed)
        Sink(static_cast<TxnId>(Packed >> 32), static_cast<TxnId>(Packed));
    });
    SaturationStats Stats;
    std::vector<Violation> Out;
    State.finalizeAcyclic(H, Out, 0, &Stats);
    EXPECT_EQ(Stats.InferredEdges, 3u);
    EXPECT_EQ(Stats.GraphEdges, Base.GraphEdges + 3);
  }
}
