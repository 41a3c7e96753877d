//===- checker/commit_graph.cpp - The partial commit relation co' ----------===//

#include "checker/commit_graph.h"

#include "graph/cycle.h"
#include "graph/scc.h"
#include "support/assert.h"

#include <algorithm>

using namespace awdit;

CommitGraph::CommitGraph(const History &H) : H(H), G(H.numTxns()) {
  // so: the per-session successor chain is the transitive reduction of the
  // session order; transitivity is implicit in reachability.
  for (SessionId S = 0; S < H.numSessions(); ++S) {
    const std::vector<TxnId> &Sess = H.sessionTxns(S);
    for (size_t I = 0; I + 1 < Sess.size(); ++I)
      G.addEdge(Sess[I], Sess[I + 1]);
  }
  // wr on distinct committed transactions: Writer -> Reader. ReadFroms is
  // already deduplicated per reader; an occasional parallel edge with the
  // so chain is harmless for SCC and witness extraction.
  for (TxnId Id = 0; Id < H.numTxns(); ++Id) {
    const Transaction &T = H.txn(Id);
    if (!T.Committed)
      continue;
    for (TxnId Writer : T.ReadFroms)
      G.addEdge(Writer, Id);
  }
}

void CommitGraph::inferEdges(std::vector<uint64_t> &&Packed) {
  if (Pending.empty())
    Pending = std::move(Packed);
  else
    Pending.insert(Pending.end(), Packed.begin(), Packed.end());
  Packed = std::vector<uint64_t>();
}

void CommitGraph::flushInferred() {
  if (Pending.empty())
    return;
  if (!std::is_sorted(Pending.begin(), Pending.end()))
    std::sort(Pending.begin(), Pending.end());
  Pending.erase(std::unique(Pending.begin(), Pending.end()), Pending.end());
  // Keep only the edges no earlier flush inferred (both lists are sorted).
  auto Kept = Pending.begin();
  auto Seen = Inferred.begin();
  for (uint64_t Packed : Pending) {
    while (Seen != Inferred.end() && *Seen < Packed)
      ++Seen;
    if (Seen == Inferred.end() || *Seen != Packed)
      *Kept++ = Packed;
  }
  Pending.erase(Kept, Pending.end());
  for (uint64_t Packed : Pending)
    G.addEdge(static_cast<uint32_t>(Packed >> 32),
              static_cast<uint32_t>(Packed));
  if (Inferred.empty()) {
    Inferred = std::move(Pending);
  } else {
    size_t Old = Inferred.size();
    Inferred.insert(Inferred.end(), Pending.begin(), Pending.end());
    std::inplace_merge(Inferred.begin(), Inferred.begin() + Old,
                       Inferred.end());
  }
  Pending = std::vector<uint64_t>();
}

EdgeKind CommitGraph::classifyEdge(TxnId From, TxnId To) const {
  if (H.txn(From).Committed && H.soSuccessor(From) == To)
    return EdgeKind::So;
  for (TxnId Writer : H.txn(To).ReadFroms)
    if (Writer == From)
      return EdgeKind::Wr;
  return EdgeKind::Inferred;
}

bool CommitGraph::checkAcyclic(std::vector<Violation> &Out,
                               size_t MaxWitnesses) {
  flushInferred();
  SccResult Scc = computeScc(G);
  if (Scc.acyclic())
    return true;

  if (MaxWitnesses == 0) {
    // Caller only wants the verdict; report one unlabelled violation.
    Out.push_back({ViolationKind::CommitOrderCycle, NoTxn, NoOp, NoTxn, {}});
    return false;
  }

  // Group nodes by cyclic component (one witness per SCC, §3.4).
  std::vector<std::vector<uint32_t>> Members(Scc.NumComps);
  for (uint32_t U = 0; U < G.numNodes(); ++U)
    Members[Scc.CompOf[U]].push_back(U);

  auto Weight = [this](uint32_t From, uint32_t To) -> unsigned {
    return classifyEdge(From, To) == EdgeKind::Inferred ? 1 : 0;
  };

  size_t Reported = 0;
  for (uint32_t Comp : Scc.CyclicComps) {
    if (Reported++ >= MaxWitnesses)
      break;
    std::vector<CycleEdge> Cycle =
        extractCycle(G, Scc.CompOf, Comp, Members[Comp], Weight);
    Violation V;
    V.Kind = ViolationKind::CausalityCycle;
    for (const CycleEdge &E : Cycle) {
      EdgeKind Kind = classifyEdge(E.From, E.To);
      if (Kind == EdgeKind::Inferred)
        V.Kind = ViolationKind::CommitOrderCycle;
      V.Cycle.push_back({E.From, E.To, Kind});
    }
    Out.push_back(std::move(V));
  }
  return false;
}
