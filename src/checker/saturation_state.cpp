//===- checker/saturation_state.cpp - Incremental saturation engine --------===//

#include "checker/saturation_state.h"

#include "checker/check_cc.h"
#include "checker/checkpoint_chunks.h"
#include "checker/commit_graph.h"
#include "graph/scc.h"
#include "graph/topo_sort.h"
#include "obs/trace.h"
#include "support/assert.h"
#include "support/serialize.h"
#include "support/thread_pool.h"

#include <algorithm>
#include <bit>
#include <iterator>
#include <optional>
#include <set>

using namespace awdit;

namespace {

uint32_t edgeFrom(uint64_t Packed) {
  return static_cast<uint32_t>(Packed >> 32);
}
uint32_t edgeTo(uint64_t Packed) { return static_cast<uint32_t>(Packed); }

uint64_t pack(TxnId From, TxnId To) {
  return CommitGraph::packEdge(From, To);
}

/// Base sources (wr, so) are structural so ∪ wr edges; the rest are
/// saturation-inferred.
bool isBaseSource(uint64_t Source) { return (Source >> 32) >= 3; }

/// Quarantine-retry region bound: above this many order positions the
/// local SCC pass falls back to the greedy one-edge-at-a-time retry.
constexpr size_t SccRetryRegionCap = 4096;

/// Merges sorted, duplicate-free runs into one sorted, duplicate-free
/// vector, two at a time: O(n log k) for k runs of n edges in total.
std::vector<uint64_t>
mergeSortedRuns(std::vector<std::vector<uint64_t>> Runs) {
  if (Runs.empty())
    return {};
  while (Runs.size() > 1) {
    std::vector<std::vector<uint64_t>> Next;
    for (size_t I = 0; I + 1 < Runs.size(); I += 2) {
      std::vector<uint64_t> Merged;
      Merged.reserve(Runs[I].size() + Runs[I + 1].size());
      std::set_union(Runs[I].begin(), Runs[I].end(), Runs[I + 1].begin(),
                     Runs[I + 1].end(), std::back_inserter(Merged));
      Runs[I] = {};
      Runs[I + 1] = {};
      Next.push_back(std::move(Merged));
    }
    if (Runs.size() % 2)
      Next.push_back(std::move(Runs.back()));
    Runs = std::move(Next);
  }
  return std::move(Runs.front());
}

} // namespace

//===----------------------------------------------------------------------===//
// Structure growth.
//===----------------------------------------------------------------------===//

void SaturationState::ensureSizes(const History &H) {
  size_t N = H.txnEnd() - SlotBase;
  if (Processed.size() < N) {
    if (EngineMode == Mode::Streaming)
      Order.addNodes(N - Processed.size());
    Processed.resize(N, 0);
    ReadersOf.resize(N);
  }
  if (NumSessions < H.numSessions())
    NumSessions = H.numSessions();
  if (Level != IsolationLevel::CausalConsistency ||
      EngineMode != Mode::Streaming)
    return;
  if (NumSessions > HbStride) {
    size_t NewStride = 4;
    while (NewStride < NumSessions)
      NewStride *= 2;
    size_t Rows = HbStride ? HbRows.size() / HbStride : 0;
    std::vector<uint32_t> NewRows(Rows * NewStride, 0);
    for (size_t R = 0; R < Rows; ++R)
      std::copy(HbRows.begin() + R * HbStride,
                HbRows.begin() + (R + 1) * HbStride,
                NewRows.begin() + R * NewStride);
    HbRows = std::move(NewRows);
    HbStride = NewStride;
  }
  HbRows.resize(N * HbStride, 0);
}

//===----------------------------------------------------------------------===//
// Edge bookkeeping: refcounted, source-tagged, dynamically ordered.
//===----------------------------------------------------------------------===//

EdgeKind SaturationState::classifyEdge(const History &H, TxnId From,
                                       TxnId To) const {
  if (H.txn(From).Committed && H.soSuccessor(From) == To)
    return EdgeKind::So;
  for (TxnId Writer : H.txn(To).ReadFroms)
    if (Writer == From)
      return EdgeKind::Wr;
  return EdgeKind::Inferred;
}

Violation SaturationState::makeCycleViolation(
    const History &H, TxnId From, TxnId To,
    const std::vector<uint32_t> &Path) const {
  Violation V;
  V.Kind = ViolationKind::CausalityCycle;
  auto Add = [&](TxnId A, TxnId B) {
    EdgeKind Kind = classifyEdge(H, A, B);
    if (Kind == EdgeKind::Inferred)
      V.Kind = ViolationKind::CommitOrderCycle;
    V.Cycle.push_back({A, B, Kind});
  };
  Add(From, To);
  for (size_t I = 0; I + 1 < Path.size(); ++I)
    Add(Path[I], Path[I + 1]);
  return V;
}

bool SaturationState::baseReaches(uint32_t SrcNode, uint32_t DstNode) const {
  std::vector<uint32_t> Stack{SrcNode};
  std::unordered_set<uint32_t> Seen{SrcNode};
  while (!Stack.empty()) {
    uint32_t U = Stack.back();
    Stack.pop_back();
    for (uint32_t W : Order.succs(U)) {
      // Retired nodes' edges are gone from Edges too.
      const EdgeRefs *Refs = Edges.find(pack(U, W));
      if (!Refs || Refs->Base == 0)
        continue;
      if (W == DstNode)
        return true;
      if (Seen.insert(W).second)
        Stack.push_back(W);
    }
  }
  return false;
}

void SaturationState::insertLive(const History &H, uint64_t Packed,
                                 bool IsBase, std::vector<Violation> *Out) {
  EdgeRefs &Refs = Edges[Packed];
  bool WasLive = Refs.Base + Refs.Inferred > 0;
  if (IsBase) {
    ++Refs.Base;
  } else {
    if (Refs.Inferred == 0)
      ++InferredDistinct;
    ++Refs.Inferred;
  }
  if (WasLive || EngineMode == Mode::Batch)
    return;

  uint32_t From = edgeFrom(Packed), To = edgeTo(Packed);
  std::vector<uint32_t> Path;
  while (!Order.addEdge(From, To, &Path)) {
    // The insertion would close a cycle: report it with the extracted
    // path, then keep the order valid by quarantining an edge.
    if (Out)
      Out->push_back(makeCycleViolation(H, From, To, Path));
    if (!IsBase) {
      Quarantined.insert(Packed);
      return;
    }
    // A base (so/wr) edge. If the cycle exists in so ∪ wr alone this is a
    // causality cycle and happens-before is undefined from here on —
    // exactly the condition under which the batch CC checker stops
    // saturating. Otherwise evict an inferred edge of the path instead so
    // the structural relation stays ordered (it drives HB propagation).
    if (baseReaches(To, From)) {
      BaseCyclic = true;
      Quarantined.insert(Packed);
      return;
    }
    bool Evicted = false;
    for (size_t I = 0; I + 1 < Path.size() && !Evicted; ++I) {
      uint64_t OnPath = pack(Path[I], Path[I + 1]);
      const EdgeRefs *OnPathRefs = Edges.find(OnPath);
      if (OnPathRefs && OnPathRefs->Base == 0) {
        Order.removeEdge(Path[I], Path[I + 1]);
        Quarantined.insert(OnPath);
        Evicted = true;
      }
    }
    if (!Evicted) {
      // Unreachable in theory (a non-base cycle has an inferred edge),
      // but never loop forever on a logic error.
      BaseCyclic = true;
      Quarantined.insert(Packed);
      return;
    }
  }
}

void SaturationState::removeLive(uint64_t Packed, bool IsBase) {
  EdgeRefs *Refs = Edges.find(Packed);
  AWDIT_ASSERT(Refs != nullptr, "removeLive: unknown edge");
  if (IsBase) {
    --Refs->Base;
  } else {
    if (--Refs->Inferred == 0)
      --InferredDistinct;
  }
  if (Refs->Base + Refs->Inferred > 0)
    return;
  Edges.erase(Packed);
  if (Quarantined.erase(Packed))
    return;
  if (EngineMode == Mode::Streaming)
    Order.removeEdge(edgeFrom(Packed), edgeTo(Packed));
}

void SaturationState::addSourceEdges(const History &H, uint64_t Source,
                                     bool IsBase,
                                     const std::vector<uint64_t> &NewEdges,
                                     std::vector<Violation> *Out) {
  if (NewEdges.empty())
    return;
  // Edge insertion is where the Pearce–Kelly order maintenance (and its
  // cycle extraction) runs; metered per source call, not per edge, so the
  // clock reads stay off the per-edge path.
  uint64_t T0 = EngineMode == Mode::Streaming ? obs::traceNowNanos() : 0;
  std::vector<uint64_t> &List = BySource[Source];
  for (uint64_t Packed : NewEdges) {
    List.push_back(Packed);
    insertLive(H, Packed, IsBase, Out);
  }
  if (EngineMode == Mode::Streaming)
    PhaseNs.Pk += obs::traceNowNanos() - T0;
}

void SaturationState::clearSource(uint64_t Source, bool IsBase) {
  auto It = BySource.find(Source);
  if (It == BySource.end())
    return;
  for (uint64_t Packed : It->second)
    if (!deadPacked(Packed))
      removeLive(Packed, IsBase);
  BySource.erase(It);
}

void SaturationState::retryQuarantined(const History &H) {
  (void)H;
  if (Quarantined.empty())
    return;
  // A source re-run or an eviction may have broken the cycle that forced
  // an edge out of the order; re-verify the quarantined region and bring
  // every edge that is no longer on a cycle back in (quietly — the region
  // was reported when first quarantined).
  std::vector<uint64_t> Snapshot(Quarantined.begin(), Quarantined.end());
  std::sort(Snapshot.begin(), Snapshot.end());

  // Position hull of the quarantined endpoints. Live edges strictly
  // increase order position, so a live path between two hull nodes never
  // leaves the hull — every cycle a quarantined edge could close lies
  // entirely inside this region, and the local subgraph decides
  // re-admission exactly.
  uint32_t Lo = UINT32_MAX, Hi = 0;
  for (uint64_t Packed : Snapshot) {
    for (uint32_t Node : {edgeFrom(Packed), edgeTo(Packed)}) {
      uint32_t P = Order.position(Node);
      Lo = std::min(Lo, P);
      Hi = std::max(Hi, P);
    }
  }
  // The live nodes inside the hull, in order. Positions are sparse once
  // evictions have retired nodes, so the region is measured in nodes.
  std::vector<std::pair<uint32_t, uint32_t>> Region; // (position, node)
  for (uint32_t N = Order.firstNode(); N < Order.endNode(); ++N) {
    uint32_t P = Order.position(N);
    if (P >= Lo && P <= Hi)
      Region.emplace_back(P, N);
  }
  size_t RegionSize = Region.size();
  if (RegionSize > SccRetryRegionCap) {
    // Degenerate hull (quarantined endpoints span most of the window):
    // greedy one-edge-at-a-time retry. Admission order is the sorted
    // snapshot either way, so both paths are deterministic.
    for (uint64_t Packed : Snapshot)
      if (Order.addEdge(edgeFrom(Packed), edgeTo(Packed), nullptr))
        Quarantined.erase(Packed);
    maybeClearBaseCyclic();
    return;
  }

  // Dense region index: a node's rank in the region, by position.
  std::sort(Region.begin(), Region.end());
  auto DenseOf = [&](uint32_t Node) {
    auto It = std::lower_bound(Region.begin(), Region.end(),
                               std::make_pair(Order.position(Node), 0u));
    return static_cast<uint32_t>(It - Region.begin());
  };

  // Local subgraph: the live edges inside the region plus every
  // quarantined edge, condensed with one bounded Tarjan pass.
  Digraph G(RegionSize);
  for (size_t I = 0; I < RegionSize; ++I) {
    for (uint32_t W : Order.succs(Region[I].second)) {
      if (W < Order.firstNode())
        continue; // a retired node
      uint32_t P = Order.position(W);
      if (P >= Lo && P <= Hi)
        G.addEdge(static_cast<uint32_t>(I), DenseOf(W));
    }
  }
  // Dense endpoints captured now: admissions below reorder positions.
  std::vector<std::pair<uint32_t, uint32_t>> Dense;
  Dense.reserve(Snapshot.size());
  for (uint64_t Packed : Snapshot) {
    Dense.emplace_back(DenseOf(edgeFrom(Packed)), DenseOf(edgeTo(Packed)));
    G.addEdge(Dense.back().first, Dense.back().second);
  }
  SccResult Scc = computeScc(G);

  // Edges between distinct components are jointly cycle-free (the
  // condensation is a DAG): re-admit them all in one pass. Same-component
  // edges stay out — their region is still mutually cyclic.
  for (size_t I = 0; I < Snapshot.size(); ++I) {
    if (Scc.CompOf[Dense[I].first] == Scc.CompOf[Dense[I].second])
      continue;
    if (Order.addEdge(edgeFrom(Snapshot[I]), edgeTo(Snapshot[I]), nullptr))
      Quarantined.erase(Snapshot[I]);
  }
  maybeClearBaseCyclic();
}

void SaturationState::maybeClearBaseCyclic() {
  if (!BaseCyclic)
    return;
  for (uint64_t Packed : Quarantined) {
    const EdgeRefs *Refs = Edges.find(Packed);
    if (Refs && Refs->Base > 0)
      return; // a base edge is still out of the order: still cyclic
  }
  // The so ∪ wr cycle is gone (its edges were evicted or replaced);
  // happens-before is meaningful again, but every persisted row dates
  // from before the cycle — recompute them all once.
  BaseCyclic = false;
  NeedsFullHbRecompute = true;
}

//===----------------------------------------------------------------------===//
// CC incremental pieces: persisted writer index + happens-before rows.
//===----------------------------------------------------------------------===//

void SaturationState::appendWriterEntries(const History &H, TxnId L) {
  const Transaction &T = H.txn(L);
  for (Key X : T.WriteKeys) {
    KeyWriters &KW = Writers[X];
    size_t Slot = 0;
    for (; Slot < KW.Sessions.size(); ++Slot)
      if (KW.Sessions[Slot] == T.Session)
        break;
    if (Slot == KW.Sessions.size()) {
      KW.Sessions.push_back(T.Session);
      KW.Lists.emplace_back();
    }
    std::vector<detail::CcWriterEntry> &List = KW.Lists[Slot];
    // Commits of one session arrive in so order, so this is almost always
    // a push_back; a flush processing two commits of one session out of
    // local-id order is the rare exception.
    detail::CcWriterEntry Entry{L, T.SoIndex};
    auto It = std::lower_bound(List.begin(), List.end(), Entry,
                               [](const detail::CcWriterEntry &A,
                                  const detail::CcWriterEntry &B) {
                                 return A.SoIndex < B.SoIndex;
                               });
    List.insert(It, Entry);
  }
}

bool SaturationState::sameFrontiers(const History &H, const uint32_t *A,
                                    const uint32_t *B) const {
  size_t K = H.numSessions();
  for (size_t S = 0; S < HbStride; ++S) {
    uint32_t Floor = S < K ? H.soBase(static_cast<SessionId>(S)) : 0;
    if ((A[S] > Floor ? A[S] : 0) != (B[S] > Floor ? B[S] : 0))
      return false;
  }
  return true;
}

bool SaturationState::recomputeHbRow(const History &H, TxnId L) {
  const Transaction &T = H.txn(L);
  TmpRow.assign(HbStride, 0);
  if (T.SoIndex > H.soBase(T.Session)) {
    TxnId Pred = H.sessionMember(T.Session, T.SoIndex - 1);
    const uint32_t *PredRow = hbRow(Pred);
    std::copy(PredRow, PredRow + HbStride, TmpRow.begin());
    TmpRow[T.Session] = T.SoIndex; // = SoIndex(Pred) + 1.
  }
  for (TxnId Writer : T.ReadFroms) {
    const Transaction &W = H.txn(Writer);
    const uint32_t *WRow = hbRow(Writer);
    for (size_t I = 0; I < HbStride; ++I)
      TmpRow[I] = std::max(TmpRow[I], WRow[I]);
    TmpRow[W.Session] = std::max(TmpRow[W.Session], W.SoIndex + 1);
  }
  uint32_t *Row = hbRow(L);
  if (sameFrontiers(H, Row, TmpRow.data()))
    return false;
  std::copy(TmpRow.begin(), TmpRow.end(), Row);
  return true;
}

void SaturationState::speculateCc(const History &H,
                                  const std::vector<TxnId> &Ready,
                                  SpecMap &Spec) {
  // Pre-create every entry: the parallel phase below only const-finds the
  // map (no rehash under concurrent readers) and each worker writes only
  // the values of its own bucket.
  for (TxnId L : Ready)
    Spec.emplace(L, CcSpeculation{});

  // Partition by session: a session's rows chain along so, so one worker
  // owning the whole (so-sorted) chain can speculate straight through it,
  // reading sibling speculative rows instead of invalidating on them.
  std::unordered_map<SessionId, size_t> BucketOf;
  std::vector<std::vector<TxnId>> Buckets;
  for (TxnId L : Ready) {
    auto [It, IsNew] = BucketOf.emplace(H.txn(L).Session, Buckets.size());
    if (IsNew)
      Buckets.emplace_back();
    Buckets[It->second].push_back(L);
  }
  for (std::vector<TxnId> &B : Buckets)
    std::sort(B.begin(), B.end(), [&](TxnId A, TxnId C) {
      return H.txn(A).SoIndex < H.txn(C).SoIndex;
    });

  // The speculation phase proper. The engine is quiescent: HbRows, the
  // writer index, ReadersOf, and H are all read-only until the merge, so
  // workers race with nothing. Results that chained a sibling row record
  // it in BatchInputs; rows taken from the pre-merge snapshot go to
  // ExternalInputs — the merge revalidates both.
  SpecPool->parallelFor(0, Buckets.size(), 1, [&](size_t BLo, size_t BHi) {
    std::unordered_set<TxnId> Computed;
    for (size_t B = BLo; B < BHi; ++B) {
      Computed.clear();
      for (TxnId L : Buckets[B]) {
        CcSpeculation &Sp = Spec.find(L)->second;
        const Transaction &T = H.txn(L);
        Sp.Row.assign(HbStride, 0);
        auto InputRow = [&](TxnId Input) -> const uint32_t * {
          if (Computed.count(Input)) {
            Sp.BatchInputs.push_back(Input);
            return Spec.find(Input)->second.Row.data();
          }
          Sp.ExternalInputs.push_back(Input);
          return hbRow(Input);
        };
        if (T.SoIndex > H.soBase(T.Session)) {
          const uint32_t *PredRow =
              InputRow(H.sessionMember(T.Session, T.SoIndex - 1));
          std::copy(PredRow, PredRow + HbStride, Sp.Row.begin());
          Sp.Row[T.Session] = T.SoIndex; // = SoIndex(Pred) + 1.
        }
        for (TxnId Writer : T.ReadFroms) {
          const Transaction &W = H.txn(Writer);
          const uint32_t *WRow = InputRow(Writer);
          for (size_t I = 0; I < HbStride; ++I)
            Sp.Row[I] = std::max(Sp.Row[I], WRow[I]);
          Sp.Row[W.Session] = std::max(Sp.Row[W.Session], W.SoIndex + 1);
        }
        if (!T.ExtReads.empty()) {
          runCcReaderRow(H, L, Sp.Row.data(), Sp.Edges);
          std::sort(Sp.Edges.begin(), Sp.Edges.end());
          Sp.Edges.erase(std::unique(Sp.Edges.begin(), Sp.Edges.end()),
                         Sp.Edges.end());
        }
        Computed.insert(L);
      }
    }
  });
}

bool SaturationState::mergeHbRow(const History &H, TxnId L, SpecMap *Spec) {
  CcSpeculation *Sp = nullptr;
  if (Spec) {
    auto It = Spec->find(L);
    if (It != Spec->end() && !It->second.Row.empty())
      Sp = &It->second;
  }
  if (Sp) {
    // Adopt only when every input the worker read provably still holds
    // its speculated value: snapshot rows unstamped this merge, sibling
    // rows merged to exactly their speculation. Then the speculative row
    // *is* what recomputeHbRow would produce — bit-identical by
    // construction, no comparison of outputs needed.
    bool Valid = true;
    for (TxnId E : Sp->ExternalInputs)
      if (RowEpochs.touchedInCurrentEpoch(slot(E))) {
        Valid = false;
        break;
      }
    if (Valid)
      for (TxnId B : Sp->BatchInputs)
        if (!Spec->find(B)->second.Matched) {
          Valid = false;
          break;
        }
    if (Valid) {
      ++SpecAdoptedRows;
      Sp->Matched = true;
      uint32_t *Row = hbRow(L);
      if (sameFrontiers(H, Row, Sp->Row.data()))
        return false;
      std::copy(Sp->Row.begin(), Sp->Row.end(), Row);
      RowEpochs.touch(slot(L));
      return true;
    }
  }
  bool Changed = recomputeHbRow(H, L);
  if (Changed)
    RowEpochs.touch(slot(L));
  if (Sp) {
    // A re-derived row that lands on the speculated value still validates
    // the chains (and the edge set) built on it.
    ++SpecRecomputedRows;
    Sp->Matched = sameFrontiers(H, hbRow(L), Sp->Row.data());
  }
  return Changed;
}

void SaturationState::propagateHappensBefore(const History &H,
                                             const std::vector<TxnId> &Ready,
                                             std::vector<TxnId> &ChangedOut,
                                             SpecMap *Spec) {
  // Worklist keyed by the maintained topological position: every
  // transaction is recomputed after all its so/wr predecessors, so one
  // pass per dirty node reaches the fixpoint. A node revisited after an
  // input changed revalidates (and usually drops) its speculation.
  std::set<std::pair<uint32_t, TxnId>> Work;
  auto Push = [&](TxnId L) {
    if (H.txn(L).Committed)
      Work.insert({Order.position(L), L});
  };
  if (NeedsFullHbRecompute) {
    NeedsFullHbRecompute = false;
    for (TxnId L = EvictedBase; L < H.txnEnd(); ++L)
      if (Processed[slot(L)])
        Push(L);
  }
  for (TxnId L : Ready)
    Push(L);

  while (!Work.empty()) {
    TxnId L = Work.begin()->second;
    Work.erase(Work.begin());
    bool RowChanged = mergeHbRow(H, L, Spec);
    bool IsReady = std::binary_search(Ready.begin(), Ready.end(), L);
    if (RowChanged || IsReady)
      ChangedOut.push_back(L);
    if (!RowChanged)
      continue;
    TxnId Succ = H.soSuccessor(L);
    if (Succ != NoTxn && Processed[slot(Succ)])
      Push(Succ);
    for (TxnId Reader : ReadersOf[slot(L)])
      if (Reader >= EvictedBase && Processed[slot(Reader)])
        Push(Reader);
  }
  std::sort(ChangedOut.begin(), ChangedOut.end());
  ChangedOut.erase(std::unique(ChangedOut.begin(), ChangedOut.end()),
                   ChangedOut.end());
}

void SaturationState::runCcReader(const History &H, TxnId L,
                                  std::vector<uint64_t> &EdgesOut) const {
  runCcReaderRow(H, L, hbRow(L), EdgesOut);
}

void SaturationState::runCcReaderRow(const History &H, TxnId L,
                                     const uint32_t *Row,
                                     std::vector<uint64_t> &EdgesOut) const {
  const Transaction &T = H.txn(L);
  for (uint32_t ReadIdx : T.ExtReads) {
    const ReadInfo &RI = T.Reads[ReadIdx];
    TxnId T1 = RI.Writer;
    auto WIt = Writers.find(RI.K);
    if (WIt == Writers.end())
      continue;
    const KeyWriters &KW = WIt->second;
    // Algorithm 3 lines 9-15 with the monotone pointer scan replaced by a
    // binary search (the inference is the same: the so-latest writer of
    // the key in each session under the reader's happens-before frontier).
    for (size_t Slot = 0; Slot < KW.Sessions.size(); ++Slot) {
      uint32_t Frontier = Row[KW.Sessions[Slot]];
      if (Frontier == 0)
        continue;
      TxnId T2 = detail::ccFrontierWriter(KW.Lists[Slot], Frontier);
      if (T2 == NoTxn || T2 == T1)
        continue;
      EdgesOut.push_back(pack(T2, T1));
    }
  }
}

void SaturationState::setReaderWrEdges(const History &H, TxnId L,
                                       std::vector<Violation> *Out) {
  uint64_t Source = wrSource(L);
  auto It = BySource.find(Source);
  if (It != BySource.end()) {
    for (uint64_t Packed : It->second) {
      if (deadPacked(Packed))
        continue;
      std::vector<TxnId> &Readers = ReadersOf[slot(edgeFrom(Packed))];
      auto RIt = std::find(Readers.begin(), Readers.end(), L);
      if (RIt != Readers.end()) {
        *RIt = Readers.back();
        Readers.pop_back();
      }
    }
  }
  clearSource(Source, /*IsBase=*/true);
  const Transaction &T = H.txn(L);
  if (T.ReadFroms.empty())
    return;
  std::vector<uint64_t> NewEdges;
  NewEdges.reserve(T.ReadFroms.size());
  for (TxnId Writer : T.ReadFroms) {
    NewEdges.push_back(pack(Writer, L));
    ReadersOf[slot(Writer)].push_back(L);
  }
  addSourceEdges(H, Source, /*IsBase=*/true, NewEdges, Out);
}

//===----------------------------------------------------------------------===//
// The streaming delta pass.
//===----------------------------------------------------------------------===//

void SaturationState::flushDelta(const History &H,
                                 const std::vector<TxnId> &Ready,
                                 std::vector<Violation> &Out) {
  AWDIT_ASSERT(EngineMode == Mode::Streaming,
               "flushDelta: batch-mode state takes coldStart/batches");
  uint64_t DeltaT0 = obs::traceNowNanos();
  {
    AWDIT_SPAN("flush.delta");
    ensureSizes(H);
    retryQuarantined(H);

    // Base-graph delta: the so chain grows at each first-processed
    // commit; a (re-)derived reader replaces its wr contribution.
    for (TxnId L : Ready) {
      const Transaction &T = H.txn(L);
      AWDIT_ASSERT(T.Committed, "flushDelta: ready txn must be committed");
      if (!Processed[slot(L)]) {
        Processed[slot(L)] = 1;
        if (T.SoIndex > H.soBase(T.Session)) {
          TxnId Pred = H.sessionMember(T.Session, T.SoIndex - 1);
          addSourceEdges(H, soSource(T.Session), /*IsBase=*/true,
                         {pack(Pred, L)}, &Out);
        }
        if (Level == IsolationLevel::CausalConsistency)
          appendWriterEntries(H, L);
      }
      setReaderWrEdges(H, L, &Out);
    }
  }
  uint64_t MergeT0 = obs::traceNowNanos();
  PhaseNs.DeltaBuild += MergeT0 - DeltaT0;
  uint64_t SpecBeforeNs = PhaseNs.Speculate;
  AWDIT_SPAN("flush.merge");

  switch (Level) {
  case IsolationLevel::ReadCommitted: {
    // Algorithm 1 is per-transaction: re-saturate exactly the delta.
    for (TxnId L : Ready) {
      clearSource(rcSource(L), /*IsBase=*/false);
      std::vector<uint64_t> NewEdges;
      detail::saturateRcRange(H, L, L + 1, RcScratchState,
                              [&](TxnId From, TxnId To) {
                                NewEdges.push_back(pack(From, To));
                              });
      std::sort(NewEdges.begin(), NewEdges.end());
      NewEdges.erase(std::unique(NewEdges.begin(), NewEdges.end()),
                     NewEdges.end());
      addSourceEdges(H, rcSource(L), /*IsBase=*/false, NewEdges, &Out);
    }
    break;
  }
  case IsolationLevel::ReadAtomic: {
    // Algorithm 2 is per-session with state flowing along so: extend each
    // session's saturation from its last processed position; retroactive
    // re-resolution of an already-processed transaction re-runs the
    // session from scratch.
    if (RaStates.size() < H.numSessions())
      RaStates.resize(H.numSessions());
    for (TxnId L : Ready) {
      RaSessionState &St = RaStates[H.txn(L).Session];
      if (H.txn(L).SoIndex < St.NextSo)
        St.NeedsFullRerun = true;
    }
    for (SessionId S = 0; S < H.numSessions(); ++S) {
      RaSessionState &St = RaStates[S];
      // NextSo is an so position; the kernel indexes the live session list.
      size_t SoBase = H.soBase(S);
      if (St.NeedsFullRerun) {
        clearSource(raSource(S), /*IsBase=*/false);
        St.Scratch.LastWrite.clear();
        St.NextSo = SoBase;
        St.NeedsFullRerun = false;
      }
      size_t End = SoBase + H.sessionTxns(S).size();
      if (St.NextSo >= End)
        continue;
      std::vector<uint64_t> NewEdges;
      detail::saturateRaSessionRange(
          H, S, std::max(St.NextSo, SoBase) - SoBase, End - SoBase,
          St.Scratch, [&](TxnId From, TxnId To) {
            NewEdges.push_back(pack(From, To));
          });
      St.NextSo = End;
      std::sort(NewEdges.begin(), NewEdges.end());
      NewEdges.erase(std::unique(NewEdges.begin(), NewEdges.end()),
                     NewEdges.end());
      addSourceEdges(H, raSource(S), /*IsBase=*/false, NewEdges, &Out);
    }
    break;
  }
  case IsolationLevel::CausalConsistency: {
    // Algorithm 3's frontier is global, but it only moves where the delta
    // reaches: recompute the happens-before rows of the ready transactions,
    // propagate changes to their so/wr successors to fixpoint, and re-run
    // the per-key inference for exactly the transactions whose frontier
    // (or read set) changed.
    if (BaseCyclic)
      break; // so ∪ wr is cyclic; HB undefined (the batch checker stops too).

    // Speculation phase: with a pool installed and a worthwhile delta,
    // shard workers pre-compute rows and reader inferences against the
    // pre-merge snapshot. The merge below adopts a result only when its
    // inputs provably did not change, so the observable output is
    // bit-identical to the sequential path at every thread count. A
    // pending full-row recompute dirties far more than Ready — skip.
    RowEpochs.ensureSlots(Processed.size());
    RowEpochs.beginEpoch();
    SpecMap Spec;
    if (SpecPool && !NeedsFullHbRecompute && Ready.size() >= SpecMinBatch) {
      AWDIT_SPAN("flush.speculate");
      uint64_t SpecT0 = obs::traceNowNanos();
      speculateCc(H, Ready, Spec);
      PhaseNs.Speculate += obs::traceNowNanos() - SpecT0;
    }

    std::vector<TxnId> Changed;
    propagateHappensBefore(H, Ready, Changed, Spec.empty() ? nullptr : &Spec);
    for (TxnId L : Changed) {
      clearSource(ccSource(L), /*IsBase=*/false);
      if (H.txn(L).ExtReads.empty())
        continue;
      std::vector<uint64_t> NewEdges;
      CcSpeculation *Sp = nullptr;
      if (!Spec.empty()) {
        auto It = Spec.find(L);
        if (It != Spec.end() && It->second.Matched)
          Sp = &It->second;
      }
      if (Sp) {
        // The row merged to exactly its speculation, so the speculative
        // inference (already sorted and deduplicated) is the sequential
        // result.
        NewEdges = std::move(Sp->Edges);
        ++SpecAdoptedEdgeSets;
      } else {
        runCcReader(H, L, NewEdges);
        std::sort(NewEdges.begin(), NewEdges.end());
        NewEdges.erase(std::unique(NewEdges.begin(), NewEdges.end()),
                       NewEdges.end());
      }
      addSourceEdges(H, ccSource(L), /*IsBase=*/false, NewEdges, &Out);
    }
    break;
  }
  }
  // Speculation ran inside the merge window on this thread; carve it out
  // so the two phases stay disjoint in the breakdown.
  uint64_t MergeNs = obs::traceNowNanos() - MergeT0;
  uint64_t SpecNs = PhaseNs.Speculate - SpecBeforeNs;
  PhaseNs.Merge += MergeNs > SpecNs ? MergeNs - SpecNs : 0;
}

//===----------------------------------------------------------------------===//
// Batch feeds: the one-shot cold start and the parallel shard merge.
//===----------------------------------------------------------------------===//

void SaturationState::coldStart(const History &H) {
  AWDIT_ASSERT(EngineMode == Mode::Batch,
               "coldStart: streaming state takes flushDelta");
  BatchSink Push(*this);
  switch (Level) {
  case IsolationLevel::ReadCommitted: {
    detail::RcScratch Scratch;
    detail::saturateRcRange(H, 0, static_cast<TxnId>(H.numTxns()), Scratch,
                            Push);
    break;
  }
  case IsolationLevel::ReadAtomic: {
    detail::RaScratch Scratch;
    for (SessionId S = 0; S < H.numSessions(); ++S)
      detail::saturateRaSession(H, S, Scratch, Push);
    break;
  }
  case IsolationLevel::CausalConsistency: {
    std::optional<std::vector<uint32_t>> TopoOrder = computeBaseOrder(H);
    if (!TopoOrder)
      break; // so ∪ wr cycle: fails every level, no saturation.
    HappensBefore HB;
    fillHappensBefore(H, *TopoOrder, HB);
    detail::saturateCc(H, HB, Push);
    break;
  }
  }
}

std::optional<std::vector<uint32_t>> SaturationState::computeBaseOrder(
    const History &H) {
  AWDIT_ASSERT(EngineMode == Mode::Batch,
               "computeBaseOrder: batch-mode helper");
  CachedBase.emplace(H);
  std::optional<std::vector<uint32_t>> TopoOrder =
      topologicalSort(CachedBase->graph());
  if (!TopoOrder)
    BaseCyclic = true;
  return TopoOrder;
}

SaturationState::BatchSink::~BatchSink() {
  // Sorted on the sink's own thread, so a parallel check's sinks sort in
  // parallel and finalizeAcyclic() only merges.
  std::sort(Buf.begin(), Buf.end());
  Buf.erase(std::unique(Buf.begin(), Buf.end()), Buf.end());
  std::lock_guard<std::mutex> Lock(State.SinkBufsMutex);
  State.SinkBufs.push_back(std::move(Buf));
}

bool SaturationState::finalizeAcyclic(const History &H,
                                      std::vector<Violation> &Out,
                                      size_t MaxWitnesses,
                                      SaturationStats *Stats) {
  AWDIT_ASSERT(EngineMode == Mode::Batch,
               "finalizeAcyclic: batch-mode canonical pass");
  // One canonical pass over the complete edge set: the inferred edges are
  // sorted and deduplicated (each sink sorted its own run; the runs are
  // merged here), so the result is independent of which path or
  // interleaving collected them, or of what the sinks' filters dropped — and
  // bit-identical to the historical batch checkers. The CC paths already
  // built the base graph for the topological sort; reuse it.
  std::optional<CommitGraph> Local;
  CommitGraph *Co = CachedBase ? &*CachedBase : nullptr;
  {
    AWDIT_SPAN("check.canonicalize");
    if (!Co)
      Co = &Local.emplace(H);
    {
      std::lock_guard<std::mutex> Lock(SinkBufsMutex);
      Co->inferEdges(mergeSortedRuns(std::move(SinkBufs)));
      SinkBufs = {};
    }
    size_t InferredEdges = Co->numInferredEdges(); // dedups, inserts
    if (Stats) {
      Stats->InferredEdges = InferredEdges;
      Stats->GraphEdges = Co->numEdges();
    }
  }
  AWDIT_SPAN("check.acyclic");
  return Co->checkAcyclic(Out, MaxWitnesses);
}

//===----------------------------------------------------------------------===//
// Eviction.
//===----------------------------------------------------------------------===//

void SaturationState::evict(const History &H, TxnId NewBase) {
  AWDIT_ASSERT(EngineMode == Mode::Streaming, "evict: streaming only");
  TxnId OldBase = EvictedBase;
  if (NewBase <= OldBase)
    return;
  ensureSizes(H);

  // The evicted writers' RA last-writes go, and each so-sorted writer list
  // of a written key loses a prefix (evicted members are an so prefix).
  std::vector<Key> WrittenKeys;
  for (TxnId T = OldBase; T < NewBase; ++T) {
    const Transaction &Txn = H.txn(T);
    if (!Txn.Committed)
      continue;
    WrittenKeys.insert(WrittenKeys.end(), Txn.WriteKeys.begin(),
                       Txn.WriteKeys.end());
    if (Txn.Session < RaStates.size()) {
      std::unordered_map<Key, TxnId> &LastWrite =
          RaStates[Txn.Session].Scratch.LastWrite;
      for (Key K : Txn.WriteKeys) {
        auto It = LastWrite.find(K);
        if (It != LastWrite.end() && It->second == T)
          LastWrite.erase(It);
      }
    }
  }
  std::sort(WrittenKeys.begin(), WrittenKeys.end());
  WrittenKeys.erase(std::unique(WrittenKeys.begin(), WrittenKeys.end()),
                    WrittenKeys.end());
  for (Key K : WrittenKeys) {
    auto It = Writers.find(K);
    if (It == Writers.end())
      continue;
    KeyWriters &KW = It->second;
    for (size_t Slot = KW.Sessions.size(); Slot-- > 0;) {
      std::vector<detail::CcWriterEntry> &List = KW.Lists[Slot];
      List.erase(List.begin(), std::find_if(List.begin(), List.end(),
                                            [&](const auto &E) {
                                              return E.T >= NewBase;
                                            }));
      if (List.empty()) {
        KW.Sessions.erase(KW.Sessions.begin() + Slot);
        KW.Lists.erase(KW.Lists.begin() + Slot);
      }
    }
    if (KW.Sessions.empty())
      Writers.erase(It);
  }

  // From here on every edge incident to an evicted transaction is a
  // tombstone: clearing its sources releases only edges between
  // survivors, and the edges crossing the horizon (found through the
  // order's adjacency, or quarantined) die whoever contributed them — the
  // documented windowed-mode trade-off.
  EvictedBase = NewBase;
  for (TxnId T = OldBase; T < NewBase; ++T) {
    clearSource(rcSource(T), /*IsBase=*/false);
    clearSource(ccSource(T), /*IsBase=*/false);
    clearSource(wrSource(T), /*IsBase=*/true);
    ReadersOf[slot(T)] = {};
  }
  auto DropEdge = [&](uint64_t Packed) {
    const EdgeRefs *Refs = Edges.find(Packed);
    if (Refs && Refs->Inferred > 0)
      --InferredDistinct;
    Edges.erase(Packed);
  };
  std::vector<std::pair<uint32_t, uint32_t>> Crossing;
  Order.evictBelow(NewBase, Crossing);
  for (auto [From, To] : Crossing)
    DropEdge(pack(From, To));
  std::erase_if(Quarantined, [&](uint64_t Packed) {
    if (!deadPacked(Packed))
      return false;
    DropEdge(Packed);
    return true;
  });

  // Sweep the session-scoped lists once per window's worth of evictions:
  // amortized O(1) per evicted transaction, and a pure function of the
  // window, so a resumed run sweeps exactly when an uninterrupted one does.
  uint64_t Quantum =
      std::bit_ceil(std::max<uint64_t>(64, H.txnEnd() - NewBase));
  if (OldBase / Quantum != NewBase / Quantum)
    for (SessionId S = 0; S < NumSessions; ++S)
      for (uint64_t Source : {raSource(S), soSource(S)}) {
        auto It = BySource.find(Source);
        if (It == BySource.end())
          continue;
        std::erase_if(It->second, [&](uint64_t P) { return deadPacked(P); });
        if (It->second.empty())
          BySource.erase(It);
      }

  // Release the evicted slots of the per-transaction arrays once they
  // reach a quarter of the live ones.
  size_t Dead = NewBase - SlotBase;
  if (Dead >= 64 && 4 * Dead >= Processed.size() - Dead) {
    Processed.erase(Processed.begin(), Processed.begin() + Dead);
    ReadersOf.erase(ReadersOf.begin(), ReadersOf.begin() + Dead);
    HbRows.erase(HbRows.begin(),
                 HbRows.begin() + std::min(HbRows.size(), Dead * HbStride));
    RowEpochs.eraseFront(Dead);
    SlotBase = NewBase;
  }

  maybeClearBaseCyclic();
}

//===----------------------------------------------------------------------===//
// Checkpoint support: verbatim serialization of the streaming state.
//===----------------------------------------------------------------------===//

void SaturationState::saveState(
    ByteWriter &W, const std::vector<uint32_t> *LocalSoBase) const {
  AWDIT_ASSERT(EngineMode == Mode::Streaming,
               "saveState: only streaming state checkpoints");
  // The chunked layout writes ids and so positions as they are in memory;
  // the v1 layout is window-local. A v1 frontier at or below its session's
  // first live position is "none" (0): it reaches no live transaction.
  const bool Local = LocalSoBase != nullptr;
  const uint32_t IdShift = Local ? EvictedBase : 0;
  auto OutT = [&](TxnId T) { return static_cast<TxnId>(T - IdShift); };
  auto OutSo = [&](SessionId S, uint32_t So) -> uint32_t {
    uint32_t Floor = Local && S < LocalSoBase->size() ? (*LocalSoBase)[S] : 0;
    return So > Floor ? So - Floor : 0;
  };
  const uint64_t PackedShift =
      (static_cast<uint64_t>(IdShift) << 32) | IdShift;
  const TxnId End = SlotBase + static_cast<TxnId>(Processed.size());

  W.chunk(chunkId(ckchunk::SHdr));
  W.u8(static_cast<uint8_t>(Level));
  W.u64(NumSessions);
  W.boolean(BaseCyclic);
  W.boolean(NeedsFullHbRecompute);

  Order.saveState(W, Local, ckchunk::SPos);

  // Edge refcounts: v1 only, sorted by packed key for canonical bytes
  // (iteration order of the live table never influences behavior in
  // streaming mode). The chunked path skips them entirely — the map is
  // the filtered refcount image of the source lists below, so loadState
  // re-derives it instead of paying churned refcount chunks on every
  // retroactive re-derivation.
  if (Local) {
    std::vector<std::pair<uint64_t, EdgeRefs>> Sorted;
    Sorted.reserve(Edges.size());
    Edges.forEach([&](uint64_t Packed, const EdgeRefs &Refs) {
      Sorted.emplace_back(Packed, Refs);
    });
    std::sort(Sorted.begin(), Sorted.end(),
              [](const auto &A, const auto &B) { return A.first < B.first; });
    W.u64(Sorted.size());
    for (const auto &[Packed, Refs] : Sorted) {
      W.u64(Packed - PackedShift);
      W.u32(Refs.Base);
      W.u32(Refs.Inferred);
    }
  }

  // Source-tagged edge lists, sorted by source key: verbatim in the
  // chunked layout (a per-transaction source's bytes never change), the
  // filtered, localized view in v1 (tombstone-only sources elided).
  {
    std::vector<uint64_t> Sources;
    Sources.reserve(BySource.size());
    for (const auto &[Source, List] : BySource) {
      if (Local && std::all_of(List.begin(), List.end(), [&](uint64_t P) {
            return deadPacked(P);
          }))
        continue;
      Sources.push_back(Source);
    }
    std::sort(Sources.begin(), Sources.end());
    W.chunk(chunkId(ckchunk::SSources));
    W.u64(Sources.size());
    for (uint64_t Source : Sources) {
      const std::vector<uint64_t> &List = BySource.at(Source);
      W.chunk(chunkId(ckchunk::SSources,
                      1 + (((Source >> 32) << 28) |
                           (static_cast<uint32_t>(Source) >> 4))));
      if (!Local) {
        W.u64(Source);
        W.u64(List.size());
        for (uint64_t Packed : List)
          W.u64(Packed);
      } else {
        W.u64(isPerTxnSource(Source) ? Source - IdShift : Source);
        uint64_t Live = 0;
        for (uint64_t Packed : List)
          Live += !deadPacked(Packed);
        W.u64(Live);
        for (uint64_t Packed : List)
          if (!deadPacked(Packed))
            W.u64(Packed - PackedShift);
      }
    }
  }

  {
    std::vector<uint64_t> Sorted(Quarantined.begin(), Quarantined.end());
    std::sort(Sorted.begin(), Sorted.end());
    W.chunk(chunkId(ckchunk::SQuar));
    W.u64(Sorted.size());
    for (uint64_t Packed : Sorted)
      W.u64(Packed - PackedShift);
  }

  W.chunk(chunkId(ckchunk::SProc));
  W.u64(End - EvictedBase);
  for (TxnId T = EvictedBase; T < End; ++T) {
    W.chunk(chunkId(ckchunk::SProc, 1 + (T >> 8)));
    W.u8(Processed[slot(T)]);
  }

  W.chunk(chunkId(ckchunk::SReaders));
  W.u64(End - EvictedBase);
  for (TxnId T = EvictedBase; T < End; ++T) {
    W.chunk(chunkId(ckchunk::SReaders, 1 + (T >> 4)));
    const std::vector<TxnId> &Readers = ReadersOf[slot(T)];
    W.u64(std::count_if(Readers.begin(), Readers.end(),
                        [&](TxnId R) { return R >= EvictedBase; }));
    for (TxnId R : Readers)
      if (R >= EvictedBase)
        W.u32(OutT(R));
  }

  W.chunk(chunkId(ckchunk::SHb));
  W.u64(HbStride);
  size_t LiveRows = HbStride && !HbRows.empty() ? End - EvictedBase : 0;
  W.u64(LiveRows * HbStride);
  for (TxnId T = EvictedBase; T < EvictedBase + LiveRows; ++T) {
    W.chunk(chunkId(ckchunk::SHb, 1 + (T >> 4)));
    const uint32_t *Row = hbRow(T);
    for (size_t S = 0; S < HbStride; ++S)
      W.u32(OutSo(static_cast<SessionId>(S), Row[S]));
  }

  // Per-key writer index: sorted by key; slot order (session discovery
  // order) and list order are semantic — verbatim.
  {
    std::vector<Key> SortedKeys;
    SortedKeys.reserve(Writers.size());
    for (const auto &[K, KW] : Writers)
      SortedKeys.push_back(K);
    std::sort(SortedKeys.begin(), SortedKeys.end());
    W.chunk(chunkId(ckchunk::SWriters));
    W.u64(SortedKeys.size());
    for (Key K : SortedKeys) {
      const KeyWriters &KW = Writers.at(K);
      W.chunk(chunkId(ckchunk::SWriters, 1 + (K >> 4)));
      W.u64(K);
      W.u64(KW.Sessions.size());
      for (size_t Slot = 0; Slot < KW.Sessions.size(); ++Slot) {
        SessionId S = KW.Sessions[Slot];
        W.u32(S);
        const std::vector<detail::CcWriterEntry> &List = KW.Lists[Slot];
        W.u64(List.size());
        for (const detail::CcWriterEntry &E : List) {
          W.u32(OutT(E.T));
          W.u32(OutSo(S, E.SoIndex));
        }
      }
    }
  }

  // RA incremental state. The per-transaction halves of the scratch are
  // reset by the kernel before use; only LastWrite and the frontier
  // persist across flushes.
  W.chunk(chunkId(ckchunk::SRa));
  W.u64(RaStates.size());
  for (size_t S = 0; S < RaStates.size(); ++S) {
    const RaSessionState &St = RaStates[S];
    W.chunk(chunkId(ckchunk::SRa, 1 + S));
    W.u64(OutSo(static_cast<SessionId>(S), static_cast<uint32_t>(St.NextSo)));
    W.boolean(St.NeedsFullRerun);
    std::vector<std::pair<Key, TxnId>> Sorted(St.Scratch.LastWrite.begin(),
                                              St.Scratch.LastWrite.end());
    std::sort(Sorted.begin(), Sorted.end());
    W.u64(Sorted.size());
    for (const auto &[K, T] : Sorted) {
      W.u64(K);
      W.u32(OutT(T));
    }
  }
}

bool SaturationState::loadState(ByteReader &R, std::string *Err,
                                uint32_t WindowBase,
                                const std::vector<uint32_t> *LocalSoBase) {
  auto Fail = [&](const char *Msg) {
    if (Err)
      *Err = Msg;
    return false;
  };
  // Exact inverses of the saveState transforms (identity unless the bytes
  // are the window-local v1 layout).
  const bool Local = LocalSoBase != nullptr;
  const uint32_t IdShift = Local ? WindowBase : 0;
  auto InT = [&](TxnId T) { return static_cast<TxnId>(T + IdShift); };
  auto Floor = [&](SessionId S) {
    return Local && S < LocalSoBase->size() ? (*LocalSoBase)[S] : 0;
  };
  auto InPos = [&](SessionId S, uint32_t So) { return So + Floor(S); };
  auto InFrontier = [&](SessionId S, uint32_t F) {
    return F ? F + Floor(S) : 0;
  };
  const uint64_t PackedShift =
      (static_cast<uint64_t>(IdShift) << 32) | IdShift;

  if (EngineMode != Mode::Streaming)
    return Fail("checkpoint restore requires a streaming-mode engine");
  EvictedBase = SlotBase = WindowBase;
  if (R.u8() != static_cast<uint8_t>(Level))
    return Fail("checkpoint isolation level does not match this monitor");
  NumSessions = R.u64();
  BaseCyclic = R.boolean();
  NeedsFullHbRecompute = R.boolean();
  // Speculation bookkeeping is transient per-flush state: deliberately
  // absent from checkpoints, reset here.
  RowEpochs.clear();

  if (!Order.loadState(R, WindowBase, Local))
    return Fail("corrupted checkpoint (topological order)");

  // Edge refcounts: present in v1 bytes only; the chunked format derives
  // them from the source lists after those are read.
  Edges.clear();
  InferredDistinct = 0;
  if (Local) {
    uint64_t NumEdges = R.u64();
    if (!R.checkCount(NumEdges, 16))
      return Fail("corrupted checkpoint (edge count)");
    for (uint64_t I = 0; I < NumEdges; ++I) {
      uint64_t Packed = R.u64() + PackedShift;
      EdgeRefs Refs;
      Refs.Base = R.u32();
      Refs.Inferred = R.u32();
      Edges[Packed] = Refs;
      if (Refs.Inferred > 0)
        ++InferredDistinct;
    }
  }

  BySource.clear();
  uint64_t NumSources = R.u64();
  if (!R.checkCount(NumSources, 16))
    return Fail("corrupted checkpoint (source count)");
  for (uint64_t I = 0; I < NumSources && R.ok(); ++I) {
    uint64_t Source = R.u64();
    if (Local && isPerTxnSource(Source))
      Source += IdShift;
    uint64_t Len = R.u64();
    if (!R.checkCount(Len, 8))
      return Fail("corrupted checkpoint (source list)");
    std::vector<uint64_t> List(Len);
    for (uint64_t J = 0; J < Len; ++J)
      List[J] = R.u64() + PackedShift;
    BySource.emplace(Source, std::move(List));
  }
  if (!Local) {
    // Derive the refcount map: it is a pure, order-independent refcount
    // image of the filtered lists, so replaying them here reproduces the
    // live engine's map bit-exactly.
    for (const auto &[Source, List] : BySource) {
      bool IsBase = isBaseSource(Source);
      for (uint64_t Packed : List) {
        if (deadPacked(Packed))
          continue;
        EdgeRefs &Refs = Edges[Packed];
        if (IsBase) {
          ++Refs.Base;
        } else {
          if (Refs.Inferred == 0)
            ++InferredDistinct;
          ++Refs.Inferred;
        }
      }
    }
  }

  Quarantined.clear();
  uint64_t NumQuarantined = R.u64();
  if (!R.checkCount(NumQuarantined, 8))
    return Fail("corrupted checkpoint (quarantine)");
  for (uint64_t I = 0; I < NumQuarantined; ++I)
    Quarantined.insert(R.u64() + PackedShift);

  uint64_t NumProcessed = R.u64();
  if (!R.checkCount(NumProcessed, 1))
    return Fail("corrupted checkpoint (processed flags)");
  if (NumProcessed != Order.numNodes())
    return Fail("inconsistent checkpoint (processed flags vs. order)");
  Processed.resize(NumProcessed);
  for (uint64_t I = 0; I < NumProcessed; ++I)
    Processed[I] = R.u8();

  uint64_t NumReaders = R.u64();
  if (!R.checkCount(NumReaders, 8))
    return Fail("corrupted checkpoint (reader lists)");
  ReadersOf.assign(NumReaders, {});
  for (uint64_t I = 0; I < NumReaders && R.ok(); ++I) {
    uint64_t Len = R.u64();
    if (!R.checkCount(Len, 4))
      return Fail("corrupted checkpoint (reader list)");
    ReadersOf[I].resize(Len);
    for (uint64_t J = 0; J < Len; ++J)
      ReadersOf[I][J] = InT(R.u32());
  }

  HbStride = R.u64();
  uint64_t NumHb = R.u64();
  if (!R.checkCount(NumHb, 4))
    return Fail("corrupted checkpoint (happens-before rows)");
  HbRows.resize(NumHb);
  bool RowShaped = HbStride != 0 && NumHb % HbStride == 0;
  for (uint64_t I = 0; I < NumHb; ++I) {
    uint32_t F = R.u32();
    HbRows[I] =
        RowShaped ? InFrontier(static_cast<SessionId>(I % HbStride), F) : F;
  }

  Writers.clear();
  uint64_t NumKeys = R.u64();
  if (!R.checkCount(NumKeys, 16))
    return Fail("corrupted checkpoint (writer index)");
  for (uint64_t I = 0; I < NumKeys && R.ok(); ++I) {
    Key K = R.u64();
    KeyWriters &KW = Writers[K];
    uint64_t Slots = R.u64();
    if (!R.checkCount(Slots, 12))
      return Fail("corrupted checkpoint (writer slots)");
    KW.Sessions.resize(Slots);
    KW.Lists.assign(Slots, {});
    for (uint64_t Slot = 0; Slot < Slots && R.ok(); ++Slot) {
      SessionId S = R.u32();
      KW.Sessions[Slot] = S;
      uint64_t Len = R.u64();
      if (!R.checkCount(Len, 8))
        return Fail("corrupted checkpoint (writer list)");
      KW.Lists[Slot].resize(Len);
      for (uint64_t J = 0; J < Len; ++J) {
        KW.Lists[Slot][J].T = InT(R.u32());
        KW.Lists[Slot][J].SoIndex = InPos(S, R.u32());
      }
    }
  }

  RaStates.clear();
  uint64_t NumRa = R.u64();
  if (!R.checkCount(NumRa, 9))
    return Fail("corrupted checkpoint (RA state)");
  RaStates.resize(NumRa);
  for (uint64_t I = 0; I < NumRa && R.ok(); ++I) {
    RaSessionState &St = RaStates[I];
    St.NextSo = InPos(static_cast<SessionId>(I),
                      static_cast<uint32_t>(R.u64()));
    St.NeedsFullRerun = R.boolean();
    uint64_t Len = R.u64();
    if (!R.checkCount(Len, 12))
      return Fail("corrupted checkpoint (RA last-write)");
    for (uint64_t J = 0; J < Len; ++J) {
      Key K = R.u64();
      St.Scratch.LastWrite[K] = InT(R.u32());
    }
  }

  if (!R.ok())
    return Fail("truncated checkpoint (saturation state)");
  return true;
}
