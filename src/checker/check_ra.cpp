//===- checker/check_ra.cpp - AWDIT Read Atomic (Alg. 2) -------------------===//

#include "checker/check_ra.h"

#include "checker/commit_graph.h"
#include "checker/read_consistency.h"
#include "checker/saturation_impl.h"
#include "support/hybrid_map.h"

#include <algorithm>

using namespace awdit;

bool awdit::checkRepeatableReads(const History &H,
                                 std::vector<Violation> &Out) {
  return checkRepeatableReadsRange(H, 0, static_cast<TxnId>(H.numTxns()),
                                   Out);
}

bool awdit::checkRepeatableReadsRange(const History &H, TxnId Begin,
                                      TxnId End,
                                      std::vector<Violation> &Out) {
  size_t Before = Out.size();
  ReadCheckScratch Scratch;
  for (TxnId Id = Begin; Id < End; ++Id)
    checkRepeatableReadsTxn(H, Id, Scratch, Out);
  return Out.size() == Before;
}

bool awdit::checkRepeatableReadsTxn(const History &H, TxnId Id,
                                    ReadCheckScratch &Scratch,
                                    std::vector<Violation> &Out) {
  // Only external reads matter: the guard in Algorithm 2 line 25 skips
  // own-transaction writers.
  const Transaction &T = H.txn(Id);
  if (!T.Committed || T.ExtReads.size() < 2)
    return true;
  size_t Before = Out.size();

  // External reads as sorted (key, position) pairs: the first entry of a
  // key is its first read, whose writer every later read of it must match.
  std::vector<std::pair<Key, uint32_t>> &ByKey = Scratch.ByKey;
  ByKey.clear();
  for (uint32_t Pos = 0; Pos < T.ExtReads.size(); ++Pos)
    ByKey.emplace_back(T.Reads[T.ExtReads[Pos]].K, Pos);
  std::sort(ByKey.begin(), ByKey.end());

  for (uint32_t ReadIdx : T.ExtReads) {
    const ReadInfo &RI = T.Reads[ReadIdx];
    auto First = std::lower_bound(ByKey.begin(), ByKey.end(),
                                  std::make_pair(RI.K, uint32_t(0)));
    if (T.Reads[T.ExtReads[First->second]].Writer != RI.Writer)
      Out.push_back({ViolationKind::NonRepeatableRead, Id, RI.OpIndex,
                     RI.Writer,
                     {}});
  }
  return Out.size() == Before;
}

bool awdit::checkRa(const History &H, std::vector<Violation> &Out,
                    size_t MaxWitnesses, SaturationStats *Stats) {
  // Lines 2-3: Read Consistency, then repeatable reads.
  if (!checkReadConsistency(H, Out))
    return false;
  if (!checkRepeatableReads(H, Out))
    return false;

  // Line 4: co' <- so ∪ wr.
  CommitGraph Co(H);

  // Lines 5-18: per-session saturation (the shared kernel; the parallel
  // engine runs the same kernel with one task per session).
  detail::RaScratch Scratch;
  for (SessionId S = 0; S < H.numSessions(); ++S)
    detail::saturateRaSession(H, S, Scratch,
                              [&](TxnId From, TxnId To) {
                                Co.inferEdge(From, To);
                              });

  if (Stats) {
    Stats->InferredEdges = Co.numInferredEdges();
    Stats->GraphEdges = Co.numEdges();
  }

  // Line 19: cycle check.
  return Co.checkAcyclic(Out, MaxWitnesses);
}
