//===- checker/read_consistency.cpp - Read Consistency (Alg. 4) ------------===//

#include "checker/read_consistency.h"

#include <algorithm>

using namespace awdit;

bool awdit::checkReadConsistency(const History &H,
                                 std::vector<Violation> &Out) {
  return checkReadConsistencyRange(H, 0, static_cast<TxnId>(H.numTxns()),
                                   Out);
}

bool awdit::checkReadConsistencyRange(const History &H, TxnId Begin,
                                      TxnId End, std::vector<Violation> &Out) {
  size_t Before = Out.size();
  ReadCheckScratch Scratch;
  for (TxnId Id = Begin; Id < End; ++Id)
    checkReadConsistencyTxn(H, Id, Scratch, Out);
  return Out.size() == Before;
}

bool awdit::checkReadConsistencyTxn(const History &H, TxnId Id,
                                    ReadCheckScratch &Scratch,
                                    std::vector<Violation> &Out) {
  const Transaction &T = H.txn(Id);
  if (!T.Committed || T.Reads.empty())
    return true;
  size_t Before = Out.size();

  // Own writes as sorted (key, op index) pairs: the latest own write to x
  // po-before a read is the entry just below (x, read's op index). Used
  // for the own-write axioms (Fig. 2c/2d/2e same-txn).
  std::vector<std::pair<Key, uint32_t>> &OwnWrites = Scratch.ByKey;
  OwnWrites.clear();
  for (uint32_t OpIdx = 0; OpIdx < T.Ops.size(); ++OpIdx)
    if (T.Ops[OpIdx].isWrite())
      OwnWrites.emplace_back(T.Ops[OpIdx].K, OpIdx);
  std::sort(OwnWrites.begin(), OwnWrites.end());
  auto LatestOwnWriteBefore = [&OwnWrites](Key K, uint32_t OpIdx) {
    auto It = std::lower_bound(OwnWrites.begin(), OwnWrites.end(),
                               std::make_pair(K, OpIdx));
    if (It == OwnWrites.begin() || (--It)->first != K)
      return NoOp;
    return It->second;
  };

  for (const ReadInfo &RI : T.Reads) {
    uint32_t OpIdx = RI.OpIndex;
    // (a) No thin-air reads.
    if (RI.Writer == NoTxn) {
      Out.push_back({ViolationKind::ThinAirRead, Id, OpIdx, NoTxn, {}});
      continue;
    }
    // (b) No aborted reads.
    if (!H.txn(RI.Writer).Committed) {
      Out.push_back({ViolationKind::AbortedRead, Id, OpIdx, RI.Writer, {}});
      continue;
    }

    uint32_t OwnWrite = LatestOwnWriteBefore(RI.K, OpIdx);
    if (RI.Writer == Id) {
      // (c) No future reads: the observed own write must be po-earlier.
      if (RI.WriterOp > OpIdx) {
        Out.push_back({ViolationKind::FutureRead, Id, OpIdx, Id, {}});
        continue;
      }
      // (e, same txn) Observe latest own write.
      if (OwnWrite != RI.WriterOp)
        Out.push_back(
            {ViolationKind::NotLatestWriteSameTxn, Id, OpIdx, Id, {}});
    } else {
      // (d) Observe own writes: reading externally is wrong if an own
      // po-earlier write to the key exists.
      if (OwnWrite != NoOp) {
        Out.push_back(
            {ViolationKind::NotOwnWrite, Id, OpIdx, RI.Writer, {}});
        continue;
      }
      // (e, other txn) Observe latest write: the observed write must be
      // the final write to the key inside the writer transaction.
      if (H.txn(RI.Writer).lastWriteOp(RI.K) != RI.WriterOp)
        Out.push_back({ViolationKind::NotLatestWriteOtherTxn, Id, OpIdx,
                       RI.Writer,
                       {}});
    }
  }
  return Out.size() == Before;
}
