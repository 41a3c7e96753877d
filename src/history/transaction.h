//===- history/transaction.h - Transaction record ----------------*- C++ -*-===//
//
// Part of the AWDIT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Transaction record (paper Definition 2.1) plus the derived per-
/// transaction indices that History::finalize() precomputes for the checking
/// algorithms: resolved reads, distinct write keys with the final write to
/// each, and distinct external writers in first-read order.
///
//===----------------------------------------------------------------------===//

#ifndef AWDIT_HISTORY_TRANSACTION_H
#define AWDIT_HISTORY_TRANSACTION_H

#include "history/types.h"

#include <algorithm>
#include <vector>

namespace awdit {

/// A read operation after wr resolution. `Writer == NoTxn` marks a thin-air
/// read; `Writer == <own id>` marks an internal read (observe-own-writes).
struct ReadInfo {
  /// Index of the read in Transaction::Ops (its po position).
  uint32_t OpIndex;
  Key K;
  Value V;
  /// The transaction whose write this read observes (via unique values).
  TxnId Writer;
  /// The op index of the observed write inside the writer, NoOp if thin-air.
  uint32_t WriterOp;
};

/// A client transaction: its operations in program order, its session
/// coordinates, and indices derived during History::finalize().
struct Transaction {
  /// The session this transaction belongs to.
  SessionId Session = 0;
  /// Position of this transaction within its session's so order.
  uint32_t SoIndex = 0;
  /// Committed transactions form T_c; aborted ones T_a (Definition 2.2).
  bool Committed = true;
  /// Operations in program order.
  std::vector<Operation> Ops;

  // --- Derived by History::finalize(). ---

  /// All reads in po order, with resolved writers.
  std::vector<ReadInfo> Reads;
  /// Indices into Reads of *external* reads: the writer is a different,
  /// committed transaction. These are exactly the reads that participate in
  /// the RC/RA/CC axioms (the txn-level wr relation requires r not in t1).
  std::vector<uint32_t> ExtReads;
  /// Distinct keys written, sorted ascending (KeysWt(t)).
  std::vector<Key> WriteKeys;
  /// LastWriteOps[i] is the op index of the final write to WriteKeys[i]:
  /// the only write of this transaction another transaction may observe.
  std::vector<uint32_t> LastWriteOps;
  /// Distinct committed external writer transactions, in order of their
  /// first read by this transaction (the txn-level wr predecessors).
  std::vector<TxnId> ReadFroms;

  /// Returns true if this transaction writes \p K (binary search over the
  /// sorted WriteKeys — O(log |KeysWt|)).
  bool writesKey(Key K) const {
    return std::binary_search(WriteKeys.begin(), WriteKeys.end(), K);
  }

  /// The op index of the final write to \p K, or NoOp if this transaction
  /// does not write \p K (binary search over WriteKeys).
  uint32_t lastWriteOp(Key K) const {
    auto It = std::lower_bound(WriteKeys.begin(), WriteKeys.end(), K);
    if (It == WriteKeys.end() || *It != K)
      return NoOp;
    return LastWriteOps[It - WriteKeys.begin()];
  }

  /// Number of operations (reads + writes).
  size_t size() const { return Ops.size(); }
};

/// Fills T.LastWriteOps from T.Ops for the keys already in T.WriteKeys.
/// A checkpoint stores WriteKeys but not this array, so loading one
/// re-derives it here.
inline void indexLastWrites(Transaction &T) {
  T.LastWriteOps.assign(T.WriteKeys.size(), NoOp);
  for (uint32_t OpIdx = 0; OpIdx < T.Ops.size(); ++OpIdx) {
    const Operation &Op = T.Ops[OpIdx];
    if (!Op.isWrite())
      continue;
    auto It = std::lower_bound(T.WriteKeys.begin(), T.WriteKeys.end(), Op.K);
    if (It != T.WriteKeys.end() && *It == Op.K)
      T.LastWriteOps[It - T.WriteKeys.begin()] = OpIdx;
  }
}

/// Derives T.WriteKeys and T.LastWriteOps from T.Ops. \p Scratch is the
/// caller's reusable buffer, so deriving many transactions allocates only
/// the two arrays themselves.
inline void deriveWriteKeys(Transaction &T, std::vector<Key> &Scratch) {
  Scratch.clear();
  for (const Operation &Op : T.Ops)
    if (Op.isWrite())
      Scratch.push_back(Op.K);
  std::sort(Scratch.begin(), Scratch.end());
  Scratch.erase(std::unique(Scratch.begin(), Scratch.end()), Scratch.end());
  T.WriteKeys.assign(Scratch.begin(), Scratch.end());
  indexLastWrites(T);
}

} // namespace awdit

#endif // AWDIT_HISTORY_TRANSACTION_H
