//===- history/history.h - Transaction history model -------------*- C++ -*-===//
//
// Part of the AWDIT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The History model of paper Definition 2.2: a set of transactions grouped
/// into sessions (so), with the write-read relation (wr) resolved from the
/// unique-value convention of black-box database testing. A History is
/// immutable once finalized; checkers only read it.
///
//===----------------------------------------------------------------------===//

#ifndef AWDIT_HISTORY_HISTORY_H
#define AWDIT_HISTORY_HISTORY_H

#include "history/transaction.h"
#include "history/types.h"

#include <string>
#include <vector>

namespace awdit {

/// An immutable transaction history: sessions of transactions with resolved
/// wr. Construct through HistoryBuilder, which enforces the model invariants
/// (unique values per key, wr^-1 a function).
class History {
public:
  History() = default;

  /// All transactions, committed and aborted. TxnId indexes this vector
  /// (offset by the first stored id, which is 0 except in the streaming
  /// Monitor's live window: its ids stay global while eviction drops its
  /// prefix).
  const std::vector<Transaction> &transactions() const { return Txns; }

  const Transaction &txn(TxnId Id) const { return Txns[Id - TxnBase]; }

  /// One past the last stored transaction id.
  TxnId txnEnd() const { return TxnBase + static_cast<TxnId>(Txns.size()); }

  /// Number of sessions k.
  size_t numSessions() const { return Sessions.size(); }

  /// Committed transactions of session \p S in so order (H|s). The first
  /// one sits at so position soBase(S).
  const std::vector<TxnId> &sessionTxns(SessionId S) const {
    return Sessions[S];
  }

  /// So position of sessionTxns(S)[0]: 0 except in the Monitor's window.
  uint32_t soBase(SessionId S) const {
    return SoBase.empty() ? 0 : SoBase[S];
  }

  /// The committed transaction of session \p S at so position \p SoIndex.
  TxnId sessionMember(SessionId S, uint32_t SoIndex) const {
    return Sessions[S][SoIndex - soBase(S)];
  }

  /// Total number of operations n (the history's size, paper §2.1),
  /// counting both committed and aborted transactions.
  size_t numOps() const { return TotalOps; }

  /// Number of transactions (committed + aborted).
  size_t numTxns() const { return Txns.size(); }

  /// Number of committed transactions.
  size_t numCommitted() const { return CommittedCount; }

  /// Number of distinct keys appearing in any operation.
  size_t numKeys() const { return KeyCount; }

  /// Returns true if \p Id refers to a committed transaction.
  bool isCommitted(TxnId Id) const { return txn(Id).Committed; }

  /// The committed transaction so-after \p Id in its session, or NoTxn.
  TxnId soSuccessor(TxnId Id) const;

  /// Returns true if \p A is so-before-or-equal \p B (same session and
  /// A's SoIndex <= B's). Both must be committed.
  bool soBeforeOrEqual(TxnId A, TxnId B) const {
    const Transaction &TA = txn(A), &TB = txn(B);
    return TA.Session == TB.Session && TA.SoIndex <= TB.SoIndex;
  }

  /// A short human-readable label for a transaction, e.g. "t12(s3#4)".
  std::string txnLabel(TxnId Id) const;

private:
  friend class HistoryBuilder;
  // The streaming Monitor grows its live window in place as a History so
  // the checking kernels run on it unchanged (checker/monitor.h).
  friend class Monitor;

  std::vector<Transaction> Txns;
  /// Id of Txns[0].
  TxnId TxnBase = 0;
  /// Committed transactions per session, in so order.
  std::vector<std::vector<TxnId>> Sessions;
  /// Per-session so position of Sessions[S][0]; empty means all 0.
  std::vector<uint32_t> SoBase;
  size_t TotalOps = 0;
  size_t CommittedCount = 0;
  size_t KeyCount = 0;
};

} // namespace awdit

#endif // AWDIT_HISTORY_HISTORY_H
