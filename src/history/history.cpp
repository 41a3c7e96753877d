//===- history/history.cpp - Transaction history model --------------------===//

#include "history/history.h"

using namespace awdit;

TxnId History::soSuccessor(TxnId Id) const {
  const Transaction &T = txn(Id);
  const std::vector<TxnId> &Sess = Sessions[T.Session];
  uint32_t Next = T.SoIndex + 1 - soBase(T.Session);
  if (Next < Sess.size())
    return Sess[Next];
  return NoTxn;
}

std::string History::txnLabel(TxnId Id) const {
  const Transaction &T = txn(Id);
  std::string Label = "t" + std::to_string(Id) + "(s" +
                      std::to_string(T.Session) + "#" +
                      std::to_string(T.SoIndex);
  if (!T.Committed)
    Label += ",aborted";
  Label += ")";
  return Label;
}
