//===- checker/read_consistency.h - Read Consistency (Alg. 4) -----*- C++ -*-===//
//
// Part of the AWDIT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The linear-time Read Consistency check (paper Definition 2.3 and
/// Algorithm 4): no thin-air reads, no aborted reads, no future reads,
/// observe-own-writes, observe-latest-write. All three isolation levels
/// require Read Consistency as a precondition. Every failing read is
/// reported independently (paper §3.4).
///
//===----------------------------------------------------------------------===//

#ifndef AWDIT_CHECKER_READ_CONSISTENCY_H
#define AWDIT_CHECKER_READ_CONSISTENCY_H

#include "checker/violation.h"
#include "history/history.h"

#include <utility>
#include <vector>

namespace awdit {

/// Reusable buffer of the read-level checks. A caller that checks many
/// transactions keeps one, so once it has grown to the largest transaction
/// the checks allocate nothing.
struct ReadCheckScratch {
  /// Sorted (key, index) pairs of the transaction being checked: its own
  /// writes (key, op index) for Read Consistency, its external reads
  /// (key, position in ExtReads) for repeatable reads.
  std::vector<std::pair<Key, uint32_t>> ByKey;
};

/// Checks the five Read Consistency axioms of \p H in O(n log n) time (one
/// binary search per read), appending one violation per failing read to
/// \p Out. Returns true iff no violation
/// was found.
bool checkReadConsistency(const History &H, std::vector<Violation> &Out);

/// Range form of checkReadConsistency covering transactions [Begin, End):
/// the unit of work of the parallel engine's sharded pass. Transactions are
/// checked independently, so concatenating the outputs of a partition of
/// [0, numTxns) in range order reproduces the sequential violation list
/// exactly. Returns true iff the range added no violation.
bool checkReadConsistencyRange(const History &H, TxnId Begin, TxnId End,
                               std::vector<Violation> &Out);

/// Checks the Read Consistency axioms of transaction \p Id alone (nothing
/// if it aborted) in O(reads · log writes), appending its violations to
/// \p Out. checkReadConsistencyRange and the Monitor's flush run this.
/// Returns true iff it added no violation.
bool checkReadConsistencyTxn(const History &H, TxnId Id,
                             ReadCheckScratch &Scratch,
                             std::vector<Violation> &Out);

} // namespace awdit

#endif // AWDIT_CHECKER_READ_CONSISTENCY_H
